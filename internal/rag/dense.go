package rag

import (
	"fmt"
	"sort"

	"cllm/internal/dtype"
	"cllm/internal/model"
	"cllm/internal/tensor"
)

// DenseRetriever is the SBERT-style pipeline: documents and queries are
// encoded into dense vectors by a real (scaled-down) transformer encoder and
// ranked by cosine similarity. Document embeddings are precomputed at index
// time, so query cost is one encoder pass plus a dot-product scan — why
// "sbert" is the cheapest per-query system in Fig 14.
type DenseRetriever struct {
	store   *Store
	encoder *model.Transformer
	tok     *model.Tokenizer
	maxLen  int
	embs    [][]float32
	ids     []string
}

// NewDenseRetriever builds the retriever with a deterministic sbert-mini
// encoder (scaled for functional speed) and embeds every document in the
// store.
func NewDenseRetriever(store *Store, scale int, seed int64) (*DenseRetriever, error) {
	if store.Len() == 0 {
		return nil, fmt.Errorf("rag: cannot build dense retriever over empty store")
	}
	cfg, err := model.Lookup("sbert-mini")
	if err != nil {
		return nil, err
	}
	cfg = cfg.Scaled(scale)
	enc, err := model.Build(cfg, dtype.BF16, seed)
	if err != nil {
		return nil, err
	}
	r := &DenseRetriever{
		store:   store,
		encoder: enc,
		tok:     model.NewTokenizer(cfg.VocabSize),
		maxLen:  32,
	}
	for _, d := range store.docs {
		emb, err := r.encode(d.Title + " " + d.Body)
		if err != nil {
			return nil, fmt.Errorf("rag: embedding %s: %w", d.ID, err)
		}
		r.embs = append(r.embs, emb)
		r.ids = append(r.ids, d.ID)
	}
	return r, nil
}

func (r *DenseRetriever) encode(text string) ([]float32, error) {
	tokens := r.tok.Encode(text)
	if len(tokens) > r.maxLen {
		tokens = tokens[:r.maxLen]
	}
	return r.encoder.Embed(tokens)
}

// Search embeds the query and returns the top-k documents by cosine
// similarity.
func (r *DenseRetriever) Search(query string, k int) ([]Hit, error) {
	if k <= 0 {
		return nil, fmt.Errorf("rag: k must be positive")
	}
	q, err := r.encode(query)
	if err != nil {
		return nil, err
	}
	hits := make([]Hit, len(r.embs))
	for i, emb := range r.embs {
		hits[i] = Hit{ID: r.ids[i], Score: float64(tensor.CosineSimilarity(q, emb))}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits, nil
}
