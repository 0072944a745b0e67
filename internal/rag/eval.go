package rag

import (
	"fmt"
	"math"
	"sort"
)

// NDCGAt computes the normalized discounted cumulative gain at cutoff k for
// one ranked result list against graded relevance judgments.
func NDCGAt(hits []Hit, rels map[string]int, k int) (float64, error) {
	if k <= 0 {
		return 0, fmt.Errorf("rag: nDCG cutoff must be positive")
	}
	if len(rels) == 0 {
		return 0, fmt.Errorf("rag: no relevance judgments")
	}
	dcg := 0.0
	seen := make(map[string]bool, k)
	for i, h := range hits {
		if i >= k {
			break
		}
		if seen[h.ID] {
			continue // defensive: a ranking must not be credited twice
		}
		seen[h.ID] = true
		g := float64(rels[h.ID])
		if g > 0 {
			dcg += (math.Pow(2, g) - 1) / math.Log2(float64(i)+2)
		}
	}
	// Ideal DCG from sorted judgments.
	grades := make([]int, 0, len(rels))
	for _, g := range rels {
		grades = append(grades, g)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(grades)))
	idcg := 0.0
	for i, g := range grades {
		if i >= k {
			break
		}
		idcg += (math.Pow(2, float64(g)) - 1) / math.Log2(float64(i)+2)
	}
	if idcg == 0 {
		return 0, nil
	}
	return dcg / idcg, nil
}

// Method selects one of the paper's three RAG systems (Fig 14).
type Method int

const (
	// MethodBM25 is plain Okapi BM25 over the inverted index.
	MethodBM25 Method = iota
	// MethodBM25Reranked first retrieves with BM25, then rescores the
	// candidates with the cross-encoder.
	MethodBM25Reranked
	// MethodSBERT is dense retrieval with the sentence encoder.
	MethodSBERT
)

// String names the method as in Fig 14.
func (m Method) String() string {
	switch m {
	case MethodBM25:
		return "BM25"
	case MethodBM25Reranked:
		return "BM25 reranked"
	case MethodSBERT:
		return "sbert"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Pipeline bundles the three systems over one corpus.
type Pipeline struct {
	Store  *Store
	Rerank *CrossEncoder
	Dense  *DenseRetriever
	BM25   BM25Params
	// CandidateK is how many BM25 hits feed the reranker.
	CandidateK int
}

// NewPipeline builds all three systems over the corpus.
func NewPipeline(c *Corpus, seed int64) (*Pipeline, error) {
	store, err := c.BuildStore()
	if err != nil {
		return nil, err
	}
	dense, err := NewDenseRetriever(store, 16, seed)
	if err != nil {
		return nil, err
	}
	return &Pipeline{
		Store:      store,
		Rerank:     NewCrossEncoder(store),
		Dense:      dense,
		BM25:       DefaultBM25(),
		CandidateK: 50,
	}, nil
}

// QueryStats records the work one query performed, for the timing model.
type QueryStats struct {
	PostingsScanned int
	DocsReranked    int
	DenseCompared   int
}

// Run executes one query with the chosen method.
func (p *Pipeline) Run(m Method, query string, k int) ([]Hit, QueryStats, error) {
	var stats QueryStats
	switch m {
	case MethodBM25:
		hits, scanned, err := p.Store.SearchBM25(query, k, p.BM25)
		stats.PostingsScanned = scanned
		return hits, stats, err
	case MethodBM25Reranked:
		cands, scanned, err := p.Store.SearchBM25(query, p.CandidateK, p.BM25)
		if err != nil {
			return nil, stats, err
		}
		stats.PostingsScanned = scanned
		stats.DocsReranked = len(cands)
		hits, err := p.Rerank.Rerank(query, cands, k)
		return hits, stats, err
	case MethodSBERT:
		hits, err := p.Dense.Search(query, k)
		stats.DenseCompared = p.Store.Len()
		return hits, stats, err
	default:
		return nil, stats, fmt.Errorf("rag: unknown method %v", m)
	}
}

// Evaluate runs every corpus query through the method and returns mean
// nDCG@10 plus aggregate work stats.
func (p *Pipeline) Evaluate(c *Corpus, m Method) (float64, QueryStats, error) {
	if len(c.Queries) == 0 {
		return 0, QueryStats{}, fmt.Errorf("rag: corpus has no queries")
	}
	var total float64
	var agg QueryStats
	for _, q := range c.Queries {
		hits, stats, err := p.Run(m, q.Text, 10)
		if err != nil {
			return 0, agg, fmt.Errorf("rag: query %s: %w", q.ID, err)
		}
		nd, err := NDCGAt(hits, q.Rels, 10)
		if err != nil {
			return 0, agg, err
		}
		total += nd
		agg.PostingsScanned += stats.PostingsScanned
		agg.DocsReranked += stats.DocsReranked
		agg.DenseCompared += stats.DenseCompared
	}
	return total / float64(len(c.Queries)), agg, nil
}
