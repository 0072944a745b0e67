package rag

import (
	"math"
	"testing"
	"testing/quick"

	"cllm/internal/hw"
	"cllm/internal/tee"
)

func TestAnalyze(t *testing.T) {
	terms := Analyze("The Heart-Valves are failing, and pressures RISING!")
	// "the"/"are"/"and" are stopwords; suffixes stripped; lowercased.
	// The light stemmer is aggressive on -ing ("failing"→"fail",
	// "rising"→"ris"); that is fine as long as it is consistent between
	// indexing and querying.
	want := []string{"heart", "valve", "fail", "pressure", "ris"}
	if len(terms) != len(want) {
		t.Fatalf("Analyze = %v, want %v", terms, want)
	}
	for i := range want {
		if terms[i] != want[i] {
			t.Errorf("term[%d] = %q, want %q", i, terms[i], want[i])
		}
	}
	if got := Analyze("!!! ..."); len(got) != 0 {
		t.Errorf("punctuation-only text produced %v", got)
	}
}

func TestStem(t *testing.T) {
	cases := map[string]string{
		"valves": "valve", "studies": "study", "tested": "test",
		"running": "runn", "pass": "pass", "es": "es", "cats": "cat",
		"boxes": "box", "churches": "church",
	}
	for in, want := range cases {
		if got := stem(in); got != want {
			t.Errorf("stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func buildSmallStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	docs := []Document{
		{ID: "d1", Title: "heart valve surgery", Body: "heart valve replacement improves cardiac rhythm and pressure"},
		{ID: "d2", Title: "tumor biopsy", Body: "biopsy confirms tumor marker and chemotherapy plan"},
		{ID: "d3", Title: "portfolio hedging", Body: "hedge equity portfolio with derivatives and manage liquidity"},
		{ID: "d4", Title: "heart rhythm study", Body: "rhythm monitoring with ecg detects arrhythmia in heart patients"},
	}
	for _, d := range docs {
		if err := s.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestStoreAdd(t *testing.T) {
	s := buildSmallStore(t)
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if err := s.Add(Document{ID: "d1"}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := s.Add(Document{}); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := s.Doc("nope"); err == nil {
		t.Error("missing doc returned")
	}
}

func TestBM25RanksOnTopic(t *testing.T) {
	s := buildSmallStore(t)
	hits, scanned, err := s.SearchBM25("heart valve", 4, DefaultBM25())
	if err != nil {
		t.Fatal(err)
	}
	if scanned == 0 {
		t.Error("no postings scanned")
	}
	if hits[0].ID != "d1" {
		t.Errorf("top hit = %s, want d1", hits[0].ID)
	}
	// d4 mentions heart but not valve: second.
	if hits[1].ID != "d4" {
		t.Errorf("second hit = %s, want d4", hits[1].ID)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Error("hits not sorted by score")
		}
	}
}

func TestBM25Errors(t *testing.T) {
	s := buildSmallStore(t)
	if _, _, err := s.SearchBM25("heart", 0, DefaultBM25()); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := s.SearchBM25("the and of", 3, DefaultBM25()); err == nil {
		t.Error("stopword-only query accepted")
	}
	if _, _, err := NewStore().SearchBM25("heart", 3, DefaultBM25()); err == nil {
		t.Error("empty index searched")
	}
}

func TestIDFMonotonicity(t *testing.T) {
	s := buildSmallStore(t)
	// "heart" appears in 2 docs, "tumor" in 1: rarer term has higher IDF.
	if s.IDF("tumor") <= s.IDF("heart") {
		t.Errorf("IDF(tumor)=%g <= IDF(heart)=%g", s.IDF("tumor"), s.IDF("heart"))
	}
	if s.IDF("unseen-term") <= s.IDF("tumor") {
		t.Error("unseen term should have the highest IDF")
	}
}

func TestCrossEncoderPrefersRelevant(t *testing.T) {
	s := buildSmallStore(t)
	ce := NewCrossEncoder(s)
	d1, _ := s.Doc("d1")
	d3, _ := s.Doc("d3")
	if ce.Score("heart valve replacement", d1) <= ce.Score("heart valve replacement", d3) {
		t.Error("cross encoder scored off-topic doc higher")
	}
}

func TestRerankImprovesOrdering(t *testing.T) {
	s := buildSmallStore(t)
	ce := NewCrossEncoder(s)
	cands := []Hit{{ID: "d3", Score: 5}, {ID: "d1", Score: 4}} // BM25 got it wrong
	out, err := ce.Rerank("heart valve replacement", cands, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].ID != "d1" {
		t.Errorf("rerank top = %s, want d1", out[0].ID)
	}
	if _, err := ce.Rerank("q", cands, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ce.Rerank("q", []Hit{{ID: "missing"}}, 1); err == nil {
		t.Error("missing candidate accepted")
	}
}

func TestCorpusGeneration(t *testing.T) {
	c, err := GenerateCorpus(10, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Docs) != 10*len(topicVocab) || len(c.Queries) != 3*len(topicVocab) {
		t.Fatalf("corpus size %d docs / %d queries", len(c.Docs), len(c.Queries))
	}
	// Deterministic.
	c2, _ := GenerateCorpus(10, 3, 7)
	if c.Docs[5].Body != c2.Docs[5].Body {
		t.Error("corpus not deterministic")
	}
	if _, err := GenerateCorpus(1, 1, 7); err == nil {
		t.Error("tiny corpus accepted")
	}
}

func TestNDCG(t *testing.T) {
	rels := map[string]int{"a": 2, "b": 1}
	perfect := []Hit{{ID: "a"}, {ID: "b"}}
	nd, err := NDCGAt(perfect, rels, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nd-1) > 1e-12 {
		t.Errorf("perfect nDCG = %g", nd)
	}
	reversed := []Hit{{ID: "b"}, {ID: "a"}}
	nd2, _ := NDCGAt(reversed, rels, 10)
	if nd2 >= nd {
		t.Error("reversed ranking not penalized")
	}
	empty, _ := NDCGAt(nil, rels, 10)
	if empty != 0 {
		t.Errorf("empty ranking nDCG = %g", empty)
	}
	if _, err := NDCGAt(perfect, rels, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NDCGAt(perfect, map[string]int{}, 10); err == nil {
		t.Error("no judgments accepted")
	}
}

func TestNDCGBounds(t *testing.T) {
	if err := quick.Check(func(ids []uint8) bool {
		rels := map[string]int{"a": 2, "b": 1, "c": 1}
		hits := make([]Hit, 0, len(ids))
		for _, id := range ids {
			hits = append(hits, Hit{ID: string(rune('a' + id%6))})
		}
		nd, err := NDCGAt(hits, rels, 10)
		return err == nil && nd >= 0 && nd <= 1+1e-12
	}, nil); err != nil {
		t.Error(err)
	}
}

func buildPipeline(t *testing.T) (*Pipeline, *Corpus) {
	t.Helper()
	c, err := GenerateCorpus(20, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(c, 11)
	if err != nil {
		t.Fatal(err)
	}
	return p, c
}

func TestPipelineQuality(t *testing.T) {
	p, c := buildPipeline(t)
	for _, m := range []Method{MethodBM25, MethodBM25Reranked, MethodSBERT} {
		nd, stats, err := p.Evaluate(c, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		// BM25 and reranked BM25 must retrieve on-topic documents well on
		// this synthetic benchmark; dense retrieval with an untrained
		// encoder only needs to be valid, not good.
		if m != MethodSBERT && nd < 0.5 {
			t.Errorf("%v nDCG@10 = %.3f, want ≥ 0.5", m, nd)
		}
		if nd < 0 || nd > 1 {
			t.Errorf("%v nDCG@10 = %.3f out of range", m, nd)
		}
		switch m {
		case MethodBM25:
			if stats.PostingsScanned == 0 {
				t.Error("BM25 scanned nothing")
			}
		case MethodBM25Reranked:
			if stats.DocsReranked == 0 {
				t.Error("reranker scored nothing")
			}
		case MethodSBERT:
			if stats.DenseCompared == 0 {
				t.Error("dense retrieval compared nothing")
			}
		}
	}
	if _, _, err := p.Run(Method(99), "q", 5); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestDenseRetrieverBasics(t *testing.T) {
	p, _ := buildPipeline(t)
	hits, err := p.Dense.Search("encryption enclave attestation", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 5 {
		t.Fatalf("dense hits = %d", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Error("dense hits not sorted")
		}
	}
	if _, err := p.Dense.Search("q", 0); err == nil {
		t.Error("k=0 accepted")
	}
	if p.Dense.EmbeddingDim() <= 0 {
		t.Error("bad embedding dim")
	}
	if _, err := NewDenseRetriever(NewStore(), 16, 1); err == nil {
		t.Error("empty store accepted")
	}
}

func TestFig14TimingShape(t *testing.T) {
	p, c := buildPipeline(t)
	platforms := []tee.Platform{tee.Baremetal(), tee.VM(tee.VMFullHuge), tee.TDX()}
	times := make(map[string]map[Method]float64)
	for _, plat := range platforms {
		times[plat.Name] = make(map[Method]float64)
		for _, m := range []Method{MethodBM25, MethodBM25Reranked, MethodSBERT} {
			tm := Timing{CPU: hw.EMR2(), Platform: plat, Cores: 32, Seed: 3}
			mean, nd, err := tm.MeanQueryTime(p, c, m)
			if err != nil {
				t.Fatal(err)
			}
			if mean <= 0 || nd < 0 {
				t.Fatalf("%s/%v: mean %g ndcg %g", plat.Name, m, mean, nd)
			}
			times[plat.Name][m] = mean
		}
	}
	// Absolute scale (Fig 14): reranked ≫ BM25 > sbert; reranked in the
	// seconds range, BM25 and sbert in single-digit milliseconds.
	bm := times["baremetal"]
	if !(bm[MethodBM25Reranked] > 50*bm[MethodBM25] && bm[MethodBM25] > bm[MethodSBERT]) {
		t.Errorf("cost ordering wrong: %v", bm)
	}
	if bm[MethodBM25Reranked] < 0.3 || bm[MethodBM25Reranked] > 10 {
		t.Errorf("reranked mean %.3fs, want ~1-2s", bm[MethodBM25Reranked])
	}
	if bm[MethodBM25] < 1e-3 || bm[MethodBM25] > 0.05 {
		t.Errorf("BM25 mean %.4fs, want ~8ms", bm[MethodBM25])
	}
	// Overheads (Fig 14): TDX ≈ 6-7.3%, VM ≈ 2.8-3.7%, and VM < TDX.
	for _, m := range []Method{MethodBM25, MethodBM25Reranked, MethodSBERT} {
		vmOv := (times["VM-FH"][m] - times["baremetal"][m]) / times["baremetal"][m] * 100
		tdxOv := (times["TDX"][m] - times["baremetal"][m]) / times["baremetal"][m] * 100
		if vmOv < 0.5 || vmOv > 6 {
			t.Errorf("%v VM overhead %.2f%%, want ~3%%", m, vmOv)
		}
		if tdxOv < 3 || tdxOv > 11 {
			t.Errorf("%v TDX overhead %.2f%%, want ~6-7%%", m, tdxOv)
		}
		if tdxOv <= vmOv {
			t.Errorf("%v TDX (%.2f%%) not above VM (%.2f%%)", m, tdxOv, vmOv)
		}
	}
}

func TestTimingUnknownMethod(t *testing.T) {
	tm := Timing{CPU: hw.EMR2(), Platform: tee.Baremetal(), Cores: 8}
	if _, err := tm.QueryTime(Method(42), QueryStats{}); err == nil {
		t.Error("unknown method accepted")
	}
}
