package advisor

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/testbed"
)

func labeledCorpus(t *testing.T, n int, seed int64) ([]*TrainSample, []*dataset.Dataset) {
	t.Helper()
	cfg := feature.DefaultConfig()
	rng := rand.New(rand.NewSource(seed))
	var samples []*TrainSample
	var ds []*dataset.Dataset
	for i := 0; i < n; i++ {
		p := datagen.DefaultParams(rng.Int63())
		p.MinRows, p.MaxRows = 60, 120
		p.Tables = 1 + rng.Intn(3)
		d, err := datagen.Generate("a", p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := feature.Extract(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sa := make([]float64, testbed.NumCandidates)
		se := make([]float64, testbed.NumCandidates)
		// Structured synthetic labels: model 0 wins accuracy on single
		// tables, model 3 on multi tables; model 1 always wins efficiency.
		for m := range sa {
			sa[m] = rng.Float64() * 0.4
			se[m] = rng.Float64() * 0.4
		}
		if d.NumTables() == 1 {
			sa[0] = 1
		} else {
			sa[3] = 1
		}
		se[1] = 1
		samples = append(samples, &TrainSample{Graph: g, Sa: sa, Se: se, Tables: d.NumTables()})
		ds = append(ds, d)
	}
	return samples, ds
}

func TestRuleSelector(t *testing.T) {
	_, ds := labeledCorpus(t, 10, 1)
	cfg := feature.DefaultConfig()
	rule := NewRule(2)
	dataDriven := map[int]bool{
		testbed.ModelIndex("DeepDB"): true, testbed.ModelIndex("BayesCard"): true, testbed.ModelIndex("NeuroCard"): true,
	}
	queryDriven := map[int]bool{
		testbed.ModelIndex("MSCN"): true, testbed.ModelIndex("LW-NN"): true, testbed.ModelIndex("LW-XGB"): true,
	}
	for _, d := range ds {
		g, _ := feature.Extract(d, cfg)
		pick := rule.Select(Target{Dataset: d, Graph: g}, 0.9)
		if d.NumTables() == 1 && !dataDriven[pick] {
			t.Fatalf("single-table pick %s not data-driven", testbed.ModelNames[pick])
		}
		if d.NumTables() > 1 && !queryDriven[pick] {
			t.Fatalf("multi-table pick %s not query-driven", testbed.ModelNames[pick])
		}
	}
}

func TestRawKNNSelector(t *testing.T) {
	samples, ds := labeledCorpus(t, 24, 3)
	knn := NewRawKNN(samples, 1)
	cfg := feature.DefaultConfig()
	// k=1 on a training graph finds itself -> its own accuracy winner at
	// wa=1.
	correct := 0
	for i, d := range ds {
		g, _ := feature.Extract(d, cfg)
		pick := knn.Select(Target{Dataset: d, Graph: g}, 1.0)
		want := 0
		if d.NumTables() > 1 {
			want = 3
		}
		if pick == want {
			correct++
		}
		_ = i
	}
	if correct != len(ds) {
		t.Fatalf("raw-KNN self-selection %d/%d", correct, len(ds))
	}
}

func TestGINHeadClassifierLearnsSeparableLabels(t *testing.T) {
	samples, ds := labeledCorpus(t, 40, 4)
	cfg := DefaultGINHeadConfig(feature.DefaultConfig().VertexDim())
	cfg.Epochs = 20
	cfg.WeightGrid = []float64{1.0}
	head, err := TrainGINHead(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	featCfg := feature.DefaultConfig()
	correct := 0
	for _, d := range ds {
		g, _ := feature.Extract(d, featCfg)
		pick := head.Select(Target{Dataset: d, Graph: g}, 1.0)
		want := 0
		if d.NumTables() > 1 {
			want = 3
		}
		if pick == want {
			correct++
		}
	}
	// Table count is directly encoded in the feature graph, so the
	// classifier should recover most labels.
	if correct < len(ds)*7/10 {
		t.Fatalf("GIN head training accuracy %d/%d", correct, len(ds))
	}
}

func TestGINHeadMSEVariant(t *testing.T) {
	samples, _ := labeledCorpus(t, 16, 5)
	cfg := DefaultGINHeadConfig(feature.DefaultConfig().VertexDim())
	cfg.Epochs = 4
	cfg.Loss = HeadMSE
	head, err := TrainGINHead(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if head.Name() != "WithoutDML" {
		t.Fatalf("MSE head name %q", head.Name())
	}
	pick := head.Select(Target{Graph: samples[0].Graph}, 0.9)
	if pick < 0 || pick >= testbed.NumCandidates {
		t.Fatalf("pick %d out of range", pick)
	}
}

func TestSampleDatasetPreservesJoins(t *testing.T) {
	p := datagen.DefaultParams(7)
	p.Tables = 3
	p.MinRows, p.MaxRows = 200, 300
	d, err := datagen.Generate("s", p)
	if err != nil {
		t.Fatal(err)
	}
	sampled := SampleDataset(d, 0.3, 9)
	if err := sampled.Validate(); err != nil {
		t.Fatal(err)
	}
	if sampled.NumTables() != d.NumTables() {
		t.Fatal("sampling changed the schema")
	}
	// The sampled full join must be non-empty (FK integrity preserved).
	rng := rand.New(rand.NewSource(10))
	js, err := engine.SampleJoin(sampled, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if js.FullJoinSize == 0 {
		t.Fatal("sampled dataset has an empty full join")
	}
	// Rows were actually reduced.
	for ti, tbl := range sampled.Tables {
		if tbl.Rows() >= d.Tables[ti].Rows() {
			t.Fatalf("table %d not reduced: %d rows", ti, tbl.Rows())
		}
	}
}

func TestSamplingSelectorRuns(t *testing.T) {
	_, ds := labeledCorpus(t, 1, 11)
	cfg := testbed.DefaultConfig(11)
	cfg.NumQueries = 40
	cfg.SampleRows = 200
	cfg.Fast = true
	s := NewSampling(0.5, cfg)
	g, _ := feature.Extract(ds[0], feature.DefaultConfig())
	pick := s.Select(Target{Dataset: ds[0], Graph: g}, 0.9)
	if pick < 0 || pick >= testbed.NumCandidates {
		t.Fatalf("sampling pick %d", pick)
	}
	if s.Name() != "Sampling" {
		t.Fatal("name")
	}
}

func TestLearningAllPicksLabelOptimum(t *testing.T) {
	_, ds := labeledCorpus(t, 1, 12)
	cfg := testbed.DefaultConfig(12)
	cfg.NumQueries = 40
	cfg.SampleRows = 200
	cfg.Fast = true
	la := NewLearningAll(cfg)
	g, _ := feature.Extract(ds[0], feature.DefaultConfig())
	pick := la.Select(Target{Dataset: ds[0], Graph: g}, 1.0)
	label, err := testbed.LabelOnly(ds[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pick != label.BestModel(1.0) {
		t.Fatalf("learning-all pick %d, label best %d", pick, label.BestModel(1.0))
	}
}

// TestOnlineSelectorsMatchFullRegistry: the online baselines label the
// candidate set only, and pick what a full-registry run with the same
// seed labels best. At wa=1 the pick depends on Sa alone, which is
// deterministic.
func TestOnlineSelectorsMatchFullRegistry(t *testing.T) {
	_, ds := labeledCorpus(t, 3, 13)
	for i, d := range ds {
		cfg := testbed.DefaultConfig(20 + int64(i))
		cfg.NumQueries = 40
		cfg.SampleRows = 200
		cfg.Fast = true
		g, err := feature.Extract(d, feature.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		target := Target{Dataset: d, Graph: g}
		for _, c := range []struct {
			sel Selector
			d   *dataset.Dataset
		}{
			{NewSampling(0.5, cfg), SampleDataset(d, 0.5, cfg.Seed)},
			{NewLearningAll(cfg), d},
		} {
			label, err := testbed.LabelOnly(c.d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := c.sel.Select(target, 1), label.BestModel(1); got != want {
				t.Errorf("dataset %d: %s picks %d, a full-registry run labels %d best", i, c.sel.Name(), got, want)
			}
		}
	}
}
