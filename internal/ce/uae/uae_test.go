package uae

import (
	"math"
	"math/rand"
	"repro/internal/ce"
	"repro/internal/ce/neurocard"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func TestQueryCorrectionImprovesOverPureAR(t *testing.T) {
	p := datagen.DefaultParams(1)
	p.Tables = 2
	p.MinRows, p.MaxRows = 250, 400
	d, err := datagen.Generate("u", p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	sample, err := engine.SampleJoin(d, 600, rng)
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.Generate(d, workload.DefaultConfig(150, 3))
	train, test := workload.Split(qs, 0.6, 4)

	cfg := DefaultConfig()
	cfg.Epochs = 3
	cfg.CorrEpochs = 12
	m := New(cfg)
	if err := m.Fit(&ce.TrainInput{Dataset: d, Sample: sample, Queries: train}); err != nil {
		t.Fatal(err)
	}
	evalWith := func(est func(*workload.Query) float64) float64 {
		ests := make([]float64, len(test))
		truths := make([]float64, len(test))
		for i, q := range test {
			ests[i] = est(q)
			truths[i] = float64(q.TrueCard)
		}
		return metrics.MeanQError(ests, truths)
	}
	corrected := evalWith(m.Estimate)
	pure := evalWith(m.arEstimate)
	// The hybrid should not be dramatically worse than the pure AR model
	// and usually improves it (the defining property of UAE).
	if corrected > pure*1.5 {
		t.Fatalf("query correction hurt badly: AR %g -> UAE %g", pure, corrected)
	}
}

func TestHybridWithoutQueriesDegradesToDataDriven(t *testing.T) {
	p := datagen.DefaultParams(5)
	p.MinRows, p.MaxRows = 200, 300
	d, _ := datagen.Generate("u", p)
	rng := rand.New(rand.NewSource(6))
	sample, err := engine.SampleJoin(d, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig())
	if err := m.Fit(&ce.TrainInput{Dataset: d, Sample: sample, Queries: nil}); err != nil {
		t.Fatal(err)
	}
	q := &workload.Query{Query: engine.Query{
		Tables: []int{0},
		Preds:  []engine.Predicate{{Table: 0, Col: 0, Lo: 1, Hi: 50}},
	}}
	est := m.Estimate(q)
	if est < 1 || math.IsNaN(est) {
		t.Fatalf("estimate %g", est)
	}
	if est != m.arEstimate(q) {
		t.Fatal("without queries, UAE must equal its AR component")
	}
}

func TestDegenerateSample(t *testing.T) {
	p := datagen.DefaultParams(7)
	p.MinRows, p.MaxRows = 100, 150
	d, _ := datagen.Generate("u", p)
	m := New(DefaultConfig())
	if err := m.Fit(&ce.TrainInput{Dataset: d, Sample: &engine.JoinSample{}, Queries: nil}); err != nil {
		t.Fatal(err)
	}
	q := &workload.Query{Query: engine.Query{Tables: []int{0}}}
	if got := m.Estimate(q); got != 1 {
		t.Fatalf("degenerate estimate %g", got)
	}
}

// TestGobDecodeRejectsSampleCounts: a persisted model must sample between
// 1 and neurocard.MaxSamples paths; with 0 every estimate would be 0/0.
func TestGobDecodeRejectsSampleCounts(t *testing.T) {
	for _, n := range []int{-1, 0, neurocard.MaxSamples + 1} {
		m := New(DefaultConfig())
		m.cfg.Samples, m.degenerate = n, true
		data, err := m.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if err := new(Model).GobDecode(data); err == nil {
			t.Errorf("Samples = %d decoded without error", n)
		}
	}
}
