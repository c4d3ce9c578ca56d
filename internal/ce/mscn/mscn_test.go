package mscn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ce"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/workload"
)

func TestTrainingImprovesOverInit(t *testing.T) {
	p := datagen.DefaultParams(1)
	p.Tables = 2
	p.MinRows, p.MaxRows = 250, 400
	d, err := datagen.Generate("m", p)
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.Generate(d, workload.DefaultConfig(120, 2))
	train, test := workload.Split(qs, 0.6, 3)

	eval := func(m *Model) float64 {
		ests := make([]float64, len(test))
		truths := make([]float64, len(test))
		for i, q := range test {
			ests[i] = m.Estimate(q)
			truths[i] = float64(q.TrueCard)
		}
		return metrics.MeanQError(ests, truths)
	}
	cfg := DefaultConfig()
	cfg.Epochs = 0
	untrained := New(cfg)
	if err := untrained.Fit(&ce.TrainInput{Dataset: d, Queries: train}); err != nil {
		t.Fatal(err)
	}
	cfg.Epochs = 12
	trained := New(cfg)
	if err := trained.Fit(&ce.TrainInput{Dataset: d, Queries: train}); err != nil {
		t.Fatal(err)
	}
	if eval(trained) >= eval(untrained) {
		t.Fatalf("training did not improve: %g -> %g", eval(untrained), eval(trained))
	}
}

func TestSetEncodingIgnoresPredicateOrder(t *testing.T) {
	p := datagen.DefaultParams(4)
	p.MinRows, p.MaxRows = 200, 300
	p.MinCols, p.MaxCols = 3, 4
	d, err := datagen.Generate("m", p)
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.Generate(d, workload.DefaultConfig(60, 5))
	train, _ := workload.Split(qs, 0.8, 6)
	cfg := DefaultConfig()
	cfg.Epochs = 4
	m := New(cfg)
	if err := m.Fit(&ce.TrainInput{Dataset: d, Queries: train}); err != nil {
		t.Fatal(err)
	}
	q := &workload.Query{Query: engine.Query{
		Tables: []int{0},
		Preds: []engine.Predicate{
			{Table: 0, Col: 0, Lo: 2, Hi: 9},
			{Table: 0, Col: 1, Lo: 1, Hi: 5},
		},
	}}
	rev := &workload.Query{Query: engine.Query{
		Tables: []int{0},
		Preds: []engine.Predicate{
			{Table: 0, Col: 1, Lo: 1, Hi: 5},
			{Table: 0, Col: 0, Lo: 2, Hi: 9},
		},
	}}
	a, b := m.Estimate(q), m.Estimate(rev)
	if math.Abs(a-b) > 1e-9*math.Max(a, b) {
		t.Fatalf("predicate order changed the estimate: %g vs %g", a, b)
	}
}

func TestEmptyWorkloadRejected(t *testing.T) {
	p := datagen.DefaultParams(7)
	p.MinRows, p.MaxRows = 100, 150
	d, _ := datagen.Generate("m", p)
	m := New(DefaultConfig())
	if err := m.Fit(&ce.TrainInput{Dataset: d, Queries: nil}); err == nil {
		t.Fatal("empty workload accepted")
	}
}

// TestDecodeRejectsMisShapedNetworks: every set and output MLP must chain
// from the width the encoder feeds it, or decoding fails instead of the
// first Estimate panicking.
func TestDecodeRejectsMisShapedNetworks(t *testing.T) {
	p := datagen.DefaultParams(9)
	p.Tables = 2
	p.MinRows, p.MaxRows = 100, 150
	d, _ := datagen.Generate("m", p)
	qs := workload.Generate(d, workload.DefaultConfig(30, 10))
	cfg := DefaultConfig()
	cfg.Epochs = 1
	m := New(cfg)
	if err := m.Fit(&ce.TrainInput{Dataset: d, Queries: qs}); err != nil {
		t.Fatal(err)
	}
	spoil := map[string]func(m *Model){
		"table MLP input": func(m *Model) { m.tDim++ },
		"pred MLP output": func(m *Model) {
			h := m.predMLP.Layers[1].W.C
			m.predMLP.Layers[1] = nn.NewDense(rand.New(rand.NewSource(1)), h, h+1, nn.ActReLU)
		},
		"output MLP layers": func(m *Model) { m.outMLP.Layers[1], m.outMLP.Layers[0] = m.outMLP.Layers[0], m.outMLP.Layers[1] },
	}
	for name, f := range spoil {
		blob, err := m.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var c Model
		if err := c.GobDecode(blob); err != nil {
			t.Fatalf("well-shaped model rejected: %v", err)
		}
		f(&c)
		if blob, err = c.GobEncode(); err != nil {
			t.Fatal(err)
		}
		if err := new(Model).GobDecode(blob); err == nil {
			t.Errorf("%s: mis-shaped model decoded", name)
		}
	}
}
