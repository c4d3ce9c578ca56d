package lwnn

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/ce"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/workload"
)

func TestTrainingImproves(t *testing.T) {
	p := datagen.DefaultParams(1)
	p.MinRows, p.MaxRows = 250, 400
	d, err := datagen.Generate("l", p)
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
	cfg.Epochs = 20
	trained := New(cfg)
	if err := trained.Fit(&ce.TrainInput{Dataset: d, Queries: train}); err != nil {
		t.Fatal(err)
	}
	if eval(trained) >= eval(untrained) {
		t.Fatalf("training did not improve: %g -> %g", eval(untrained), eval(trained))
	}
}

func TestInferenceIsFast(t *testing.T) {
	// LW-NN's defining property: single tiny forward pass. Guard against
	// regressions that would destroy the latency ordering the paper's
	// efficiency experiments rely on.
	p := datagen.DefaultParams(4)
	p.MinRows, p.MaxRows = 200, 300
	d, _ := datagen.Generate("l", p)
	qs := workload.Generate(d, workload.DefaultConfig(80, 5))
	cfg := DefaultConfig()
	cfg.Epochs = 3
	m := New(cfg)
	if err := m.Fit(&ce.TrainInput{Dataset: d, Queries: qs}); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	const n = 500
	for i := 0; i < n; i++ {
		m.Estimate(qs[i%len(qs)])
	}
	perEst := time.Since(t0) / n
	if perEst > time.Millisecond {
		t.Fatalf("LW-NN inference %v per estimate; expected microseconds", perEst)
	}
}

func TestEmptyWorkloadRejected(t *testing.T) {
	p := datagen.DefaultParams(6)
	p.MinRows, p.MaxRows = 100, 150
	d, _ := datagen.Generate("l", p)
	if err := New(DefaultConfig()).Fit(&ce.TrainInput{Dataset: d, Queries: nil}); err == nil {
		t.Fatal("empty workload accepted")
	}
}

// transposeFirstLayer swaps the first layer's weight matrix into its
// transpose: each tensor stays well formed, but the layers stop chaining.
func transposeFirstLayer(m *Model) {
	w := m.net.Layers[0].W
	t := nn.Zeros(w.C, w.R)
	for i := 0; i < w.R; i++ {
		for j := 0; j < w.C; j++ {
			t.V[j*w.R+i] = w.V[i*w.C+j]
		}
	}
	m.net.Layers[0].W = t
}

// TestLoadRejectsMisShapedNetwork: an artifact whose MLP layers do not
// chain must fail LoadModel, not load and panic on the first Estimate.
func TestLoadRejectsMisShapedNetwork(t *testing.T) {
	p := datagen.DefaultParams(8)
	p.MinRows, p.MaxRows = 100, 150
	d, _ := datagen.Generate("l", p)
	qs := workload.Generate(d, workload.DefaultConfig(40, 9))
	cfg := DefaultConfig()
	cfg.Epochs = 1
	m := New(cfg)
	if err := m.Fit(&ce.TrainInput{Dataset: d, Queries: qs}); err != nil {
		t.Fatal(err)
	}
	var good bytes.Buffer
	if err := ce.SaveModel(&good, m); err != nil {
		t.Fatal(err)
	}
	if _, err := ce.LoadModel(&good); err != nil {
		t.Fatalf("well-shaped artifact rejected: %v", err)
	}

	transposeFirstLayer(m)
	var bad bytes.Buffer
	if err := ce.SaveModel(&bad, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := ce.LoadModel(&bad)
	if err == nil || loaded != nil {
		t.Fatalf("LoadModel accepted a transposed first layer (model %v, error %v)", loaded, err)
	}
	if !strings.HasPrefix(err.Error(), "ce: decoding LW-NN: ") {
		t.Fatalf("error %q does not name the decoded model", err)
	}
}
