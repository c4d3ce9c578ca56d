package ce_test

// Shared integration tests over the whole model zoo: every estimator is
// trained on the same fixtures and must satisfy the same basic contract
// (finite positive estimates, reasonable accuracy on easy data, better
// accuracy than a blind constant guess).

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ce"
	"repro/internal/ce/bayescard"
	"repro/internal/ce/deepdb"
	"repro/internal/ce/ensemble"
	"repro/internal/ce/lwnn"
	"repro/internal/ce/lwxgb"
	"repro/internal/ce/mscn"
	"repro/internal/ce/neurocard"
	"repro/internal/ce/pglike"
	"repro/internal/ce/uae"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/workload"
)

type fixture struct {
	d      *dataset.Dataset
	sample *engine.JoinSample
	train  []*workload.Query
	test   []*workload.Query
}

func makeFixture(t *testing.T, tables int, seed int64) *fixture {
	t.Helper()
	p := datagen.Params{
		Tables:  tables,
		MinCols: 2, MaxCols: 3,
		MinRows: 250, MaxRows: 400,
		Domain: 30,
		SkewLo: 0, SkewHi: 0.8,
		CorrLo: 0, CorrHi: 0.5,
		JoinLo: 0.5, JoinHi: 1,
		Seed: seed,
	}
	d, err := datagen.Generate("zoo", p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	qs := workload.Generate(d, workload.DefaultConfig(120, seed+2))
	train, test := workload.Split(qs, 0.6, seed+3)
	sample, err := engine.SampleJoin(d, 600, rng)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		d:      d,
		sample: sample,
		train:  train,
		test:   test,
	}
}

func asEstimators(models []ce.Model) []ce.Estimator {
	out := make([]ce.Estimator, len(models))
	for i, m := range models {
		out[i] = m
	}
	return out
}

func trainModel(t *testing.T, m ce.Model, f *fixture) {
	t.Helper()
	in := &ce.TrainInput{Dataset: f.d, Sample: f.sample, Queries: f.train}
	if err := m.Fit(in); err != nil {
		t.Fatalf("training %s: %v", m.Name(), err)
	}
}

func evalModel(m ce.Estimator, qs []*workload.Query) float64 {
	ests := make([]float64, len(qs))
	truths := make([]float64, len(qs))
	for i, q := range qs {
		ests[i] = m.Estimate(q)
		truths[i] = float64(q.TrueCard)
	}
	return metrics.MeanQError(ests, truths)
}

func blindQError(qs []*workload.Query) float64 {
	ests := make([]float64, len(qs))
	truths := make([]float64, len(qs))
	for i, q := range qs {
		ests[i] = 1
		truths[i] = float64(q.TrueCard)
	}
	return metrics.MeanQError(ests, truths)
}

func zoo(seed int64) []ce.Model {
	mc := mscn.DefaultConfig()
	mc.Epochs = 10
	lc := lwnn.DefaultConfig()
	lc.Epochs = 12
	nc := neurocard.DefaultConfig()
	nc.Epochs = 3
	uc := uae.DefaultConfig()
	uc.Epochs = 3
	uc.CorrEpochs = 8
	return []ce.Model{
		mscn.New(mc),
		lwnn.New(lc),
		lwxgb.New(lwxgb.DefaultConfig()),
		deepdb.New(deepdb.DefaultConfig()),
		bayescard.New(bayescard.DefaultConfig()),
		neurocard.New(nc),
		uae.New(uc),
		pglike.New(),
	}
}

func TestZooContractSingleTable(t *testing.T) {
	f := makeFixture(t, 1, 100)
	blind := blindQError(f.test)
	for _, m := range zoo(100) {
		trainModel(t, m, f)
		for _, q := range f.test {
			est := m.Estimate(q)
			if est < 1 || math.IsNaN(est) || math.IsInf(est, 0) {
				t.Fatalf("%s produced estimate %g", m.Name(), est)
			}
		}
		qe := evalModel(m, f.test)
		if qe >= blind {
			t.Errorf("%s mean Q-error %.2f no better than blind guess %.2f", m.Name(), qe, blind)
		}
		if qe > 100 {
			t.Errorf("%s mean Q-error %.2f implausibly high on an easy table", m.Name(), qe)
		}
	}
}

func TestZooContractMultiTable(t *testing.T) {
	f := makeFixture(t, 3, 200)
	blind := blindQError(f.test)
	for _, m := range zoo(200) {
		trainModel(t, m, f)
		qe := evalModel(m, f.test)
		if math.IsNaN(qe) || math.IsInf(qe, 0) {
			t.Fatalf("%s mean Q-error %g", m.Name(), qe)
		}
		if qe >= blind*2 {
			t.Errorf("%s mean Q-error %.2f far worse than blind %.2f on joins", m.Name(), qe, blind)
		}
	}
}

func TestEnsembleBetweenMembers(t *testing.T) {
	f := makeFixture(t, 1, 300)
	members := zoo(300)[:4]
	for _, m := range members {
		trainModel(t, m, f)
	}
	ens := ensemble.New()
	calib := append([]*workload.Query(nil), f.train[:30]...)
	if err := ens.Fit(&ce.TrainInput{Members: asEstimators(members), Queries: calib}); err != nil {
		t.Fatal(err)
	}
	w := ens.Weights()
	var sum float64
	for _, x := range w {
		if x < 0 {
			t.Fatalf("negative ensemble weight %g", x)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ensemble weights sum to %g", sum)
	}
	// A weighted average lies between the member extremes.
	for _, q := range f.test[:20] {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, m := range members {
			e := m.Estimate(q)
			lo = math.Min(lo, e)
			hi = math.Max(hi, e)
		}
		e := ens.Estimate(q)
		if e < lo-1e-6 || e > hi+1e-6 {
			t.Fatalf("ensemble estimate %g outside member range [%g, %g]", e, lo, hi)
		}
	}
}

func TestEnsembleEqualWeightsWithoutCalibration(t *testing.T) {
	f := makeFixture(t, 1, 400)
	members := zoo(400)[:2]
	for _, m := range members {
		trainModel(t, m, f)
	}
	ens := ensemble.New()
	if err := ens.Fit(&ce.TrainInput{Members: asEstimators(members)}); err != nil {
		t.Fatal(err)
	}
	w := ens.Weights()
	if w[0] != w[1] {
		t.Fatalf("uncalibrated weights %v", w)
	}
}

func TestDataDrivenMonotoneInRangeWidth(t *testing.T) {
	// Widening a single predicate's range must not decrease the estimate
	// for the closed-form data-driven models (DeepDB, BayesCard).
	f := makeFixture(t, 1, 500)
	models := []ce.Model{deepdb.New(deepdb.DefaultConfig()), bayescard.New(bayescard.DefaultConfig())}
	for _, m := range models {
		trainModel(t, m, f)
	}
	lo, hi := f.d.Tables[0].Col(0).MinMax()
	for _, m := range models {
		prev := 0.0
		for width := int64(0); lo+width <= hi; width += 3 {
			q := &workload.Query{Query: engine.Query{
				Tables: []int{0},
				Preds:  []engine.Predicate{{Table: 0, Col: 0, Lo: lo, Hi: lo + width}},
			}}
			est := m.Estimate(q)
			if est < prev-1e-6 {
				t.Fatalf("%s estimate decreased when widening range: %g -> %g", m.Name(), prev, est)
			}
			prev = est
		}
	}
}

func TestUnfilteredQueryNearFullSize(t *testing.T) {
	// With a full-range predicate the data-driven estimates should be
	// near the table size (probability ~1 times the subset size).
	f := makeFixture(t, 1, 600)
	rows := float64(f.d.Tables[0].Rows())
	lo, hi := f.d.Tables[0].Col(0).MinMax()
	q := &workload.Query{Query: engine.Query{
		Tables: []int{0},
		Preds:  []engine.Predicate{{Table: 0, Col: 0, Lo: lo, Hi: hi}},
	}}
	for _, m := range []ce.Model{deepdb.New(deepdb.DefaultConfig()), bayescard.New(bayescard.DefaultConfig())} {
		trainModel(t, m, f)
		est := m.Estimate(q)
		if est < rows*0.8 || est > rows*1.2 {
			t.Fatalf("%s full-range estimate %g, table has %g rows", m.Name(), est, rows)
		}
	}
}
