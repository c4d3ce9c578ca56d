package testbed

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ce"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func trainedFLAT(t *testing.T, d *dataset.Dataset, seed int64) *flatModel {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sample := engine.SampleJoin(d, 800, rng)
	m := newFLAT(defaultFLATConfig())
	if err := m.Fit(&ce.TrainInput{Dataset: d, Sample: sample}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFLATGroupsCorrelatedColumnsJointly(t *testing.T) {
	// Columns a and b perfectly coupled, c independent: FLAT must place
	// a,b together and c apart.
	n := 2000
	rng := rand.New(rand.NewSource(1))
	a := make([]int64, n)
	b := make([]int64, n)
	c := make([]int64, n)
	for i := 0; i < n; i++ {
		v := int64(1 + rng.Intn(5))
		a[i], b[i] = v, v
		c[i] = int64(1 + rng.Intn(5))
	}
	d := &dataset.Dataset{Name: "g", Tables: []*dataset.Table{{
		Name: "t", PKCol: -1,
		Cols: []*dataset.Column{
			dataset.NewColumn("a", a), dataset.NewColumn("b", b), dataset.NewColumn("c", c),
		},
	}}}
	m := trainedFLAT(t, d, 2)
	if m.NumGroups() != 2 {
		t.Fatalf("FLAT built %d groups, want 2 (joint {a,b} and {c})", m.NumGroups())
	}
	// The joint group must capture the coupling: P(a=1, b=2) ~ 0.
	q := &workload.Query{Query: engine.Query{
		Tables: []int{0},
		Preds: []engine.Predicate{
			{Table: 0, Col: 0, Lo: 1, Hi: 1},
			{Table: 0, Col: 1, Lo: 2, Hi: 2},
		},
	}}
	est := m.Estimate(q)
	if est > float64(n)/50 {
		t.Fatalf("coupled-contradiction estimate %g too high for joint modeling", est)
	}
	agree := &workload.Query{Query: engine.Query{
		Tables: []int{0},
		Preds: []engine.Predicate{
			{Table: 0, Col: 0, Lo: 1, Hi: 1},
			{Table: 0, Col: 1, Lo: 1, Hi: 1},
		},
	}}
	if got := m.Estimate(agree); got < float64(n)/10 {
		t.Fatalf("coupled-agreement estimate %g too low", got)
	}
}

func TestFLATAccuracyOnSyntheticData(t *testing.T) {
	p := datagen.DefaultParams(3)
	p.MinRows, p.MaxRows = 300, 500
	d, err := datagen.Generate("f", p)
	if err != nil {
		t.Fatal(err)
	}
	m := trainedFLAT(t, d, 4)
	qs := workload.Generate(d, workload.DefaultConfig(80, 5))
	ests := make([]float64, len(qs))
	truths := make([]float64, len(qs))
	blind := make([]float64, len(qs))
	for i, q := range qs {
		ests[i] = m.Estimate(q)
		truths[i] = float64(q.TrueCard)
		blind[i] = 1
		if ests[i] < 1 || math.IsNaN(ests[i]) {
			t.Fatalf("estimate %g", ests[i])
		}
	}
	qe := metrics.MeanQError(ests, truths)
	bq := metrics.MeanQError(blind, truths)
	if qe >= bq {
		t.Fatalf("FLAT Q-error %g no better than blind %g", qe, bq)
	}
	if qe > 50 {
		t.Fatalf("FLAT Q-error %g implausible", qe)
	}
}

func TestFLATMonotoneInRangeWidth(t *testing.T) {
	p := datagen.DefaultParams(6)
	p.MinRows, p.MaxRows = 300, 400
	d, _ := datagen.Generate("f", p)
	m := trainedFLAT(t, d, 7)
	lo, hi := d.Tables[0].Col(0).MinMax()
	prev := 0.0
	for w := int64(0); lo+w <= hi; w += 4 {
		q := &workload.Query{Query: engine.Query{
			Tables: []int{0},
			Preds:  []engine.Predicate{{Table: 0, Col: 0, Lo: lo, Hi: lo + w}},
		}}
		est := m.Estimate(q)
		if est < prev-1e-6 {
			t.Fatalf("estimate decreased when widening range: %g -> %g", prev, est)
		}
		prev = est
	}
}

// TestFLATFitAndEstimateDeterministic is the regression for the two detpath
// findings autoce-vet raised here: group assembly iterated a map (so
// m.groups' order — and with it Estimate's float-product order — varied
// run to run), and prob accumulated histogram counts in map iteration
// order (so a single model could return last-ulp-different estimates for
// the same query on consecutive calls). Both must now be bit-stable.
func TestFLATFitAndEstimateDeterministic(t *testing.T) {
	p := datagen.DefaultParams(11)
	p.MinRows, p.MaxRows = 300, 400
	d, err := datagen.Generate("f", p)
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.Generate(d, workload.DefaultConfig(60, 12))

	// Map iteration order is randomized per range statement, so one
	// agreeing attempt proves nothing — repeat enough times that the old
	// code would essentially always diverge somewhere.
	ref := trainedFLAT(t, d, 13)
	refEsts := make([]float64, len(qs))
	for i, q := range qs {
		refEsts[i] = ref.Estimate(q)
	}
	for attempt := 0; attempt < 20; attempt++ {
		m := trainedFLAT(t, d, 13)
		if got, want := len(m.groups), len(ref.groups); got != want {
			t.Fatalf("attempt %d: %d groups, want %d", attempt, got, want)
		}
		for gi, g := range m.groups {
			if len(g.cols) != len(ref.groups[gi].cols) || g.cols[0] != ref.groups[gi].cols[0] {
				t.Fatalf("attempt %d: group %d is %v, want %v", attempt, gi, g.cols, ref.groups[gi].cols)
			}
		}
		for i, q := range qs {
			if got := m.Estimate(q); got != refEsts[i] {
				t.Fatalf("attempt %d: refit estimate %v != %v (bits must match)", attempt, got, refEsts[i])
			}
			// Same model, same query, repeated call: bit-identical.
			if again := ref.Estimate(q); again != refEsts[i] {
				t.Fatalf("attempt %d: repeated estimate %v != %v on one model", attempt, again, refEsts[i])
			}
		}
	}
}

func TestFLATDegenerateSample(t *testing.T) {
	p := datagen.DefaultParams(8)
	p.MinRows, p.MaxRows = 100, 150
	d, _ := datagen.Generate("f", p)
	m := newFLAT(defaultFLATConfig())
	if err := m.Fit(&ce.TrainInput{Dataset: d, Sample: &engine.JoinSample{}}); err != nil {
		t.Fatal(err)
	}
	q := &workload.Query{Query: engine.Query{Tables: []int{0}}}
	if got := m.Estimate(q); got != 1 {
		t.Fatalf("degenerate estimate %g", got)
	}
}
