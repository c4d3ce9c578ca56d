package pglike

import (
	"math"
	"repro/internal/ce"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func TestHistogramSelectivityBounds(t *testing.T) {
	data := make([]int64, 1000)
	for i := range data {
		data[i] = int64(i%100 + 1)
	}
	h := NewHistogram(data, 16)
	if got := h.Selectivity(1, 100); math.Abs(got-1) > 0.01 {
		t.Fatalf("full-range selectivity %g", got)
	}
	if got := h.Selectivity(1, 50); math.Abs(got-0.5) > 0.05 {
		t.Fatalf("half-range selectivity %g", got)
	}
	if got := h.Selectivity(200, 300); got != 0 {
		t.Fatalf("out-of-range selectivity %g", got)
	}
	if got := h.Selectivity(50, 10); got != 0 {
		t.Fatalf("inverted-range selectivity %g", got)
	}
	if h.NDV != 100 {
		t.Fatalf("NDV %d", h.NDV)
	}
}

func TestHistogramMonotoneInRange(t *testing.T) {
	data := make([]int64, 500)
	for i := range data {
		data[i] = int64((i*i)%77 + 1)
	}
	h := NewHistogram(data, 8)
	prev := 0.0
	for hi := int64(1); hi <= 77; hi += 5 {
		got := h.Selectivity(1, hi)
		if got < prev-1e-9 {
			t.Fatalf("selectivity decreased when widening range: %g -> %g", prev, got)
		}
		prev = got
	}
}

func TestEstimateSingleTable(t *testing.T) {
	p := datagen.DefaultParams(1)
	p.MinRows, p.MaxRows = 400, 600
	d, err := datagen.Generate("pg", p)
	if err != nil {
		t.Fatal(err)
	}
	m := New()
	if err := m.Fit(&ce.TrainInput{Dataset: d, Sample: nil}); err != nil {
		t.Fatal(err)
	}
	qs := workload.Generate(d, workload.DefaultConfig(50, 2))
	ests := make([]float64, len(qs))
	truths := make([]float64, len(qs))
	for i, q := range qs {
		ests[i] = m.Estimate(q)
		truths[i] = float64(q.TrueCard)
		if ests[i] < 1 {
			t.Fatal("estimate below 1")
		}
	}
	// Histogram + independence should be decent on random single tables.
	if qe := metrics.MeanQError(ests, truths); qe > 20 {
		t.Fatalf("mean Q-error %g too high for single-table histograms", qe)
	}
}

func TestEstimateJoinFormula(t *testing.T) {
	// Two tables joined PK-FK with full correlation: |R join S| = |R|
	// (every FK row matches exactly one PK row). The formula
	// |R|*|S|/max(ndv) should be exact here.
	pk := make([]int64, 100)
	fk := make([]int64, 500)
	for i := range pk {
		pk[i] = int64(i + 1)
	}
	for i := range fk {
		fk[i] = int64(i%100 + 1)
	}
	d := &dataset.Dataset{
		Name: "j",
		Tables: []*dataset.Table{
			{Name: "dim", Cols: []*dataset.Column{dataset.NewColumn("id", pk)}, PKCol: 0},
			{Name: "fact", Cols: []*dataset.Column{dataset.NewColumn("fk", fk)}, PKCol: -1},
		},
		FKs: []dataset.ForeignKey{{FromTable: 1, FromCol: 0, ToTable: 0, ToCol: 0}},
	}
	m := New()
	if err := m.Fit(&ce.TrainInput{Dataset: d, Sample: nil}); err != nil {
		t.Fatal(err)
	}
	q := &workload.Query{Query: engine.Query{
		Tables: []int{0, 1},
		Joins:  []engine.Join{{LeftTable: 1, LeftCol: 0, RightTable: 0, RightCol: 0}},
	}}
	got := m.Estimate(q)
	if math.Abs(got-500) > 1 {
		t.Fatalf("join estimate %g, want 500", got)
	}
	if truth := engine.Cardinality(d, &q.Query); truth != 500 {
		t.Fatalf("true join size %d, want 500", truth)
	}
}

// TestColumnsWithoutHistogramConstrainNothing: a query naming a table or
// column the model holds no statistics for (a model decoded for another
// dataset) still gets a finite estimate, that column adding no factor.
func TestColumnsWithoutHistogramConstrainNothing(t *testing.T) {
	m := &Model{rows: []int64{100}, hists: [][]*Histogram{{NewHistogram([]int64{1, 2, 3, 4}, 4)}}}
	q := &workload.Query{Query: engine.Query{
		Tables: []int{0, 3},
		Preds:  []engine.Predicate{{Table: 0, Col: 7, Lo: 1, Hi: 2}, {Table: 3, Col: 0, Lo: 1, Hi: 2}},
		Joins:  []engine.Join{{LeftTable: 0, LeftCol: 0, RightTable: 3, RightCol: 1}},
	}}
	if got := m.Estimate(q); got != 25 {
		t.Fatalf("estimate %v, want 100 rows / NDV 4 = 25", got)
	}
}
