package deepdb

import (
	"math"
	"math/rand"
	"repro/internal/ce"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/workload"
)

func trained(t *testing.T, d *dataset.Dataset, seed int64) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sample := engine.SampleJoin(d, 800, rng)
	m := New(DefaultConfig())
	if err := m.Fit(&ce.TrainInput{Dataset: d, Sample: sample}); err != nil {
		t.Fatal(err)
	}
	return m
}

func singleTable(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	p := datagen.DefaultParams(seed)
	p.MinRows, p.MaxRows = 400, 600
	d, err := datagen.Generate("spn", p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// rangeOf returns the bin ranges that query column c over [lo, hi].
func rangeOf(c, lo, hi int) *ce.BinRanges {
	var br ce.BinRanges
	br.Set(c, [2]int{lo, hi})
	return &br
}

func TestSPNProbabilityIsNormalized(t *testing.T) {
	d := singleTable(t, 1)
	m := trained(t, d, 2)
	// No constraints: probability of everything is ~1 (sum nodes are
	// convex combinations, product of ones, leaves sum to 1).
	p := m.root.prob(new(ce.BinRanges))
	if math.Abs(p-1) > 1e-6 {
		t.Fatalf("unconstrained SPN probability %g", p)
	}
}

func TestSPNProbabilityBounds(t *testing.T) {
	d := singleTable(t, 3)
	m := trained(t, d, 4)
	for j := range m.binner.Edges {
		for lo := 0; lo < m.binner.NumBins(j); lo += 2 {
			p := m.root.prob(rangeOf(j, lo, lo+1))
			if p < 0 || p > 1+1e-9 {
				t.Fatalf("SPN probability %g outside [0,1]", p)
			}
		}
	}
}

func TestSPNMatchesEmpiricalMarginal(t *testing.T) {
	// On a single column, the SPN marginal should track the data.
	d := singleTable(t, 5)
	m := trained(t, d, 6)
	col := d.Tables[0].Col(0)
	lo, hi := col.MinMax()
	mid := (lo + hi) / 2
	empirical := 0
	for _, v := range col.Data {
		if v >= lo && v <= mid {
			empirical++
		}
	}
	frac := float64(empirical) / float64(col.Len())

	q := &workload.Query{Query: engine.Query{
		Tables: []int{0},
		Preds:  []engine.Predicate{{Table: 0, Col: 0, Lo: lo, Hi: mid}},
	}}
	est := m.Estimate(q) / float64(col.Len())
	if math.Abs(est-frac) > 0.15 {
		t.Fatalf("SPN marginal %g, empirical %g", est, frac)
	}
}

func TestSPNBuildsSumAndProductNodes(t *testing.T) {
	// A dataset with both correlated and independent columns should yield
	// a non-trivial SPN (not a single product of leaves).
	d := singleTable(t, 7)
	m := trained(t, d, 8)
	var sums, products, leaves int
	var walk func(n node)
	walk = func(n node) {
		switch v := n.(type) {
		case *sum:
			sums++
			for _, c := range v.children {
				walk(c)
			}
		case *product:
			products++
			for _, c := range v.children {
				walk(c)
			}
		case *leaf:
			leaves++
		}
	}
	walk(m.root)
	if leaves == 0 || products == 0 {
		t.Fatalf("degenerate SPN: %d sums, %d products, %d leaves", sums, products, leaves)
	}
}

func TestDegenerateSampleFallsBack(t *testing.T) {
	d := singleTable(t, 9)
	m := New(DefaultConfig())
	if err := m.Fit(&ce.TrainInput{Dataset: d, Sample: &engine.JoinSample{}}); err != nil {
		t.Fatal(err)
	}
	q := &workload.Query{Query: engine.Query{Tables: []int{0}}}
	if got := m.Estimate(q); got != 1 {
		t.Fatalf("degenerate estimate %g, want 1", got)
	}
}

func TestMutualInformationDetectsDependence(t *testing.T) {
	n := 2000
	rows := make([][]int, n)
	rng := rand.New(rand.NewSource(10))
	for i := range rows {
		a := rng.Intn(4)
		rows[i] = []int{a, a, rng.Intn(4)} // col1 == col0, col2 independent
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	dep := mutualInformation(rows, idx, 0, 1, 4, 4)
	indep := mutualInformation(rows, idx, 0, 2, 4, 4)
	if dep <= indep {
		t.Fatalf("MI(dependent)=%g <= MI(independent)=%g", dep, indep)
	}
	if indep > 0.05 {
		t.Fatalf("independent-pair MI %g too high", indep)
	}
}

func TestKMeansSplitsClusters(t *testing.T) {
	// Two well-separated clusters must be recovered.
	rows := make([][]int, 100)
	for i := range rows {
		if i < 50 {
			rows[i] = []int{0, 1}
		} else {
			rows[i] = []int{9, 8}
		}
	}
	idx := make([]int, 100)
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(11))
	left, right := kmeans2(rows, idx, []int{0, 1}, rng)
	if len(left) == 0 || len(right) == 0 {
		t.Fatal("kmeans produced an empty cluster on separable data")
	}
	if len(left)+len(right) != 100 {
		t.Fatal("kmeans lost rows")
	}
	// Each cluster should be pure.
	pure := func(ids []int) bool {
		first := rows[ids[0]][0]
		for _, r := range ids {
			if rows[r][0] != first {
				return false
			}
		}
		return true
	}
	if !pure(left) || !pure(right) {
		t.Fatal("kmeans clusters are mixed on trivially separable data")
	}
}

// TestBuildSPNRejectsSharedChildren: evaluation walks the SPN as a tree,
// so a node adopted by two parents (or twice by one) would be evaluated
// once per path to it, exponentially often in a chain.
func TestBuildSPNRejectsSharedChildren(t *testing.T) {
	leaf := spnNode{Kind: 0, Col: 0, Dist: []float64{1}}
	if _, err := buildSPN([]spnNode{leaf, {Kind: 1, Children: []int{0, 0}}}); err == nil {
		t.Error("a child adopted twice by one parent was accepted")
	}
	if _, err := buildSPN([]spnNode{leaf, {Kind: 1, Children: []int{0}}, {Kind: 2, Children: []int{0, 1}, Weights: []float64{0.5, 0.5}}}); err == nil {
		t.Error("a child shared by two parents was accepted")
	}
	if _, err := buildSPN([]spnNode{leaf, leaf, {Kind: 1, Children: []int{0, 1}}}); err != nil {
		t.Errorf("a tree: %v", err)
	}
}
