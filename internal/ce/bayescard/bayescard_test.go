package bayescard

import (
	"bytes"
	"encoding/gob"
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
	p.MinCols, p.MaxCols = 3, 4
	d, err := datagen.Generate("bn", p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTreeStructure(t *testing.T) {
	d := singleTable(t, 1)
	m := trained(t, d, 2)
	k := len(m.parent)
	roots := 0
	for c := 0; c < k; c++ {
		if m.parent[c] == -1 {
			roots++
		} else if m.parent[c] < 0 || m.parent[c] >= k {
			t.Fatalf("column %d has invalid parent %d", c, m.parent[c])
		}
	}
	if roots != 1 {
		t.Fatalf("Chow-Liu tree has %d roots", roots)
	}
	// The parent pointers must be acyclic (k-1 edges reaching the root).
	for c := 0; c < k; c++ {
		seen := map[int]bool{}
		for v := c; v != -1; v = m.parent[v] {
			if seen[v] {
				t.Fatalf("cycle through column %d", c)
			}
			seen[v] = true
		}
	}
}

func TestCPTsAreDistributions(t *testing.T) {
	d := singleTable(t, 3)
	m := trained(t, d, 4)
	for c := range m.parent {
		nb := m.binner.NumBins(c)
		if m.parent[c] == -1 {
			var sum float64
			for _, p := range m.prior[c] {
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("root prior sums to %g", sum)
			}
			continue
		}
		np := m.binner.NumBins(m.parent[c])
		for pb := 0; pb < np; pb++ {
			var sum float64
			for b := 0; b < nb; b++ {
				sum += m.cpt[c][pb*nb+b]
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("CPT row (col %d, parent bin %d) sums to %g", c, pb, sum)
			}
		}
	}
}

// scratchOf returns an estimate's scratch holding the column → bin range
// evidence.
func scratchOf(ranges map[int][2]int) *bpScratch {
	sc := new(bpScratch)
	for c, r := range ranges {
		sc.Ranges.Set(c, r)
	}
	return sc
}

func TestEvidenceProbNoEvidenceIsOne(t *testing.T) {
	d := singleTable(t, 5)
	m := trained(t, d, 6)
	if p := m.evidenceProb(scratchOf(nil)); math.Abs(p-1) > 1e-9 {
		t.Fatalf("P(no evidence) = %g", p)
	}
}

func TestEvidenceProbMatchesEmpirical(t *testing.T) {
	d := singleTable(t, 7)
	m := trained(t, d, 8)
	col := d.Tables[0].Col(0)
	lo, _ := col.MinMax()
	// Evidence: column 0 equals its minimum value's bin.
	bin := m.binner.Bin(0, lo)
	p := m.evidenceProb(scratchOf(map[int][2]int{0: {bin, bin}}))
	empirical := 0
	for _, v := range col.Data {
		if m.binner.Bin(0, v) == bin {
			empirical++
		}
	}
	frac := float64(empirical) / float64(col.Len())
	if math.Abs(p-frac) > 0.1 {
		t.Fatalf("P(evidence) = %g, empirical %g", p, frac)
	}
}

func TestExactInferenceOnIndependentColumns(t *testing.T) {
	// Construct a table with two independent binary-ish columns; tree
	// inference must factorize: P(A,B) ≈ P(A)·P(B).
	rng := rand.New(rand.NewSource(9))
	n := 3000
	a := make([]int64, n)
	b := make([]int64, n)
	for i := 0; i < n; i++ {
		a[i] = int64(1 + rng.Intn(2))
		b[i] = int64(1 + rng.Intn(2))
	}
	d := &dataset.Dataset{Name: "ind", Tables: []*dataset.Table{{
		Name:  "t",
		Cols:  []*dataset.Column{dataset.NewColumn("a", a), dataset.NewColumn("b", b)},
		PKCol: -1,
	}}}
	m := trained(t, d, 10)
	binA := m.binner.Bin(0, 1)
	binB := m.binner.Bin(1, 1)
	pa := m.evidenceProb(scratchOf(map[int][2]int{0: {binA, binA}}))
	pb := m.evidenceProb(scratchOf(map[int][2]int{1: {binB, binB}}))
	pab := m.evidenceProb(scratchOf(map[int][2]int{0: {binA, binA}, 1: {binB, binB}}))
	if math.Abs(pab-pa*pb) > 0.03 {
		t.Fatalf("P(A,B)=%g but P(A)P(B)=%g on independent data", pab, pa*pb)
	}
}

func TestCapturesPerfectDependence(t *testing.T) {
	// B == A: P(A=1, B=2) must be near zero, P(A=1, B=1) near P(A=1).
	n := 3000
	rng := rand.New(rand.NewSource(11))
	a := make([]int64, n)
	b := make([]int64, n)
	for i := 0; i < n; i++ {
		v := int64(1 + rng.Intn(2))
		a[i], b[i] = v, v
	}
	d := &dataset.Dataset{Name: "dep", Tables: []*dataset.Table{{
		Name:  "t",
		Cols:  []*dataset.Column{dataset.NewColumn("a", a), dataset.NewColumn("b", b)},
		PKCol: -1,
	}}}
	m := trained(t, d, 12)
	binA1 := m.binner.Bin(0, 1)
	binB1 := m.binner.Bin(1, 1)
	binB2 := m.binner.Bin(1, 2)
	agree := m.evidenceProb(scratchOf(map[int][2]int{0: {binA1, binA1}, 1: {binB1, binB1}}))
	conflict := m.evidenceProb(scratchOf(map[int][2]int{0: {binA1, binA1}, 1: {binB2, binB2}}))
	if conflict > 0.05 {
		t.Fatalf("P(A=1,B=2) = %g on perfectly coupled data", conflict)
	}
	if agree < 0.35 {
		t.Fatalf("P(A=1,B=1) = %g, want ~0.5", agree)
	}
}

func TestEstimateJoinQuery(t *testing.T) {
	p := datagen.DefaultParams(13)
	p.Tables = 3
	p.MinRows, p.MaxRows = 200, 350
	d, err := datagen.Generate("bnj", p)
	if err != nil {
		t.Fatal(err)
	}
	m := trained(t, d, 14)
	qs := workload.Generate(d, workload.DefaultConfig(30, 15))
	for _, q := range qs {
		est := m.Estimate(q)
		if est < 1 || math.IsNaN(est) || math.IsInf(est, 0) {
			t.Fatalf("estimate %g", est)
		}
	}
}

// TestGobDecodeRejectsBrokenTree: a decoded network must be one tree over
// the binned columns; children that loop back, repeat or disagree with
// the parents, or tables of the wrong size are rejected rather than
// recursed into.
func TestGobDecodeRejectsBrokenTree(t *testing.T) {
	m := trained(t, singleTable(t, 3), 4)
	if len(m.parent) < 2 {
		t.Fatalf("need a tree with an edge, got parents %v", m.parent)
	}
	child := m.children[m.root][0]
	clone := func() modelState {
		var st modelState
		data, err := m.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	for name, mutate := range map[string]func(st *modelState){
		"cycle":         func(st *modelState) { st.Children[child] = append(st.Children[child], st.Root) },
		"repeated":      func(st *modelState) { st.Children[st.Root] = append(st.Children[st.Root], child) },
		"wrong parent":  func(st *modelState) { st.Parent[child] = -1 },
		"unreached":     func(st *modelState) { st.Children[st.Root] = nil },
		"root parent":   func(st *modelState) { st.Parent[st.Root] = child },
		"short table":   func(st *modelState) { st.CPT[child] = st.CPT[child][1:] },
		"missing sizes": func(st *modelState) { st.Sizes = nil },
	} {
		st := clone()
		mutate(&st)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
			t.Fatal(err)
		}
		if err := new(Model).GobDecode(buf.Bytes()); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	data, _ := m.GobEncode()
	if err := new(Model).GobDecode(data); err != nil {
		t.Fatalf("the trained model: %v", err)
	}
}
