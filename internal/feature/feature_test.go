package feature

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

func TestExtractShapes(t *testing.T) {
	cfg := DefaultConfig()
	for _, tables := range []int{1, 4} {
		p := datagen.DefaultParams(int64(tables))
		p.Tables = tables
		p.MinRows, p.MaxRows = 60, 120
		d, err := datagen.Generate("f", p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Extract(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumVertices() != tables {
			t.Fatalf("graph has %d vertices, want %d", g.NumVertices(), tables)
		}
		for _, row := range g.V {
			if len(row) != cfg.VertexDim() {
				t.Fatalf("vertex dim %d, want %d", len(row), cfg.VertexDim())
			}
		}
		if len(g.E) != tables {
			t.Fatalf("edge matrix has %d rows", len(g.E))
		}
	}
}

func TestVertexDimFormula(t *testing.T) {
	cfg := Config{MaxCols: 4}
	// Paper's Example 3 geometry with k=6, m=4: (6+4)*4+2 = 42.
	if got := cfg.VertexDim(); got != 42 {
		t.Fatalf("VertexDim = %d, want 42", got)
	}
}

func TestEdgeWeightsAreJoinCorrelations(t *testing.T) {
	p := datagen.DefaultParams(5)
	p.Tables = 3
	p.MinRows, p.MaxRows = 80, 150
	d, err := datagen.Generate("f", p)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Extract(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, fk := range d.FKs {
		w := g.E[fk.ToTable][fk.FromTable]
		if w <= 0 || w > 1 {
			t.Fatalf("edge weight %g outside (0,1]", w)
		}
		if g.E[fk.FromTable][fk.ToTable] != w {
			t.Fatal("edge matrix not symmetric")
		}
		want := dataset.JoinCorrelation(d.Tables[fk.FromTable].Col(fk.FromCol), d.Tables[fk.ToTable].Col(fk.ToCol))
		if math.Abs(w-want) > 1e-9 {
			t.Fatalf("edge weight %g differs from measured correlation %g", w, want)
		}
	}
	// Non-joined pairs stay zero.
	joined := map[[2]int]bool{}
	for _, fk := range d.FKs {
		joined[[2]int{fk.ToTable, fk.FromTable}] = true
		joined[[2]int{fk.FromTable, fk.ToTable}] = true
	}
	for i := range g.E {
		for j := range g.E[i] {
			if i != j && !joined[[2]int{i, j}] && g.E[i][j] != 0 {
				t.Fatalf("unexpected edge weight at %d,%d", i, j)
			}
		}
	}
}

func TestFeatureValuesBounded(t *testing.T) {
	p := datagen.DefaultParams(6)
	p.Tables = 2
	p.MinRows, p.MaxRows = 60, 120
	d, _ := datagen.Generate("f", p)
	g, _ := Extract(d, DefaultConfig())
	for vi, row := range g.V {
		for fi, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("vertex %d feature %d is %g", vi, fi, x)
			}
			if x < -1.5 || x > 1.5 {
				t.Fatalf("vertex %d feature %d = %g outside normalized range", vi, fi, x)
			}
		}
	}
}

func TestPaddingZeroesMissingColumns(t *testing.T) {
	p := datagen.DefaultParams(7)
	p.MinCols, p.MaxCols = 2, 2
	p.MinRows, p.MaxRows = 50, 60
	d, _ := datagen.Generate("f", p)
	cfg := Config{MaxCols: 6}
	g, _ := Extract(d, cfg)
	row := g.V[0]
	// Columns 2..5 have no features: their k-feature blocks are zero.
	for c := 2; c < 6; c++ {
		for f := 0; f < K; f++ {
			if row[c*K+f] != 0 {
				t.Fatalf("padded column %d feature %d non-zero", c, f)
			}
		}
	}
	// Correlation entries involving padded columns are zero.
	corrBase := K * 6
	for a := 0; a < 6; a++ {
		for b := 0; b < 6; b++ {
			if (a >= 2 || b >= 2) && row[corrBase+a*6+b] != 0 {
				t.Fatalf("padded correlation (%d,%d) non-zero", a, b)
			}
		}
	}
}

func TestCorrelationDiagonalIsOne(t *testing.T) {
	p := datagen.DefaultParams(8)
	p.MinRows, p.MaxRows = 50, 60
	d, _ := datagen.Generate("f", p)
	cfg := DefaultConfig()
	g, _ := Extract(d, cfg)
	ncols := d.Tables[0].NumCols()
	corrBase := K * cfg.MaxCols
	for c := 0; c < ncols && c < cfg.MaxCols; c++ {
		if g.V[0][corrBase+c*cfg.MaxCols+c] != 1 {
			t.Fatalf("diagonal correlation of column %d is %g", c, g.V[0][corrBase+c*cfg.MaxCols+c])
		}
	}
}

func TestMixupConvexity(t *testing.T) {
	p := datagen.DefaultParams(9)
	p.Tables = 2
	p.MinRows, p.MaxRows = 50, 80
	d1, _ := datagen.Generate("a", p)
	p.Seed = 10
	p.Tables = 3
	d2, _ := datagen.Generate("b", p)
	cfg := DefaultConfig()
	g1, _ := Extract(d1, cfg)
	g2, _ := Extract(d2, cfg)

	lambda := 0.3
	mixed := Mixup(g1, g2, lambda)
	if mixed.NumVertices() != 3 {
		t.Fatalf("mixed graph has %d vertices, want max(2,3)=3", mixed.NumVertices())
	}
	// Vertex 0 is the convex combination.
	for f := range mixed.V[0] {
		want := lambda*g1.V[0][f] + (1-lambda)*g2.V[0][f]
		if math.Abs(mixed.V[0][f]-want) > 1e-12 {
			t.Fatalf("mixed vertex feature %d = %g, want %g", f, mixed.V[0][f], want)
		}
	}
	// Vertex 2 only exists in g2: it is (1-λ)·g2.
	for f := range mixed.V[2] {
		want := (1 - lambda) * g2.V[2][f]
		if math.Abs(mixed.V[2][f]-want) > 1e-12 {
			t.Fatalf("padded mixed vertex feature %d = %g, want %g", f, mixed.V[2][f], want)
		}
	}
}

func TestMixupLambdaClamped(t *testing.T) {
	p := datagen.DefaultParams(11)
	p.MinRows, p.MaxRows = 40, 60
	d, _ := datagen.Generate("a", p)
	g, _ := Extract(d, DefaultConfig())
	m := Mixup(g, g, 5)
	for i := range m.V {
		for f := range m.V[i] {
			if math.Abs(m.V[i][f]-g.V[i][f]) > 1e-12 {
				t.Fatal("λ>1 should clamp to 1 (identity on gi)")
			}
		}
	}
}

func TestMixupLabelsProperty(t *testing.T) {
	f := func(rawL uint8, a, b float64) bool {
		l := float64(rawL) / 255
		got := MixupLabels([]float64{a}, []float64{b}, l)
		want := l*a + (1-l)*b
		return math.Abs(got[0]-want) < 1e-9 || (math.IsNaN(a) || math.IsNaN(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := datagen.DefaultParams(12)
	p.MinRows, p.MaxRows = 40, 60
	d, _ := datagen.Generate("a", p)
	g, _ := Extract(d, DefaultConfig())
	c := g.Clone()
	c.V[0][0] = 999
	if g.V[0][0] == 999 {
		t.Fatal("Clone shares vertex storage")
	}
}

// naiveExtract rebuilds the feature graph from the per-call naive
// statistics API (ColumnStats, EqualFraction, JoinCorrelation) — the
// pre-fusion implementation shape. Extract must match it exactly: the
// kernels are shared, so any divergence is a fusion bug (wrong pair
// indexing, stale codes, misrouted distinct sets).
func naiveExtract(d *dataset.Dataset, cfg Config) *Graph {
	m := cfg.MaxCols
	g := &Graph{Name: d.Name}
	for _, t := range d.Tables {
		ncols := t.NumCols()
		if ncols > m {
			ncols = m
		}
		v := make([]float64, (K+m)*m+2)
		for c := 0; c < ncols; c++ {
			st := dataset.ColumnStats(t.Col(c))
			base := c * K
			v[base+0] = math.Tanh(st.Skewness / 4)
			v[base+1] = math.Tanh(st.Kurtosis / 10)
			v[base+2] = math.Log1p(st.Std) / 10
			v[base+3] = math.Log1p(st.MeanDev) / 10
			v[base+4] = math.Log1p(st.Range) / 12
			v[base+5] = math.Log1p(float64(st.DomainSize)) / 12
		}
		corrBase := K * m
		for a := 0; a < ncols; a++ {
			for b := 0; b < ncols; b++ {
				var corr float64
				if a == b {
					corr = 1
				} else {
					corr = dataset.EqualFraction(t.Col(a), t.Col(b))
				}
				v[corrBase+a*m+b] = corr
			}
		}
		v[(K+m)*m] = math.Log1p(float64(t.Rows())) / 14
		v[(K+m)*m+1] = float64(t.NumCols()) / float64(m)
		g.V = append(g.V, v)
	}
	n := len(d.Tables)
	g.E = make([][]float64, n)
	for i := range g.E {
		g.E[i] = make([]float64, n)
	}
	for _, fk := range d.FKs {
		corr := dataset.JoinCorrelation(
			d.Tables[fk.FromTable].Col(fk.FromCol),
			d.Tables[fk.ToTable].Col(fk.ToCol))
		g.E[fk.ToTable][fk.FromTable] = corr
		g.E[fk.FromTable][fk.ToTable] = corr
	}
	return g
}

func graphsIdentical(t *testing.T, got, want *Graph, label string) {
	t.Helper()
	if len(got.V) != len(want.V) || len(got.E) != len(want.E) {
		t.Fatalf("%s: shape mismatch", label)
	}
	for i := range want.V {
		for f := range want.V[i] {
			if got.V[i][f] != want.V[i][f] {
				t.Fatalf("%s: vertex %d feature %d: %g != %g", label, i, f, got.V[i][f], want.V[i][f])
			}
		}
	}
	for i := range want.E {
		for j := range want.E[i] {
			if got.E[i][j] != want.E[i][j] {
				t.Fatalf("%s: edge (%d,%d): %g != %g", label, i, j, got.E[i][j], want.E[i][j])
			}
		}
	}
}

// TestExtractMatchesNaiveReference pins the fused extraction path
// bit-for-bit against the per-call naive statistics API over random
// datagen datasets.
func TestExtractMatchesNaiveReference(t *testing.T) {
	cfg := DefaultConfig()
	for seed := int64(0); seed < 8; seed++ {
		p := datagen.DefaultParams(seed)
		p.Tables = 1 + int(seed%4)
		p.MinRows, p.MaxRows = 50, 300
		d, err := datagen.Generate("diff", p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Extract(d, cfg)
		dataset.InvalidateStats(d)
		if err != nil {
			t.Fatal(err)
		}
		graphsIdentical(t, got, naiveExtract(d, cfg), "extract")
	}
}

// TestExtractBatchMatchesSerial: the pooled batch path must be
// byte-identical to per-dataset Extract, in order.
func TestExtractBatchMatchesSerial(t *testing.T) {
	cfg := DefaultConfig()
	var ds []*dataset.Dataset
	for seed := int64(20); seed < 26; seed++ {
		p := datagen.DefaultParams(seed)
		p.Tables = 1 + int(seed%3)
		p.MinRows, p.MaxRows = 40, 200
		d, err := datagen.Generate("batch", p)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	batch, err := ExtractBatch(ds, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(ds) {
		t.Fatalf("batch returned %d graphs for %d datasets", len(batch), len(ds))
	}
	for i, d := range ds {
		dataset.InvalidateStats(d)
		want, err := Extract(d, cfg)
		dataset.InvalidateStats(d)
		if err != nil {
			t.Fatal(err)
		}
		graphsIdentical(t, batch[i], want, d.Name)
	}
}

// TestExtractBatchConcurrent drives the pool from many goroutines at
// once (run under -race in CI) against shared cached datasets.
func TestExtractBatchConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	var ds []*dataset.Dataset
	for seed := int64(30); seed < 34; seed++ {
		p := datagen.DefaultParams(seed)
		p.MinRows, p.MaxRows = 40, 150
		d, err := datagen.Generate("conc", p)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	defer func() {
		for _, d := range ds {
			dataset.InvalidateStats(d)
		}
	}()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = ExtractBatch(ds, cfg, 3)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
