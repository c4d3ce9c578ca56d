package feature

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// benchTable builds the acceptance-benchmark table: ncols columns ×
// rows rows in this repository's data model (package dataset: bounded
// integer domains, one sequential primary key). Column 0 is the PK;
// the rest draw from bounded domains of varying width and skew, the
// regime datagen produces and user CSVs are binned into.
func benchTable(name string, ncols, rows int, seed int64) *dataset.Table {
	domains := []int64{0, 40, 120, 120, 300, 1000, 64, 5000, 250, 30}
	rng := rand.New(rand.NewSource(seed))
	cols := make([]*dataset.Column, ncols)
	for c := 0; c < ncols; c++ {
		data := make([]int64, rows)
		switch {
		case c == 0: // sequential primary key
			for r := range data {
				data[r] = int64(r + 1)
			}
		case c%3 == 1: // skewed (mass near 1, zipf-ish via squaring)
			dom := float64(domains[c%len(domains)])
			for r := range data {
				x := rng.Float64()
				data[r] = 1 + int64(x*x*dom)
			}
		default: // uniform over the domain
			dom := domains[c%len(domains)]
			for r := range data {
				data[r] = 1 + rng.Int63n(dom)
			}
		}
		cols[c] = dataset.NewColumn(colName(c), data)
	}
	t := dataset.NewTable(name, cols...)
	t.PKCol = 0
	return t
}

// benchWideTable mixes in row-count-sized value domains — adversarial
// for this system's bounded-domain model, but what an unbinned user CSV
// could look like. It exercises the generic (non-histogram) kernel path.
func benchWideTable(name string, ncols, rows int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	cols := make([]*dataset.Column, ncols)
	for c := 0; c < ncols; c++ {
		data := make([]int64, rows)
		switch c % 4 {
		case 0: // key-like: all distinct
			for r := range data {
				data[r] = int64(r + 1)
			}
		case 1: // narrow uniform domain
			for r := range data {
				data[r] = int64(1 + rng.Intn(64))
			}
		default: // wide domain, ~row-count many values
			for r := range data {
				data[r] = int64(1 + rng.Intn(rows))
			}
		}
		cols[c] = dataset.NewColumn(colName(c), data)
	}
	t := dataset.NewTable(name, cols...)
	t.PKCol = 0
	return t
}

func colName(c int) string { return string(rune('a' + c)) }

// benchDataset joins two benchTables with one FK edge so Extract also
// exercises the join-correlation path.
func benchDataset(rows int, seed int64) *dataset.Dataset {
	t1 := benchTable("t1", 8, rows, seed)
	t2 := benchTable("t2", 8, rows/2, seed+1)
	// Make t2.b a plausible FK into t1's PK.
	fk := t2.Col(1)
	rng := rand.New(rand.NewSource(seed + 2))
	for r := range fk.Data {
		fk.Data[r] = int64(1 + rng.Intn(rows))
	}
	return &dataset.Dataset{
		Name:   "bench",
		Tables: []*dataset.Table{t1, t2},
		FKs:    []dataset.ForeignKey{{FromTable: 1, FromCol: 1, ToTable: 0, ToCol: 0}},
	}
}

// BenchmarkFeatureExtract is the acceptance benchmark: one 8-column,
// 100k-row table through the full cold vertex-feature path (moments, the
// m×m equal-fraction block, domain sizes), stats cache invalidated every
// iteration.
func BenchmarkFeatureExtract(b *testing.B) {
	d := &dataset.Dataset{Name: "bench", Tables: []*dataset.Table{benchTable("t", 8, 100_000, 1)}}
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dataset.InvalidateStats(d)
		b.StartTimer()
		if _, err := Extract(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatureExtractSeedNaive is the pinned "before": the seed
// implementation of Extract (per-feature passes, map-based distinct
// counts, m² EqualFraction passes, per-FK JoinCorrelation maps),
// preserved here verbatim so the before/after ratio stays measurable in
// every future checkout.
func BenchmarkFeatureExtractSeedNaive(b *testing.B) {
	d := &dataset.Dataset{Name: "bench", Tables: []*dataset.Table{benchTable("t", 8, 100_000, 1)}}
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seedNaiveExtract(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatureExtractCached measures the steady-state serving path:
// repeated extraction of an already-summarized dataset (drift checks,
// re-recommendation), which reads every statistic from the shared cache.
func BenchmarkFeatureExtractCached(b *testing.B) {
	d := &dataset.Dataset{Name: "bench", Tables: []*dataset.Table{benchTable("t", 8, 100_000, 1)}}
	cfg := DefaultConfig()
	if _, err := Extract(d, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	dataset.InvalidateStats(d)
}

// BenchmarkFeatureExtractWide is the cold path on the adversarial
// wide-domain table (generic kernel, hash-set distinct counting).
func BenchmarkFeatureExtractWide(b *testing.B) {
	d := &dataset.Dataset{Name: "bench", Tables: []*dataset.Table{benchWideTable("t", 8, 100_000, 1)}}
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dataset.InvalidateStats(d)
		b.StartTimer()
		if _, err := Extract(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatureExtractJoin adds a second table and an FK edge, so the
// per-dataset distinct-set reuse and join-correlation derivation are on
// the measured path too.
func BenchmarkFeatureExtractJoin(b *testing.B) {
	d := benchDataset(100_000, 1)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dataset.InvalidateStats(d)
		b.StartTimer()
		if _, err := Extract(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatureExtractBatch fans 8 smaller datasets over the worker
// pool (corpus-building shape); on a 1-CPU box it matches serial
// throughput, with more cores it scales.
func BenchmarkFeatureExtractBatch(b *testing.B) {
	ds := make([]*dataset.Dataset, 8)
	for i := range ds {
		ds[i] = benchDataset(20_000, int64(i))
	}
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, d := range ds {
			dataset.InvalidateStats(d)
		}
		b.StartTimer()
		if _, err := ExtractBatch(ds, cfg, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// The seed implementation, kept verbatim as the benchmark baseline.

func seedNaiveExtract(d *dataset.Dataset, cfg Config) (*Graph, error) {
	m := cfg.MaxCols
	g := &Graph{Name: d.Name}
	for _, t := range d.Tables {
		g.V = append(g.V, seedNaiveVertexFeatures(t, m))
	}
	n := len(d.Tables)
	g.E = make([][]float64, n)
	for i := range g.E {
		g.E[i] = make([]float64, n)
	}
	for _, fk := range d.FKs {
		corr := seedNaiveJoinCorrelation(
			d.Tables[fk.FromTable].Col(fk.FromCol),
			d.Tables[fk.ToTable].Col(fk.ToCol))
		g.E[fk.ToTable][fk.FromTable] = corr
		g.E[fk.FromTable][fk.ToTable] = corr
	}
	return g, nil
}

func seedNaiveVertexFeatures(t *dataset.Table, m int) []float64 {
	ncols := t.NumCols()
	if ncols > m {
		ncols = m
	}
	v := make([]float64, (K+m)*m+2)
	for c := 0; c < ncols; c++ {
		st := seedNaiveColumnStats(t.Col(c))
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
	return v
}

func seedNaiveColumnStats(c *dataset.Column) dataset.ColStats {
	n := len(c.Data)
	if n == 0 {
		return dataset.ColStats{}
	}
	var sum float64
	lo, hi := c.Data[0], c.Data[0]
	seen := make(map[int64]struct{}, n)
	for _, v := range c.Data {
		sum += float64(v)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		seen[v] = struct{}{}
	}
	mean := sum / float64(n)
	var m2, m3, m4, mad float64
	for _, v := range c.Data {
		d := float64(v) - mean
		d2 := d * d
		m2 += d2
		m3 += d2 * d
		m4 += d2 * d2
		mad += math.Abs(d)
	}
	m2 /= float64(n)
	m3 /= float64(n)
	m4 /= float64(n)
	mad /= float64(n)
	st := dataset.ColStats{
		Count: n, Mean: mean, Std: math.Sqrt(m2), MeanDev: mad,
		Min: lo, Max: hi, Range: float64(hi - lo), DomainSize: len(seen),
	}
	if m2 > 0 {
		st.Skewness = m3 / math.Pow(m2, 1.5)
		st.Kurtosis = m4/(m2*m2) - 3
	}
	return st
}

func seedNaiveJoinCorrelation(fk, pk *dataset.Column) float64 {
	pkSet := make(map[int64]struct{}, len(pk.Data))
	for _, v := range pk.Data {
		pkSet[v] = struct{}{}
	}
	if len(pkSet) == 0 {
		return 0
	}
	fkSet := make(map[int64]struct{}, len(fk.Data))
	for _, v := range fk.Data {
		fkSet[v] = struct{}{}
	}
	inter := 0
	for v := range fkSet {
		if _, ok := pkSet[v]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(pkSet))
}
