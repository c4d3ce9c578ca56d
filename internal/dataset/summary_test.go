package dataset

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// randomTable generates tables across the regimes the kernels dispatch
// on: empty, single-row, constant columns, narrow and wide domains,
// negative values, sorted key-like columns, and huge-magnitude values
// that escape the histogram window.
func randomTable(rng *rand.Rand) *Table {
	ncols := 1 + rng.Intn(9)
	rows := 0
	switch rng.Intn(8) {
	case 0:
		rows = 0
	case 1:
		rows = 1
	default:
		rows = 1 + rng.Intn(400)
	}
	cols := make([]*Column, ncols)
	for c := 0; c < ncols; c++ {
		data := make([]int64, rows)
		switch rng.Intn(7) {
		case 0: // constant
			v := int64(rng.Intn(100) - 50)
			for r := range data {
				data[r] = v
			}
		case 1: // sorted key-like
			for r := range data {
				data[r] = int64(r + 1)
			}
		case 2: // narrow domain
			for r := range data {
				data[r] = int64(1 + rng.Intn(16))
			}
		case 3: // narrow domain, negative offset
			for r := range data {
				data[r] = int64(rng.Intn(50) - 1000)
			}
		case 4: // wide domain (escapes the histogram window)
			for r := range data {
				data[r] = rng.Int63n(1 << 40)
			}
		case 5: // wide domain incl. negatives
			for r := range data {
				data[r] = rng.Int63n(1<<30) - 1<<29
			}
		default: // moderate domain
			for r := range data {
				data[r] = int64(rng.Intn(3000))
			}
		}
		cols[c] = NewColumn(string(rune('a'+c)), data)
	}
	return NewTable("t", cols...)
}

// TestSummaryMatchesColumnStats pins the fused sweep bit-for-bit against
// the per-call kernel API (they share the statistics kernel, so any lane
// or dispatch divergence shows up here).
func TestSummaryMatchesColumnStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		tb := randomTable(rng)
		sum := NewSummary(tb)
		if sum.Rows != tb.Rows() || len(sum.Cols) != tb.NumCols() {
			t.Fatalf("trial %d: summary shape %d×%d", trial, sum.Rows, len(sum.Cols))
		}
		for c := 0; c < tb.NumCols(); c++ {
			want := ColumnStats(tb.Col(c))
			if got := sum.Cols[c]; got != want {
				t.Fatalf("trial %d col %d: fused %+v != naive %+v", trial, c, got, want)
			}
		}
	}
}

// seedColumnStats is the seed repository's ordered two-pass reference,
// kept verbatim: one float accumulator per statistic, map-based distinct
// count. The kernels reorder the arithmetic (lanes, histogram weighting),
// so float moments are compared within 1e-9 relative; everything
// integer-derived must match exactly.
func seedColumnStats(c *Column) ColStats {
	n := len(c.Data)
	if n == 0 {
		return ColStats{}
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
	st := ColStats{
		Count: n, Mean: mean, Std: math.Sqrt(m2), MeanDev: mad,
		Min: lo, Max: hi, Range: float64(hi - lo), DomainSize: len(seen),
	}
	if m2 > 0 {
		st.Skewness = m3 / math.Pow(m2, 1.5)
		st.Kurtosis = m4/(m2*m2) - 3
	}
	return st
}

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*math.Max(scale, 1)
}

// TestSummaryMatchesSeedReference pins the fused sweep against the
// seed's naive implementation: exact equality for every integer-derived
// statistic, 1e-9 relative agreement for the reordered float moments.
func TestSummaryMatchesSeedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		tb := randomTable(rng)
		sum := NewSummary(tb)
		for c := 0; c < tb.NumCols(); c++ {
			want := seedColumnStats(tb.Col(c))
			got := sum.Cols[c]
			if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max ||
				got.Range != want.Range || got.DomainSize != want.DomainSize {
				t.Fatalf("trial %d col %d: integer stats %+v != seed %+v", trial, c, got, want)
			}
			for _, p := range [][2]float64{
				{got.Mean, want.Mean}, {got.Std, want.Std}, {got.MeanDev, want.MeanDev},
				{got.Skewness, want.Skewness}, {got.Kurtosis, want.Kurtosis},
			} {
				if !relClose(p[0], p[1], 1e-9) {
					t.Fatalf("trial %d col %d: moment %g vs seed %g\nfused %+v\nseed  %+v",
						trial, c, p[0], p[1], got, want)
				}
			}
		}
	}
}

// TestSummaryEqualFracMatchesNaive pins the SWAR pair sweep bit-for-bit
// against the naive per-pair EqualFraction (integer count ratios, so
// exact equality is required).
func TestSummaryEqualFracMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		tb := randomTable(rng)
		sum := NewSummary(tb)
		for a := 0; a < tb.NumCols(); a++ {
			for b := 0; b < tb.NumCols(); b++ {
				want := EqualFraction(tb.Col(a), tb.Col(b))
				if a == b && tb.Rows() == 0 {
					want = 0
				}
				got := sum.EqualFrac(a, b)
				if a == b {
					// The summary defines the diagonal as 1 for
					// non-empty tables, 0 for empty ones, like the
					// naive function.
					if got != want && !(tb.Rows() > 0 && got == 1 && want == 1) {
						t.Fatalf("trial %d diag %d: %g != %g", trial, a, got, want)
					}
					continue
				}
				if got != want {
					t.Fatalf("trial %d pair (%d,%d): fused %g != naive %g", trial, a, b, got, want)
				}
			}
		}
	}
}

// equalCountAdversarial exercises the fingerprint-verification path with
// values crafted to collide in the low 16 bits (multiples of 1<<16).
func TestEqualCountFingerprintCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 1000
	a := make([]int64, n)
	b := make([]int64, n)
	for i := range a {
		// Same low 16 bits (zero), wildly different values: every row is
		// a fingerprint candidate, none or few are true matches.
		a[i] = rng.Int63n(1<<20) << 16
		b[i] = rng.Int63n(1<<20) << 16
	}
	tb := NewTable("t", NewColumn("a", a), NewColumn("b", b))
	sum := NewSummary(tb)
	want := EqualFraction(tb.Col(0), tb.Col(1))
	if got := sum.EqualFrac(0, 1); got != want {
		t.Fatalf("collision table: fused %g != naive %g", got, want)
	}
}

// TestStatsFKCorrelationsMatchNaive pins the shared-distinct-set join
// correlations bit-for-bit against the naive per-edge JoinCorrelation.
func TestStatsFKCorrelationsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		nt := 2 + rng.Intn(3)
		d := &Dataset{Name: "d"}
		for i := 0; i < nt; i++ {
			d.Tables = append(d.Tables, randomTable(rng))
		}
		// Random FK edges, including repeated endpoints so set reuse is
		// exercised.
		for e := 0; e < 1+rng.Intn(4); e++ {
			ft := rng.Intn(nt)
			tt := rng.Intn(nt)
			if d.Tables[ft].NumCols() == 0 || d.Tables[tt].NumCols() == 0 {
				continue
			}
			d.FKs = append(d.FKs, ForeignKey{
				FromTable: ft, FromCol: rng.Intn(d.Tables[ft].NumCols()),
				ToTable: tt, ToCol: rng.Intn(d.Tables[tt].NumCols()),
			})
		}
		got := StatsFor(d).FKCorrelations()
		InvalidateStats(d)
		for i, fk := range d.FKs {
			want := JoinCorrelation(
				d.Tables[fk.FromTable].Col(fk.FromCol),
				d.Tables[fk.ToTable].Col(fk.ToCol))
			if got[i] != want {
				t.Fatalf("trial %d fk %d: cached %g != naive %g", trial, i, got[i], want)
			}
		}
	}
}

// TestTotalDomainSizeMatchesNaive pins the cached aggregate against the
// naive per-column DistinctCount sum.
func TestTotalDomainSizeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		d := &Dataset{Name: "d", Tables: []*Table{randomTable(rng), randomTable(rng)}}
		want := 0
		for _, tb := range d.Tables {
			for _, c := range tb.Cols {
				want += c.DistinctCount()
			}
		}
		if got := d.TotalDomainSize(); got != want {
			t.Fatalf("trial %d: TotalDomainSize %d != naive %d", trial, got, want)
		}
		InvalidateStats(d)
	}
}

// TestStatsCacheInvalidation pins the in-place mutation contract of the
// statistics a dataset keeps for itself: a cached Stats must not survive
// InvalidateStats, and mutating data without invalidation is exactly the
// stale-read hazard the mutation paths guard against.
func TestStatsCacheInvalidation(t *testing.T) {
	tb := NewTable("t", NewColumn("a", []int64{1, 2, 3, 4}))
	d := &Dataset{Name: "d", Tables: []*Table{tb}}
	if got := d.TotalDomainSize(); got != 4 {
		t.Fatalf("initial TotalDomainSize = %d", got)
	}
	// In-place mutation: the cache intentionally serves stale data until
	// invalidated (same contract as engine.InvalidateIndex).
	tb.Col(0).Data = []int64{7, 7, 7, 7}
	if got := d.TotalDomainSize(); got != 4 {
		t.Fatalf("pre-invalidation TotalDomainSize = %d, want stale 4", got)
	}
	if StatsFor(d) != StatsFor(d) {
		t.Fatal("StatsFor not cached")
	}
	old := StatsFor(d)
	InvalidateStats(d)
	fresh := StatsFor(d)
	if fresh == old {
		t.Fatal("InvalidateStats did not drop the cached Stats")
	}
	if got := d.TotalDomainSize(); got != 1 {
		t.Fatalf("post-invalidation TotalDomainSize = %d, want 1", got)
	}
	InvalidateStats(d)
}

// TestIntSet exercises the open-addressing set across growth, zero, and
// negative values.
func TestIntSet(t *testing.T) {
	var s intSet
	s.reset(4)
	vals := []int64{0, -1, 1, math.MaxInt64, math.MinInt64, 42, 42, 0}
	added := 0
	for _, v := range vals {
		if s.add(v) {
			added++
		}
	}
	if added != 6 || s.n != 6 {
		t.Fatalf("added %d distinct, set reports %d (want 6)", added, s.n)
	}
	for _, v := range []int64{0, -1, 1, math.MaxInt64, math.MinInt64, 42} {
		if !s.contains(v) {
			t.Fatalf("set lost %d", v)
		}
	}
	if s.contains(7) {
		t.Fatal("set contains value never added")
	}
	// Growth: push past several resizes and verify every element.
	s.reset(2)
	for i := int64(0); i < 10_000; i++ {
		s.add(i * 7)
	}
	if s.n != 10_000 {
		t.Fatalf("after growth n = %d", s.n)
	}
	for i := int64(0); i < 10_000; i++ {
		if !s.contains(i * 7) {
			t.Fatalf("growth lost %d", i*7)
		}
	}
}

// TestValidatePKColLowerBound is the regression test for the seed bug
// where only PKCol's upper bound was checked.
func TestValidatePKColLowerBound(t *testing.T) {
	tb := NewTable("t", NewColumn("a", []int64{1, 2}))
	tb.PKCol = -2
	if err := tb.Validate(); err == nil {
		t.Fatal("PKCol = -2 accepted")
	}
	tb.PKCol = -1
	if err := tb.Validate(); err != nil {
		t.Fatalf("PKCol = -1 rejected: %v", err)
	}
	// Empty tables may only use PKCol = -1.
	empty := NewTable("e")
	empty.PKCol = 0
	if err := empty.Validate(); err == nil {
		t.Fatal("empty table with PKCol = 0 accepted")
	}
}

// TestSummaryInt64ExtremeValues is the regression test for histogram
// window wrap-around: values straddling the int64 extremes must take the
// generic path and keep min/max, range, and equal-fractions correct.
func TestSummaryInt64ExtremeValues(t *testing.T) {
	a := []int64{math.MaxInt64, math.MinInt64, 0, math.MaxInt64}
	b := []int64{math.MaxInt64 - 256, math.MinInt64 + 256, 256, math.MaxInt64}
	tb := NewTable("ext", NewColumn("a", a), NewColumn("b", b))
	sum := NewSummary(tb)
	want := ColumnStats(tb.Col(0))
	if got := sum.Cols[0]; got != want {
		t.Fatalf("extreme column: fused %+v != naive %+v", got, want)
	}
	if sum.Cols[0].Min != math.MinInt64 || sum.Cols[0].Max != math.MaxInt64 {
		t.Fatalf("extreme column min/max corrupted: %+v", sum.Cols[0])
	}
	if got, wantEq := sum.EqualFrac(0, 1), EqualFraction(tb.Col(0), tb.Col(1)); got != wantEq {
		t.Fatalf("extreme pair: fused %g != naive %g", got, wantEq)
	}
}

// TestExactSummaryParallelMatchesSerial pins the parallel build bit for
// bit against the serial sweep — every ColStats field and every
// equal-fraction — on a table large enough for NewSummary to take the
// parallel path, with one column per kernel regime.
func TestExactSummaryParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	const rows = 40 << 10
	rng := rand.New(rand.NewSource(11))
	gens := []func(r int) int64{
		func(int) int64 { return 7 },                          // constant
		func(r int) int64 { return int64(r + 1) },             // sorted key
		func(int) int64 { return int64(1 + rng.Intn(16)) },    // narrow
		func(int) int64 { return int64(rng.Intn(50) - 1000) }, // narrow, negative
		func(int) int64 { return rng.Int63n(1 << 40) },        // wide
		func(int) int64 { return int64(rng.Intn(3000)) },      // moderate
		func(int) int64 { return int64(rng.Intn(3000)) },      // moderate, pairs with the above
	}
	cols := make([]*Column, len(gens))
	for c, gen := range gens {
		data := make([]int64, rows)
		for r := range data {
			data[r] = gen(r)
		}
		cols[c] = NewColumn(string(rune('a'+c)), data)
	}
	tb := NewTable("big", cols...)

	want := exactSummary(tb, new(summaryScratch))
	got := exactSummaryParallel(tb)
	if got.Rows != want.Rows || len(got.Cols) != len(want.Cols) || len(got.eq) != len(want.eq) {
		t.Fatalf("shape: parallel %d rows/%d cols/%d eq, serial %d/%d/%d",
			got.Rows, len(got.Cols), len(got.eq), want.Rows, len(want.Cols), len(want.eq))
	}
	for c := range want.Cols {
		g, w := got.Cols[c], want.Cols[c]
		if g.Count != w.Count || g.Min != w.Min || g.Max != w.Max || g.DomainSize != w.DomainSize {
			t.Fatalf("col %d: parallel %+v, serial %+v", c, g, w)
		}
		for _, f := range [][2]float64{
			{g.Mean, w.Mean}, {g.Std, w.Std}, {g.MeanDev, w.MeanDev},
			{g.Skewness, w.Skewness}, {g.Kurtosis, w.Kurtosis}, {g.Range, w.Range},
		} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				t.Fatalf("col %d: parallel %+v, serial %+v", c, g, w)
			}
		}
	}
	for i := range want.eq {
		if math.Float64bits(got.eq[i]) != math.Float64bits(want.eq[i]) {
			t.Fatalf("EqualFrac(%d, %d): parallel %g, serial %g", i/tb.NumCols(), i%tb.NumCols(), got.eq[i], want.eq[i])
		}
	}
	if got.EqualFrac(5, 6) == 0 {
		t.Fatal("fixture has no equal pairs; the pair sweep went untested")
	}
}
