package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/par"
)

func col(vals ...int64) *Column { return NewColumn("c", vals) }

func TestColumnBasics(t *testing.T) {
	c := col(3, 1, 4, 1, 5)
	if c.Len() != 5 {
		t.Fatalf("Len = %d", c.Len())
	}
	lo, hi := c.MinMax()
	if lo != 1 || hi != 5 {
		t.Fatalf("MinMax = %d,%d", lo, hi)
	}
	if c.DistinctCount() != 4 {
		t.Fatalf("DistinctCount = %d", c.DistinctCount())
	}
	dv := c.DistinctValues()
	want := []int64{1, 3, 4, 5}
	for i := range want {
		if dv[i] != want[i] {
			t.Fatalf("DistinctValues = %v", dv)
		}
	}
}

func TestEmptyColumn(t *testing.T) {
	c := col()
	lo, hi := c.MinMax()
	if lo != 0 || hi != 0 {
		t.Fatal("empty column MinMax should be 0,0")
	}
	st := ColumnStats(c)
	if st.Count != 0 {
		t.Fatal("empty column stats should be zero")
	}
}

func TestColumnStatsUniform(t *testing.T) {
	// A symmetric column has ~0 skewness; uniform has negative excess
	// kurtosis (-1.2 in the continuous limit).
	data := make([]int64, 0, 10000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		data = append(data, int64(1+rng.Intn(100)))
	}
	st := ColumnStats(col(data...))
	if math.Abs(st.Skewness) > 0.1 {
		t.Fatalf("uniform skewness %.3f, want ~0", st.Skewness)
	}
	if st.Kurtosis > -1.0 || st.Kurtosis < -1.4 {
		t.Fatalf("uniform excess kurtosis %.3f, want ~-1.2", st.Kurtosis)
	}
	wantMean := 50.5
	if math.Abs(st.Mean-wantMean) > 1 {
		t.Fatalf("mean %.2f, want ~%.1f", st.Mean, wantMean)
	}
}

func TestColumnStatsSkewed(t *testing.T) {
	// A heavy-headed column has positive skewness.
	data := make([]int64, 0, 1000)
	for i := 0; i < 900; i++ {
		data = append(data, 1)
	}
	for i := 0; i < 100; i++ {
		data = append(data, 50)
	}
	st := ColumnStats(col(data...))
	if st.Skewness <= 1 {
		t.Fatalf("skewed column skewness %.3f, want > 1", st.Skewness)
	}
	if st.DomainSize != 2 {
		t.Fatalf("domain size %d, want 2", st.DomainSize)
	}
	if st.Range != 49 {
		t.Fatalf("range %.0f, want 49", st.Range)
	}
}

func TestColumnStatsConstant(t *testing.T) {
	st := ColumnStats(col(7, 7, 7, 7))
	if st.Std != 0 || st.Skewness != 0 || st.Kurtosis != 0 {
		t.Fatalf("constant column should have zero moments: %+v", st)
	}
}

func TestEqualFraction(t *testing.T) {
	a := col(1, 2, 3, 4)
	b := col(1, 2, 9, 9)
	if got := EqualFraction(a, b); got != 0.5 {
		t.Fatalf("EqualFraction = %g, want 0.5", got)
	}
	if got := EqualFraction(a, col(1)); got != 0 {
		t.Fatalf("mismatched lengths should give 0, got %g", got)
	}
}

func TestJoinCorrelation(t *testing.T) {
	pk := col(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	fk := col(1, 1, 2, 2, 3, 3) // 3 of 10 PK values
	if got := JoinCorrelation(fk, pk); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("JoinCorrelation = %g, want 0.3", got)
	}
	// Values outside the PK do not count.
	fk2 := col(99, 98, 1)
	if got := JoinCorrelation(fk2, pk); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("JoinCorrelation with foreign values = %g, want 0.1", got)
	}
}

func TestTableValidate(t *testing.T) {
	tb := NewTable("t", col(1, 2), col(3, 4))
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := NewTable("t", col(1, 2), col(3))
	if err := bad.Validate(); err == nil {
		t.Fatal("ragged table accepted")
	}
	badPK := NewTable("t", col(1, 2))
	badPK.PKCol = 5
	if err := badPK.Validate(); err == nil {
		t.Fatal("out-of-range PKCol accepted")
	}
}

func TestDatasetAggregates(t *testing.T) {
	t1 := NewTable("a", col(1, 2, 3), col(4, 5, 6))
	t2 := NewTable("b", col(1, 1))
	d := &Dataset{Name: "d", Tables: []*Table{t1, t2}}
	if d.TotalRows() != 5 {
		t.Fatalf("TotalRows = %d", d.TotalRows())
	}
	if d.TotalColumns() != 3 {
		t.Fatalf("TotalColumns = %d", d.TotalColumns())
	}
	if d.MaxColumns() != 2 {
		t.Fatalf("MaxColumns = %d", d.MaxColumns())
	}
	if d.TotalDomainSize() != 3+3+1 {
		t.Fatalf("TotalDomainSize = %d", d.TotalDomainSize())
	}
}

func TestDatasetValidateFKs(t *testing.T) {
	t1 := NewTable("a", col(1, 2, 3))
	t2 := NewTable("b", col(1, 1))
	d := &Dataset{Tables: []*Table{t1, t2}, FKs: []ForeignKey{{FromTable: 1, FromCol: 0, ToTable: 0, ToCol: 0}}}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	d.FKs[0].ToCol = 9
	if err := d.Validate(); err == nil {
		t.Fatal("out-of-range FK column accepted")
	}
	d.FKs[0] = ForeignKey{FromTable: 5}
	if err := d.Validate(); err == nil {
		t.Fatal("out-of-range FK table accepted")
	}
}

func TestNonKeyColsAndColByName(t *testing.T) {
	tb := NewTable("t", NewColumn("id", []int64{1, 2}), NewColumn("x", []int64{5, 6}))
	tb.PKCol = 0
	nk := tb.NonKeyCols()
	if len(nk) != 1 || nk[0] != 1 {
		t.Fatalf("NonKeyCols = %v", nk)
	}
	c, i := tb.ColByName("x")
	if c == nil || i != 1 {
		t.Fatalf("ColByName(x) = %v,%d", c, i)
	}
	if c, i := tb.ColByName("nope"); c != nil || i != -1 {
		t.Fatal("missing column lookup should return nil,-1")
	}
}

func TestJoinGraphAdjacency(t *testing.T) {
	t1 := NewTable("a", col(1, 2))
	t2 := NewTable("b", col(1, 1))
	t3 := NewTable("c", col(2, 2))
	d := &Dataset{Tables: []*Table{t1, t2, t3}, FKs: []ForeignKey{
		{FromTable: 1, FromCol: 0, ToTable: 0, ToCol: 0},
		{FromTable: 2, FromCol: 0, ToTable: 0, ToCol: 0},
	}}
	adj := d.JoinGraphAdjacency()
	if len(adj[0]) != 2 || len(adj[1]) != 1 || len(adj[2]) != 1 {
		t.Fatalf("adjacency = %v", adj)
	}
}

func TestMeanDeviationVsStd(t *testing.T) {
	// Mean absolute deviation never exceeds the standard deviation.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(100)
		data := make([]int64, n)
		for i := range data {
			data[i] = int64(rng.Intn(1000))
		}
		st := ColumnStats(col(data...))
		return st.MeanDev <= st.Std+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDerivedConcurrentFirstUse races first uses of a dataset's derived
// state: every caller gets the one value stored, under each key, until
// DropDerived discards it.
func TestDerivedConcurrentFirstUse(t *testing.T) {
	type otherKey struct{}
	d := &Dataset{Name: "d", Tables: []*Table{NewTable("t", col(1, 2, 2, 3))}}
	const n = 16
	stats := make([]*Stats, n)
	others := make([]*int, n)
	par.For(n, 8, func(i int) error {
		stats[i] = StatsFor(d)
		others[i] = d.Derived(otherKey{}, func() any { return new(int) }).(*int)
		return nil
	})
	for i := 1; i < n; i++ {
		if stats[i] != stats[0] || others[i] != others[0] {
			t.Fatalf("caller %d got a different derived value", i)
		}
	}
	d.DropDerived(otherKey{})
	if d.Derived(otherKey{}, func() any { return new(int) }).(*int) == others[0] {
		t.Fatal("DropDerived did not discard the value")
	}
	if StatsFor(d) != stats[0] {
		t.Fatal("DropDerived discarded another key's value")
	}
}
