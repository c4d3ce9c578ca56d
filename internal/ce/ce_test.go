package ce

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/workload"
)

func sampleFixture(t *testing.T, tables int, seed int64) (*dataset.Dataset, *engine.JoinSample) {
	t.Helper()
	p := datagen.Params{
		Tables:  tables,
		MinCols: 2, MaxCols: 3,
		MinRows: 80, MaxRows: 150,
		Domain: 25,
		SkewLo: 0, SkewHi: 1,
		CorrLo: 0, CorrHi: 0.6,
		JoinLo: 0.4, JoinHi: 1,
		Seed: seed,
	}
	d, err := datagen.Generate("ce", p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	return d, engine.SampleJoin(d, 500, rng)
}

func TestSubsetKeyCanonical(t *testing.T) {
	if SubsetKey([]int{2, 0, 1}) != SubsetKey([]int{0, 1, 2}) {
		t.Fatal("SubsetKey not order-invariant")
	}
	if SubsetKey([]int{0}) == SubsetKey([]int{1}) {
		t.Fatal("SubsetKey collides")
	}
}

// The historical fixed-two-digit encoding (byte('0'+t/10)) silently
// collided once table indexes left the two-digit range; the variable-width
// encoding must keep every subset distinct and unambiguous.
func TestSubsetKeyWideIndexes(t *testing.T) {
	// Singletons over a wide index range are pairwise distinct.
	seen := map[string]int{}
	for ti := 0; ti < 3000; ti++ {
		key := SubsetKey([]int{ti})
		if prev, dup := seen[key]; dup {
			t.Fatalf("indexes %d and %d share key %q", prev, ti, key)
		}
		seen[key] = ti
	}
	// Concatenation stays unambiguous: {1,23} vs {12,3} vs {123}.
	keys := []string{
		SubsetKey([]int{1, 23}),
		SubsetKey([]int{12, 3}),
		SubsetKey([]int{123}),
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[i] == keys[j] {
				t.Fatalf("ambiguous keys: %q == %q", keys[i], keys[j])
			}
		}
	}
	// Multi-element sets with three-digit members, the regression case.
	if SubsetKey([]int{100, 205}) == SubsetKey([]int{100, 206}) {
		t.Fatal("three-digit members collide")
	}
}

func TestComputeSubsetSizesMatchesEngine(t *testing.T) {
	d, _ := sampleFixture(t, 3, 7)
	ss := ComputeSubsetSizes(d)
	// Singletons are table sizes.
	for ti, tbl := range d.Tables {
		if got := ss.Size([]byte(SubsetKey([]int{ti})), []int{ti}); got != int64(tbl.Rows()) {
			t.Fatalf("singleton size %d, want %d", got, tbl.Rows())
		}
	}
	// The full connected set matches the engine.
	all := make([]int, len(d.Tables))
	for i := range all {
		all[i] = i
	}
	q := &engine.Query{Tables: all}
	for _, fk := range d.FKs {
		q.Joins = append(q.Joins, engine.Join{
			LeftTable: fk.FromTable, LeftCol: fk.FromCol,
			RightTable: fk.ToTable, RightCol: fk.ToCol,
		})
	}
	if got := ss.Size([]byte(SubsetKey(all)), all); got != engine.Cardinality(d, q) {
		t.Fatalf("full-set size %d, engine %d", got, engine.Cardinality(d, q))
	}
}

func TestBinnerExactForSmallDomains(t *testing.T) {
	d, js := sampleFixture(t, 1, 3)
	_ = d
	b := NewBinner(js, 64) // more bins than distinct values: exact binning
	for j := range js.Cols {
		vals := map[int64]bool{}
		for _, r := range js.Rows {
			vals[r[j]] = true
		}
		if b.NumBins(j) != len(vals) {
			t.Fatalf("col %d: %d bins for %d distinct values", j, b.NumBins(j), len(vals))
		}
		// Every value maps to the bin whose edge equals it.
		for v := range vals {
			bin := b.Bin(j, v)
			if b.Edges[j][bin] != v {
				t.Fatalf("col %d: value %d mapped to edge %d", j, v, b.Edges[j][bin])
			}
		}
	}
}

func TestBinnerRangeSemantics(t *testing.T) {
	d, js := sampleFixture(t, 1, 4)
	_ = d
	b := NewBinner(js, 8)
	for j := range js.Cols {
		lo := js.Rows[0][j]
		hi := lo + 5
		binLo, binHi, ok := b.BinRange(j, lo, hi)
		if !ok {
			t.Fatalf("col %d: valid range rejected", j)
		}
		if binLo > binHi {
			t.Fatalf("col %d: inverted bin range", j)
		}
		// Reversed interval selects nothing.
		if _, _, ok := b.BinRange(j, hi, lo); ok && hi != lo {
			t.Fatalf("col %d: reversed interval accepted", j)
		}
	}
}

func TestQueryBinRangesRoutesPredicates(t *testing.T) {
	d, js := sampleFixture(t, 2, 5)
	b := NewBinner(js, 8)
	slots := ColSlots(js)
	// Predicate on a sampled (non-key) column resolves; predicate on the
	// PK column is reported unresolved.
	var pkTable, pkCol = -1, -1
	for ti, tbl := range d.Tables {
		if tbl.PKCol >= 0 {
			pkTable, pkCol = ti, tbl.PKCol
			break
		}
	}
	if pkTable == -1 {
		t.Skip("fixture has no PK")
	}
	cr := js.Cols[0]
	q := &workload.Query{Query: engine.Query{
		Tables: []int{cr.Table, pkTable},
		Preds: []engine.Predicate{
			{Table: cr.Table, Col: cr.Col, Lo: 1, Hi: 100},
			{Table: pkTable, Col: pkCol, Lo: 1, Hi: 10},
		},
	}}
	var ranges BinRanges
	if !QueryBinRanges(&ranges, b, slots, q) {
		t.Fatal("valid query rejected")
	}
	if _, present := ranges.Range(0); !present {
		t.Fatal("sampled-column predicate not resolved to slot 0")
	}
	if len(ranges.Unresolved) != 1 || ranges.Unresolved[0].Table != pkTable {
		t.Fatalf("unresolved = %+v", ranges.Unresolved)
	}
}
