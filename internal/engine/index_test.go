package engine

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/par"
)

// TestColIndexRowsOf checks the rows of each value, groupRows(group(v)),
// in both ColIndex forms against a brute-force ascending scan, for every
// value the column holds and for values between, below and above them.
func TestColIndexRowsOf(t *testing.T) {
	cases := []struct {
		name  string
		data  []int64
		dense bool
	}{
		{"dense", []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, true},
		{"dense-negative", []int64{-2, 0, -2, 3, -1, 0, 7}, true},
		{"dense-constant", []int64{5, 5, 5}, true},
		{"wide", []int64{7e12, -3, 7e12, 42, -3e12, 42, 42}, false},
		{"wide-extremes", []int64{math.MaxInt64, math.MinInt64, 0, math.MaxInt64}, false},
		{"wide-past-maxint", []int64{math.MinInt64, 100, 5}, false},
		{"empty", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := &dataset.Dataset{Tables: []*dataset.Table{
				dataset.NewTable("t", dataset.NewColumn("c", tc.data)),
			}}
			ci := NewIndex(d).Col(0, 0)
			if got := ci.groups == nil; got != tc.dense {
				t.Fatalf("dense form = %v, want %v", got, tc.dense)
			}
			probes := []int64{math.MinInt64, math.MaxInt64, ci.Lo - 1, ci.Hi + 1}
			for _, v := range tc.data {
				probes = append(probes, v, v-1, v+1)
			}
			for _, v := range probes {
				var want []int32
				for r, x := range tc.data {
					if x == v {
						want = append(want, int32(r))
					}
				}
				got := ci.groupRows(ci.group(v))
				if !slices.Equal(got, want) {
					t.Fatalf("groupRows(group(%d)) = %v, want %v", v, got, want)
				}
				if n := ci.counts[ci.group(v)]; n != int64(len(want)) {
					t.Fatalf("counts[group(%d)] = %d, want %d", v, n, len(want))
				}
			}
		})
	}
}

// TestDenseColSkipsWideColumns: filtering asks denseCol for a predicate
// column's index; for a wide-domain column it must answer nil without
// building one.
func TestDenseColSkipsWideColumns(t *testing.T) {
	d := &dataset.Dataset{Tables: []*dataset.Table{dataset.NewTable("t",
		dataset.NewColumn("narrow", []int64{1, 2, 3}),
		dataset.NewColumn("wide", []int64{1, 2e12, 3}),
		dataset.NewColumn("wider", []int64{math.MinInt64, 100, 5}),
	)}}
	ix := NewIndex(d)
	if ix.denseCol(0, 0) == nil {
		t.Fatal("denseCol returned nil for a dense column")
	}
	if ix.denseCol(0, 1) != nil || ix.denseCol(0, 2) != nil {
		t.Fatal("denseCol returned an index for a wide column")
	}
	if n := len(ix.cols); n != 1 {
		t.Fatalf("%d column indexes built, want 1 (the dense column's)", n)
	}
	if ix.Col(0, 1).groups == nil || ix.denseCol(0, 1) != nil {
		t.Fatal("a wide column's index took the dense form")
	}
}

// missCases are two one-column tables joined on their only columns. Some
// probe values of t0 lie outside t1's key domain or are absent from it, so
// their probes land on t1's trailing empty group; in "mod-2^32" every pair
// of wide keys agrees in its low 32 bits, so a code truncated to 32 bits
// would join rows that differ.
var missCases = []struct {
	name   string
	t0, t1 []int64
}{
	{"dense", []int64{1, 2, 3, 5, -7, 3}, []int64{1, 3, 3, 4}},
	{"wide", []int64{1 * wideStride, 2 * wideStride, 3 * wideStride, 5 * wideStride, -7 * wideStride, 3 * wideStride},
		[]int64{1 * wideStride, 3 * wideStride, 3 * wideStride, 4 * wideStride}},
	{"mod-2^32", []int64{1 << 32, 2 << 32, 3 << 32, 7 + 1<<32, 0, 3 << 32},
		[]int64{1 << 32, 3 << 32, 3 << 32, 7, 5 << 32}},
}

func missDataset(t0, t1 []int64) *dataset.Dataset {
	return &dataset.Dataset{Tables: []*dataset.Table{
		dataset.NewTable("t0", dataset.NewColumn("c", slices.Clone(t0))),
		dataset.NewTable("t1", dataset.NewColumn("c", slices.Clone(t1))),
	}}
}

// missQueries joins t0 and t1 through every join path: the tree fold
// with t1 unpredicated (its counts borrowed) and predicated (a pooled
// message), and the cyclic fold, through a parallel edge, with t1's group
// rows or a chained hash over its selection as the build side.
func missQueries(t1 []int64) map[string]*Query {
	edge := Join{LeftTable: 0, LeftCol: 0, RightTable: 1, RightCol: 0}
	pred := Predicate{Table: 1, Col: 0, Lo: t1[1], Hi: math.MaxInt64}
	root := Predicate{Table: 0, Col: 0, Lo: math.MinInt64, Hi: t1[1]}
	qs := map[string]*Query{}
	for _, cyclic := range []bool{false, true} {
		joins := []Join{edge}
		if cyclic {
			joins = append(joins, Join{LeftTable: 1, LeftCol: 0, RightTable: 0, RightCol: 0})
		}
		for name, preds := range map[string][]Predicate{
			"bare": nil, "pred": {pred}, "both": {pred, root},
		} {
			qs[fmt.Sprintf("cyclic=%v/%s", cyclic, name)] = &Query{Tables: []int{0, 1}, Joins: joins, Preds: preds}
		}
	}
	return qs
}

// TestProbeMissLandsOnTrailingGroup checks the probe of t0 into t1's
// groups row by row, a miss included, and every join path's count.
func TestProbeMissLandsOnTrailingGroup(t *testing.T) {
	for _, tc := range missCases {
		t.Run(tc.name, func(t *testing.T) {
			d := missDataset(tc.t0, tc.t1)
			ix := NewIndex(d)
			key, p := ix.Col(1, 0), ix.probe(0, 0, 1, 0)
			trailing := int32(len(key.counts) - 1)
			misses := 0
			for r, v := range tc.t0 {
				want := int64(0)
				for _, x := range tc.t1 {
					if x == v {
						want++
					}
				}
				if got := key.counts[p[r]]; got != want {
					t.Fatalf("row %d (%d) probes a group of %d rows, want %d", r, v, got, want)
				}
				if want == 0 && p[r] == trailing {
					misses++
				}
			}
			if misses == 0 {
				t.Fatal("no probe landed on the trailing group")
			}
			if len(key.groupRows(trailing)) != 0 || key.counts[trailing] != 0 {
				t.Fatal("the trailing group is not empty")
			}
			for name, q := range missQueries(tc.t1) {
				if got, want := NewEvaluator(d).Cardinality(q), naiveCardinality(d, q); got != want {
					t.Fatalf("%s: Cardinality = %d, brute force = %d", name, got, want)
				}
			}
		})
	}
}

// TestConcurrentFirstProbe: workers that all evaluate the same joins
// against a fresh index race to build the same column indexes and probes;
// under -race this checks the Index's locking, and every count must still
// match the brute-force oracle.
func TestConcurrentFirstProbe(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		d := diffDataset(t, 4000+seed, 3)
		q := &Query{Tables: []int{0, 1, 2}}
		for _, fk := range d.FKs {
			q.Joins = append(q.Joins, Join{
				LeftTable: fk.FromTable, LeftCol: fk.FromCol,
				RightTable: fk.ToTable, RightCol: fk.ToCol,
			})
		}
		cyc := &Query{Tables: q.Tables, Joins: append(slices.Clone(q.Joins), q.Joins...)}
		want := []int64{naiveCardinality(d, q), naiveCardinality(d, cyc)}
		ix := NewIndex(d)
		got := make([]int64, 16)
		par.For(len(got), max(4, runtime.GOMAXPROCS(0)), func(i int) error {
			e := ix.acquire()
			got[i] = e.Cardinality([]*Query{q, cyc}[i%2])
			ix.release(e)
			return nil
		})
		for i, g := range got {
			if g != want[i%2] {
				t.Fatalf("seed %d worker %d: Cardinality = %d, brute force = %d", seed, i, g, want[i%2])
			}
		}
	}
}
