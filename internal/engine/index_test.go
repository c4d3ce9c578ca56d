package engine

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// TestColIndexRowsOf checks both ColIndex forms against a brute-force
// ascending scan, for every value the column holds and for values
// between, below and above them.
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
			if got := ci.Dense != nil; got != tc.dense {
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
				got := ci.RowsOf(v)
				if !slices.Equal(got, want) {
					t.Fatalf("RowsOf(%d) = %v, want %v", v, got, want)
				}
				if n := ci.count(v); n != int64(len(want)) {
					t.Fatalf("count(%d) = %d, want %d", v, n, len(want))
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
	if ix.Col(0, 1).Dense != nil || ix.denseCol(0, 1) != nil {
		t.Fatal("a wide column's index took the dense form")
	}
}
