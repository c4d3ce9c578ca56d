package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// This file property-tests the count-propagating evaluator against the
// brute-force nested-loop oracle (naiveCardinality, engine_test.go) on
// randomized schemas and adversarial query shapes: cycle edges (including
// parallel and self edges, which route through the materializing
// fallback), disconnected join graphs (per-component counting joined by
// cross product), and empty-filter early exits. About half of each
// dataset's columns are moved onto wide, partly negative domains (widen),
// so both ColIndex forms and both filter paths — the index-seeded range
// and the scan — are compared, often within one query.

// wideStride spreads neighboring values about 1e12 apart, far past any
// dense-array span.
const wideStride = 999_999_999_989

// diffDataset generates a small random dataset (values in [1,6], at most
// 22 rows per table) and widens it.
func diffDataset(t *testing.T, seed int64, tables int) *dataset.Dataset {
	t.Helper()
	p := datagen.Params{
		Tables:  tables,
		MinCols: 2, MaxCols: 3,
		MinRows: 10, MaxRows: 22,
		Domain: 6,
		SkewLo: 0, SkewHi: 1,
		CorrLo: 0, CorrHi: 1,
		JoinLo: 0.3, JoinHi: 1,
		Seed: seed,
	}
	d, err := datagen.Generate("diff", p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	widen(d, rand.New(rand.NewSource(seed)))
	return d
}

// widen moves some of d's columns onto wide domains. Each join class of
// columns (an FK column together with the PK it references) either keeps
// its values or maps every value v to (v-shift)*wideStride with shift in
// [0,4), so its ColIndex numbers groups through a map while its joins
// still match.
func widen(d *dataset.Dataset, rng *rand.Rand) {
	base := make([]int, len(d.Tables)+1)
	for ti, t := range d.Tables {
		base[ti+1] = base[ti] + t.NumCols()
	}
	parent := make([]int, base[len(d.Tables)])
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	for _, fk := range d.FKs {
		parent[find(base[fk.FromTable]+fk.FromCol)] = find(base[fk.ToTable] + fk.ToCol)
	}
	shift := map[int]int64{} // class root -> shift; -1 keeps the values
	for ti, t := range d.Tables {
		for ci, c := range t.Cols {
			root := find(base[ti] + ci)
			s, ok := shift[root]
			if !ok {
				s = -1
				if rng.Intn(2) == 0 {
					s = rng.Int63n(4)
				}
				shift[root] = s
			}
			if s < 0 {
				continue
			}
			for r, v := range c.Data {
				c.Data[r] = (v - s) * wideStride
			}
		}
	}
}

// predRange draws range-predicate bounds from a column's own values, so
// the predicate selects rows whatever the column's domain: between two
// sampled values, sometimes reversed (empty), widened by one, or
// unbounded on one side (past the column's bounds, which the index
// clamps).
func predRange(rng *rand.Rand, data []int64) (lo, hi int64) {
	lo, hi = data[rng.Intn(len(data))], data[rng.Intn(len(data))]
	if lo > hi && rng.Intn(4) != 0 {
		lo, hi = hi, lo
	}
	switch rng.Intn(6) {
	case 0:
		lo--
	case 1:
		hi++
	case 2:
		lo = math.MinInt64
	case 3:
		hi = math.MaxInt64
	}
	return lo, hi
}

// randomDiffQuery draws an adversarial query: a random (possibly
// disconnected) table subset, FK join edges kept with probability 0.8,
// occasional extra equi-join edges that close cycles (or parallel an
// existing edge, or self-join a table), and random predicates that are
// sometimes unsatisfiable.
func randomDiffQuery(d *dataset.Dataset, rng *rand.Rand) *Query {
	nt := len(d.Tables)
	k := 1 + rng.Intn(nt)
	perm := rng.Perm(nt)
	in := map[int]bool{}
	q := &Query{}
	for _, ti := range perm[:k] {
		in[ti] = true
	}
	for ti := 0; ti < nt; ti++ {
		if in[ti] {
			q.Tables = append(q.Tables, ti)
		}
	}
	for _, fk := range d.FKs {
		if in[fk.FromTable] && in[fk.ToTable] && rng.Float64() < 0.8 {
			q.Joins = append(q.Joins, Join{
				LeftTable: fk.FromTable, LeftCol: fk.FromCol,
				RightTable: fk.ToTable, RightCol: fk.ToCol,
			})
		}
	}
	if rng.Float64() < 0.4 {
		// Extra edge between arbitrary in-query tables and columns:
		// closes a cycle, duplicates an edge, or self-joins.
		a := q.Tables[rng.Intn(len(q.Tables))]
		b := q.Tables[rng.Intn(len(q.Tables))]
		q.Joins = append(q.Joins, Join{
			LeftTable: a, LeftCol: rng.Intn(d.Tables[a].NumCols()),
			RightTable: b, RightCol: rng.Intn(d.Tables[b].NumCols()),
		})
	}
	for _, ti := range q.Tables {
		np := rng.Intn(3)
		for i := 0; i < np; i++ {
			ci := rng.Intn(d.Tables[ti].NumCols())
			lo, hi := predRange(rng, d.Tables[ti].Col(ci).Data)
			q.Preds = append(q.Preds, Predicate{Table: ti, Col: ci, Lo: lo, Hi: hi})
		}
	}
	if len(q.Preds) == 0 {
		q.Preds = append(q.Preds, Predicate{Table: q.Tables[0], Col: 0, Lo: math.MinInt64, Hi: math.MaxInt64})
	}
	return q
}

func TestDifferentialCardinality(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		d := diffDataset(t, int64(1000+trial), 1+trial%4)
		ev := NewEvaluator(d) // reused across queries of this dataset
		var qs []*Query
		var want []int64
		for i := 0; i < 6; i++ {
			q := randomDiffQuery(d, rng)
			w := naiveCardinality(d, q)
			qs = append(qs, q)
			want = append(want, w)

			if got := Cardinality(d, q); got != w {
				t.Fatalf("trial %d query %d: Cardinality = %d, brute force = %d\nquery: %+v", trial, i, got, w, q)
			}
			if got := ev.Cardinality(q); got != w {
				t.Fatalf("trial %d query %d: Evaluator.Cardinality = %d, brute force = %d\nquery: %+v", trial, i, got, w, q)
			}
		}
		for i, got := range CardinalityBatch(d, qs) {
			if got != want[i] {
				t.Fatalf("trial %d: CardinalityBatch[%d] = %d, brute force = %d", trial, i, got, want[i])
			}
		}
		InvalidateIndex(d)
	}
}

func TestDifferentialCycleEdges(t *testing.T) {
	// Force the cyclic fallback: join every FK edge plus a duplicate of
	// the first (a parallel edge is a cycle in the join multigraph).
	rng := rand.New(rand.NewSource(78))
	tested := 0
	for trial := 0; trial < 25 && tested < 10; trial++ {
		d := diffDataset(t, int64(2000+trial), 3)
		if len(d.FKs) == 0 {
			continue
		}
		q := &Query{}
		in := map[int]bool{}
		for _, fk := range d.FKs {
			q.Joins = append(q.Joins, Join{
				LeftTable: fk.FromTable, LeftCol: fk.FromCol,
				RightTable: fk.ToTable, RightCol: fk.ToCol,
			})
			in[fk.FromTable] = true
			in[fk.ToTable] = true
		}
		q.Joins = append(q.Joins, q.Joins[0])
		for ti := range d.Tables {
			if in[ti] {
				q.Tables = append(q.Tables, ti)
			}
		}
		if rng.Float64() < 0.5 {
			ti := q.Tables[rng.Intn(len(q.Tables))]
			lo, hi := predRange(rng, d.Tables[ti].Col(0).Data)
			q.Preds = append(q.Preds, Predicate{Table: ti, Col: 0, Lo: lo, Hi: hi})
		}
		got, w := Cardinality(d, q), naiveCardinality(d, q)
		if got != w {
			t.Fatalf("trial %d: cyclic Cardinality = %d, brute force = %d", trial, got, w)
		}
		tested++
	}
	if tested == 0 {
		t.Fatal("no FK-bearing dataset generated")
	}
}

func TestDifferentialDisconnected(t *testing.T) {
	// Two joined tables plus a third with no edge: the engine must cross-
	// multiply the disconnected component.
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 15; trial++ {
		d := diffDataset(t, int64(3000+trial), 3)
		if len(d.FKs) == 0 {
			continue
		}
		fk := d.FKs[0]
		third := -1
		for ti := range d.Tables {
			if ti != fk.FromTable && ti != fk.ToTable {
				third = ti
				break
			}
		}
		if third == -1 {
			continue
		}
		lo, hi := predRange(rng, d.Tables[third].Col(0).Data)
		q := &Query{
			Joins: []Join{{
				LeftTable: fk.FromTable, LeftCol: fk.FromCol,
				RightTable: fk.ToTable, RightCol: fk.ToCol,
			}},
			Preds: []Predicate{{Table: third, Col: 0, Lo: lo, Hi: hi}},
		}
		for _, ti := range []int{fk.FromTable, fk.ToTable, third} {
			q.Tables = append(q.Tables, ti)
		}
		got, w := Cardinality(d, q), naiveCardinality(d, q)
		if got != w {
			t.Fatalf("trial %d: disconnected Cardinality = %d, brute force = %d", trial, got, w)
		}
	}
}

func TestDifferentialEmptyFilterEarlyExit(t *testing.T) {
	d := diffDataset(t, 9, 3)
	q := &Query{
		Preds: []Predicate{{Table: 0, Col: 0, Lo: 50, Hi: 40}}, // empty range
	}
	for ti := range d.Tables {
		q.Tables = append(q.Tables, ti)
	}
	for _, fk := range d.FKs {
		q.Joins = append(q.Joins, Join{
			LeftTable: fk.FromTable, LeftCol: fk.FromCol,
			RightTable: fk.ToTable, RightCol: fk.ToCol,
		})
	}
	if got := Cardinality(d, q); got != 0 {
		t.Fatalf("empty-range predicate gave %d, want 0", got)
	}
	if got := naiveCardinality(d, q); got != 0 {
		t.Fatalf("oracle disagrees: %d", got)
	}
}

func TestInvalidateIndexAfterMutation(t *testing.T) {
	d := diffDataset(t, 13, 2)
	q := randomDiffQuery(d, rand.New(rand.NewSource(80)))
	before := Cardinality(d, q)
	if before != naiveCardinality(d, q) {
		t.Fatal("pre-mutation mismatch")
	}
	// Mutate a join/predicate column in place; the cached index is stale
	// until invalidated.
	c := d.Tables[0].Col(0)
	for i := range c.Data {
		c.Data[i] = c.Data[i]%3 + 1
	}
	InvalidateIndex(d)
	if got, w := Cardinality(d, q), naiveCardinality(d, q); got != w {
		t.Fatalf("post-mutation Cardinality = %d, brute force = %d", got, w)
	}
}

func TestEvaluatorZeroAllocSingleTable(t *testing.T) {
	d := diffDataset(t, 17, 1)
	ev := NewEvaluator(d)
	// One predicate per column, each keeping every row: the selection is
	// seeded from an index run or a scan and narrowed by the rest.
	q := &Query{Tables: []int{0}}
	for ci, c := range d.Tables[0].Cols {
		lo, hi := c.MinMax()
		q.Preds = append(q.Preds, Predicate{Table: 0, Col: ci, Lo: lo, Hi: hi})
	}
	if got, want := ev.Cardinality(q), int64(d.Tables[0].Rows()); got != want { // warms scratch buffers
		t.Fatalf("Evaluator.Cardinality = %d, want %d", got, want)
	}
	allocs := testing.AllocsPerRun(200, func() { ev.Cardinality(q) })
	if allocs != 0 {
		t.Fatalf("Evaluator.Cardinality allocated %.1f times per call, want 0", allocs)
	}
}

// TestEvaluatorZeroAllocJoins: once its scratch and the index's probes are
// warm, an evaluator allocates nothing on tree or cyclic joins, over dense
// and wide keys alike.
func TestEvaluatorZeroAllocJoins(t *testing.T) {
	for _, tc := range missCases {
		d := missDataset(tc.t0, tc.t1)
		ev := NewEvaluator(d)
		for name, q := range missQueries(tc.t1) {
			ev.Cardinality(q) // warms scratch buffers and probes
			if allocs := testing.AllocsPerRun(100, func() { ev.Cardinality(q) }); allocs != 0 {
				t.Fatalf("%s %s: Evaluator.Cardinality allocated %.1f times per call, want 0", tc.name, name, allocs)
			}
		}
	}
}
