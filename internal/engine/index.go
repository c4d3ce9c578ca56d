package engine

import (
	"slices"
	"sync"

	"repro/internal/dataset"
)

// ColIndex is a grouped view of one column: its row ids grouped by value,
// ascending within each value, plus each value's multiplicity. Join
// evaluation borrows it read-only — RowsOf serves as the build side of
// hash joins over unpredicated tables, the multiplicities are the
// ready-made message an unpredicated leaf table sends up the join tree,
// and a dense column's value-contiguous groups turn a range predicate
// into one contiguous run of row ids.
//
// A dense-domain column (span Hi-Lo+1 small relative to the row count) is
// grouped by one counting sort and holds no map: Dense counts each value
// at value-Lo, and the rows of value v sit at rows[off[v-Lo]:off[v-Lo+1]].
// A wide-domain column maps each distinct value to its group number once
// and groups the same way; Dense is nil for it.
type ColIndex struct {
	// Lo and Hi are the column's value bounds.
	Lo, Hi int64
	// Dense holds the multiplicity of every value v in [Lo, Hi] at v-Lo;
	// evaluators build their own messages over a dense column densely,
	// turning the hot join probes from map lookups into array indexing.
	Dense []int64

	off    []int32         // group g holds rows[off[g]:off[g+1]]
	rows   []int32         // row ids grouped by value, ascending within a group
	groups map[int64]int32 // wide columns: value -> group; nil when dense
}

// group returns the group number of value v, or false when no row holds v.
func (c *ColIndex) group(v int64) (int, bool) {
	if c.Dense != nil {
		i := v - c.Lo
		return int(i), uint64(i) < uint64(len(c.Dense))
	}
	g, ok := c.groups[v]
	return int(g), ok
}

// RowsOf returns the ascending ids of the rows holding v. The slice
// aliases the index and must not be modified.
func (c *ColIndex) RowsOf(v int64) []int32 {
	g, ok := c.group(v)
	if !ok {
		return nil
	}
	return c.rows[c.off[g]:c.off[g+1]:c.off[g+1]]
}

// count returns the number of rows holding v.
func (c *ColIndex) count(v int64) int64 {
	g, ok := c.group(v)
	if !ok {
		return 0
	}
	return int64(c.off[g+1] - c.off[g])
}

// rangeRows returns the ids of the rows whose value lies in [lo, hi],
// grouped by value, of a dense column. The slice aliases the index.
func (c *ColIndex) rangeRows(lo, hi int64) []int32 {
	lo, hi = max(lo, c.Lo), min(hi, c.Hi)
	if lo > hi {
		return nil
	}
	return c.rows[c.off[lo-c.Lo]:c.off[hi-c.Lo+1]]
}

// buildColIndex groups data by value: a counting sort over value-Lo for a
// dense domain, over first-appearance group numbers for a wide one.
// Scattering rows in ascending order keeps each group ascending.
func buildColIndex(data []int64, lo, hi int64) *ColIndex {
	c := &ColIndex{Lo: lo, Hi: hi, rows: make([]int32, len(data))}
	if span := denseSpan(lo, hi, len(data)); span > 0 {
		c.Dense = make([]int64, span)
		for _, v := range data {
			c.Dense[v-lo]++
		}
		c.off = make([]int32, span+1)
		for g, n := range c.Dense {
			c.off[g+1] = c.off[g] + int32(n)
		}
		next := slices.Clone(c.off[:span])
		for r, v := range data {
			g := v - lo
			c.rows[next[g]] = int32(r)
			next[g]++
		}
		return c
	}
	c.groups = make(map[int64]int32)
	codes := make([]int32, len(data))
	var counts []int32
	for r, v := range data {
		g, ok := c.groups[v]
		if !ok {
			g = int32(len(counts))
			c.groups[v] = g
			counts = append(counts, 0)
		}
		counts[g]++
		codes[r] = g
	}
	c.off = make([]int32, len(counts)+1)
	for g, n := range counts {
		c.off[g+1] = c.off[g] + n
	}
	next := counts // reused as the scatter cursors
	copy(next, c.off)
	for r, g := range codes {
		c.rows[next[g]] = int32(r)
		next[g]++
	}
	return c
}

// denseSpan reports the dense-array length for a column with the given
// bounds and row count, or 0 when the column is empty or its span too wide
// to justify an array. The cap keeps a dense message within a small
// constant factor of the column itself.
func denseSpan(lo, hi int64, rows int) int {
	if hi < lo || rows == 0 {
		return 0
	}
	limit := max(4096, int64(rows)*2)
	if uint64(hi-lo) >= uint64(limit) { // the distance, even past MaxInt64
		return 0
	}
	return int(hi-lo) + 1
}

type colKey struct{ table, col int }

// Index caches per-column ColIndexes for one dataset. Building a column
// index costs a bounds pass and a grouping pass over the column and
// happens at most once per (table, column) pair; after that every query
// against the dataset shares it. An Index is safe for concurrent use; the
// CardinalityBatch worker pool and the corpus-labeling goroutines all
// read through one instance. It also owns a pool of Evaluators so that the
// package-level Cardinality entry point is allocation-free in steady state.
//
// An Index must not outlive mutations of its dataset: callers that change
// table data in place must drop the shared Index via InvalidateIndex.
type Index struct {
	d    *dataset.Dataset
	mu   sync.RWMutex
	cols map[colKey]*ColIndex
	// wide marks columns found to have a wide domain by denseCol, whose
	// index it declines to build.
	wide map[colKey]bool

	evals sync.Pool
}

// NewIndex returns an empty index over d; column indexes are built lazily
// on first use.
func NewIndex(d *dataset.Dataset) *Index {
	ix := &Index{d: d, cols: make(map[colKey]*ColIndex), wide: make(map[colKey]bool)}
	ix.evals.New = func() any { return newEvaluator(d, ix) }
	return ix
}

// Dataset returns the dataset this index was built over.
func (ix *Index) Dataset() *dataset.Dataset { return ix.d }

// Col returns the index of column ci of table ti, building it on first use.
func (ix *Index) Col(ti, ci int) *ColIndex {
	k := colKey{ti, ci}
	ix.mu.RLock()
	c := ix.cols[k]
	ix.mu.RUnlock()
	if c != nil {
		return c
	}
	col := ix.d.Tables[ti].Col(ci)
	lo, hi := col.MinMax()
	return ix.build(k, col.Data, lo, hi)
}

// denseCol returns the index of column ci of table ti when the column has
// a dense domain, building it on first use, and nil for a wide-domain
// column. It never builds a wide column's index: predicate filtering asks
// for it, and a range scan is cheaper than that one-off build.
func (ix *Index) denseCol(ti, ci int) *ColIndex {
	k := colKey{ti, ci}
	ix.mu.RLock()
	c, wide := ix.cols[k], ix.wide[k]
	ix.mu.RUnlock()
	switch {
	case c != nil:
		if c.Dense == nil {
			return nil
		}
		return c
	case wide:
		return nil
	}
	col := ix.d.Tables[ti].Col(ci)
	lo, hi := col.MinMax()
	if denseSpan(lo, hi, len(col.Data)) == 0 {
		ix.mu.Lock()
		ix.wide[k] = true
		ix.mu.Unlock()
		return nil
	}
	return ix.build(k, col.Data, lo, hi)
}

// build stores the index of column k unless a concurrent caller got there
// first, and returns the stored one.
func (ix *Index) build(k colKey, data []int64, lo, hi int64) *ColIndex {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if c := ix.cols[k]; c != nil {
		return c
	}
	c := buildColIndex(data, lo, hi)
	ix.cols[k] = c
	return c
}

// acquire hands out a pooled evaluator bound to this index.
func (ix *Index) acquire() *Evaluator { return ix.evals.Get().(*Evaluator) }

// release returns a pooled evaluator.
func (ix *Index) release(e *Evaluator) { ix.evals.Put(e) }

// indexKey keys the shared Index in dataset.Dataset.Derived.
type indexKey struct{}

// IndexFor returns the shared index of d, creating it on first use. The
// index lives on d and is collected with it.
func IndexFor(d *dataset.Dataset) *Index {
	return d.Derived(indexKey{}, func() any { return NewIndex(d) }).(*Index)
}

// InvalidateIndex drops the shared index of d, so the next IndexFor
// builds a fresh one. Call it after mutating d's table data in place (the
// groups would be stale) or to time a cold build.
func InvalidateIndex(d *dataset.Dataset) { d.DropDerived(indexKey{}) }
