package engine

import (
	"sync"

	"repro/internal/dataset"
)

// ColIndex is a prehashed view of one column: every distinct value mapped
// to the rows that hold it and to how many rows that is. Join evaluation
// borrows these maps read-only — Rows serves as the build side of hash
// joins over unpredicated tables, and Counts is the ready-made
// multiplicity message an unpredicated leaf table sends up the join tree.
type ColIndex struct {
	// Rows maps a column value to the (ascending) row ids holding it.
	Rows map[int64][]int32
	// Counts maps a column value to len(Rows[v]), kept separately so the
	// count-propagating fold can use it without touching the row lists.
	Counts map[int64]int64
	// Lo and Hi are the column's value bounds. When the span Hi-Lo+1 is
	// small relative to the row count, Dense holds the same multiplicities
	// as Counts in a flat array indexed by value-Lo, and evaluators build
	// their own messages over this column densely — turning the hot join
	// probes from map lookups into array indexing. Dense is nil for
	// wide-domain columns.
	Lo, Hi int64
	Dense  []int64
}

// denseSpan reports the dense-array length for a column with the given
// bounds and row count, or 0 when the span is too wide to justify an
// array. The cap keeps a dense message within a small constant factor of
// the column itself.
func denseSpan(lo, hi int64, rows int) int {
	if hi < lo {
		return 0
	}
	span := hi - lo + 1
	limit := int64(4096)
	if r := int64(rows) * 2; r > limit {
		limit = r
	}
	if span > limit {
		return 0
	}
	return int(span)
}

type colKey struct{ table, col int }

// Index caches per-column join hash indexes for one dataset. Building a
// column index costs one pass over the column and happens at most once per
// (table, column) pair; after that every query against the dataset shares
// the same maps. An Index is safe for concurrent use; the CardinalityBatch
// worker pool and the corpus-labeling goroutines all read through one
// instance. It also owns a pool of Evaluators so that the package-level
// Cardinality/Selectivity entry points are allocation-free in steady state.
//
// An Index must not outlive mutations of its dataset: callers that change
// table data in place must drop the shared Index via InvalidateIndex.
type Index struct {
	d    *dataset.Dataset
	mu   sync.RWMutex
	cols map[colKey]*ColIndex

	evals sync.Pool
}

// NewIndex returns an empty index over d; column indexes are built lazily
// on first use.
func NewIndex(d *dataset.Dataset) *Index {
	ix := &Index{d: d, cols: make(map[colKey]*ColIndex)}
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
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if c = ix.cols[k]; c != nil {
		return c
	}
	col := ix.d.Tables[ti].Col(ci)
	c = &ColIndex{
		Rows:   make(map[int64][]int32),
		Counts: make(map[int64]int64),
	}
	c.Lo, c.Hi = col.MinMax()
	for r, v := range col.Data {
		c.Rows[v] = append(c.Rows[v], int32(r))
	}
	for v, rows := range c.Rows {
		c.Counts[v] = int64(len(rows))
	}
	if span := denseSpan(c.Lo, c.Hi, len(col.Data)); span > 0 && len(col.Data) > 0 {
		c.Dense = make([]int64, span)
		for v, n := range c.Counts {
			c.Dense[v-c.Lo] = n
		}
	}
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
// hashes would be stale) or to time a cold build.
func InvalidateIndex(d *dataset.Dataset) { d.DropDerived(indexKey{}) }
