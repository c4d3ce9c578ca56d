package engine

import (
	"slices"
	"sync"

	"repro/internal/dataset"
)

// ColIndex is a grouped view of one column. Its rows fall into numbered
// groups, one per distinct value: v-Lo is the group of value v for a
// dense-domain column (span Hi-Lo+1 small relative to the row count),
// grouped by one counting sort with no map; a wide-domain column numbers
// its values by first appearance through one map. A trailing empty group
// stands for every value no row holds, so a probe that misses still lands
// on a group, of multiplicity 0.
//
// Join evaluation borrows it read-only: the per-group counts are the
// ready-made message an unpredicated leaf table sends up the join tree,
// the group rows are the build side of hash joins over unpredicated
// tables, and a dense column's value-contiguous groups turn a range
// predicate into one contiguous run of row ids.
type ColIndex struct {
	// Lo and Hi are the column's value bounds.
	Lo, Hi int64

	counts []int64         // rows per group, then the trailing group's 0
	off    []int32         // group g holds rows[off[g]:off[g+1]]
	rows   []int32         // row ids grouped by value, ascending within a group
	groups map[int64]int32 // wide columns: value -> group; nil when dense
}

// group returns the group of value v, or the trailing empty group when no
// row holds v.
func (c *ColIndex) group(v int64) int32 {
	miss := int32(len(c.counts) - 1)
	if c.groups == nil {
		if i := v - c.Lo; uint64(i) < uint64(miss) {
			return int32(i)
		}
		return miss
	}
	if g, ok := c.groups[v]; ok {
		return g
	}
	return miss
}

// groupRows returns the ascending ids of the rows of group g. The slice
// aliases the index and must not be modified.
func (c *ColIndex) groupRows(g int32) []int32 {
	return c.rows[c.off[g]:c.off[g+1]:c.off[g+1]]
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
	var codes []int32 // wide columns: the group of each row
	if span := denseSpan(lo, hi, len(data)); span > 0 {
		c.counts = make([]int64, span+1)
		for _, v := range data {
			c.counts[v-lo]++
		}
	} else {
		c.groups = make(map[int64]int32)
		codes = make([]int32, len(data))
		for r, v := range data {
			g, ok := c.groups[v]
			if !ok {
				g = int32(len(c.counts))
				c.groups[v] = g
				c.counts = append(c.counts, 0)
			}
			c.counts[g]++
			codes[r] = g
		}
		c.counts = append(c.counts, 0)
	}
	c.off = make([]int32, len(c.counts)+1)
	for g, n := range c.counts {
		c.off[g+1] = c.off[g] + int32(n)
	}
	next := slices.Clone(c.off[:len(c.counts)])
	for r, v := range data {
		g := int32(v - lo)
		if codes != nil {
			g = codes[r]
		}
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

// probeKey names the probe of one column's rows into another column's
// groups.
type probeKey struct{ probe, key colKey }

// Index caches per-column ColIndexes for one dataset, and the probes that
// join evaluation reads through them. Building a column index costs a
// bounds pass and a grouping pass over the column and happens at most once
// per (table, column) pair; a probe costs one pass over the probing column
// and happens at most once per (probe column, key column) pair. After that
// every query against the dataset shares them. An Index is safe for
// concurrent use; the CardinalityBatch worker pool and the corpus-labeling
// goroutines all read through one instance. It also owns a pool of
// Evaluators so that the package-level Cardinality entry point is
// allocation-free in steady state.
//
// An Index must not outlive mutations of its dataset: callers that change
// table data in place must drop the shared Index via InvalidateIndex.
type Index struct {
	d    *dataset.Dataset
	mu   sync.RWMutex
	cols map[colKey]*ColIndex
	// wide marks columns found to have a wide domain by denseCol, whose
	// index it declines to build.
	wide   map[colKey]bool
	probes map[probeKey][]int32

	evals sync.Pool
}

// NewIndex returns an empty index over d; column indexes are built lazily
// on first use.
func NewIndex(d *dataset.Dataset) *Index {
	ix := &Index{
		d:      d,
		cols:   make(map[colKey]*ColIndex),
		wide:   make(map[colKey]bool),
		probes: make(map[probeKey][]int32),
	}
	ix.evals.New = func() any { return newEvaluator(d, ix) }
	return ix
}

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
		if c.groups != nil {
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

// probe returns, for every row of column pc of table pt, the group its
// value falls in within the index of column kc of table kt: the trailing
// empty group when no row of that column holds the value. A key column's
// probe into itself lists each row's own group, read off the grouping
// without a map lookup. Each probe is built on first use.
func (ix *Index) probe(pt, pc, kt, kc int) []int32 {
	k := probeKey{colKey{pt, pc}, colKey{kt, kc}}
	ix.mu.RLock()
	p := ix.probes[k]
	ix.mu.RUnlock()
	if p != nil {
		return p
	}
	key := ix.Col(kt, kc)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if p := ix.probes[k]; p != nil {
		return p
	}
	data := ix.d.Tables[pt].Col(pc).Data
	p = make([]int32, len(data))
	if k.probe == k.key {
		for g := range int32(len(key.counts) - 1) {
			for _, r := range key.groupRows(g) {
				p[r] = g
			}
		}
	} else {
		for r, v := range data {
			p[r] = key.group(v)
		}
	}
	ix.probes[k] = p
	return p
}

// acquire hands out a pooled evaluator bound to this index.
func (ix *Index) acquire() *Evaluator { return ix.evals.Get().(*Evaluator) }

// release returns a pooled evaluator.
func (ix *Index) release(e *Evaluator) { ix.evals.Put(e) }

// indexKey keys the shared Index in dataset.Dataset.Derived.
type indexKey struct{}

// IndexFor returns the shared index of d, creating it on first use. The
// index lives on d until its owner drops it with InvalidateIndex or d is
// collected. Owners that keep a dataset past its labeling release it:
// the offline corpus once its workloads are labeled
// (experiments.LabelDatasets), and autoce-serve after each /train's
// input staging, the only part of serving that reads it.
func IndexFor(d *dataset.Dataset) *Index {
	return d.Derived(indexKey{}, func() any { return NewIndex(d) }).(*Index)
}

// InvalidateIndex drops the shared index of d, so the next IndexFor
// builds a fresh one. Call it after mutating d's table data in place (the
// groups would be stale) or to time a cold build.
func InvalidateIndex(d *dataset.Dataset) { d.DropDerived(indexKey{}) }
