package engine

import (
	"runtime"

	"repro/internal/dataset"
	"repro/internal/par"
)

// CardinalityBatch labels every query in qs with its exact cardinality
// over d and returns the counts in query order. All workers share the
// dataset's shared Index (each join-key column is grouped once, not once
// per query) and draw pooled Evaluators from it, so the whole batch runs
// without per-query allocation. Queries fan out over par.For; this is the
// Stage-1 labeling fast path the testbed and the corpus builder run on.
func CardinalityBatch(d *dataset.Dataset, qs []*Query) []int64 {
	out := make([]int64, len(qs))
	if len(qs) == 0 {
		return out
	}
	ix := IndexFor(d)
	par.For(len(qs), runtime.GOMAXPROCS(0), func(i int) error {
		e := ix.acquire()
		out[i] = e.Cardinality(qs[i])
		ix.release(e)
		return nil
	})
	return out
}
