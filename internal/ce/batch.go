package ce

import (
	"context"
	"runtime"

	"repro/internal/par"
	"repro/internal/workload"
)

// singleEstimator is the per-query half of Estimator, the receiver the
// batch helpers fan out over.
type singleEstimator interface {
	Estimate(q *workload.Query) float64
}

// estimateBatchChunk bounds how much work EstimateBatchContext commits to
// between cancellation checks. Batch rows are computed independently, so
// slicing a batch changes nothing about the values (the conformance suite
// pins EstimateBatch ≡ per-query Estimate for every model, chunked or
// not); it only bounds how long a doomed request keeps burning CPU after
// its deadline.
const estimateBatchChunk = 512

// EstimateBatchContext runs est.EstimateBatch under a deadline: the batch
// is processed in estimateBatchChunk-query slices with a cancellation
// check between slices, returning the context's cause (and no estimates)
// once the deadline fires. Results are bit-identical to one
// est.EstimateBatch call — batch estimates are independent per row, so
// chunk boundaries cannot change values. A nil-deadline context degrades
// to plain EstimateBatch plus one atomic load per chunk.
func EstimateBatchContext(ctx context.Context, est Estimator, qs []*workload.Query) ([]float64, error) {
	var out []float64
	for start := 0; start < len(qs); start += estimateBatchChunk {
		if err := context.Cause(ctx); err != nil {
			return nil, err
		}
		end := min(start+estimateBatchChunk, len(qs))
		ests := est.EstimateBatch(qs[start:end])
		if end-start == len(qs) {
			out = ests // one chunk: answer with the batch's own slice
			break
		}
		if out == nil {
			out = make([]float64, 0, len(qs))
		}
		out = append(out, ests...)
	}
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// ParallelEstimates implements EstimateBatch by fanning Estimate over
// par.For with GOMAXPROCS workers; a single query runs on the caller.
// Each query's estimate is computed by the unchanged per-query path, so
// values are bit-identical to a serial loop regardless of scheduling.
// Every model's Estimate is safe for concurrent use: inference reads the
// trained state only, sampling models draw a fresh stream per query, and
// per-call scratch comes from the model's pools. A panicking Estimate in
// a batch reaches the caller as a *resilience.PanicError, a single
// query's panic unwinds as it is; the serving layer's panic fence
// (resilience.Guard) turns either into a quarantine.
func ParallelEstimates(e singleEstimator, qs []*workload.Query) []float64 {
	out := make([]float64, len(qs))
	if len(qs) == 1 {
		out[0] = e.Estimate(qs[0])
		return out
	}
	par.For(len(qs), runtime.GOMAXPROCS(0), func(i int) error {
		out[i] = e.Estimate(qs[i])
		return nil
	})
	return out
}
