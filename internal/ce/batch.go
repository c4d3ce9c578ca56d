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
	out := make([]float64, 0, len(qs))
	for start := 0; start < len(qs); start += estimateBatchChunk {
		if err := context.Cause(ctx); err != nil {
			return nil, err
		}
		end := start + estimateBatchChunk
		if end > len(qs) {
			end = len(qs)
		}
		out = append(out, est.EstimateBatch(qs[start:end])...)
	}
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// ParallelEstimates implements EstimateBatch by fanning Estimate over
// par.For with GOMAXPROCS workers. Each query's estimate is computed by
// the unchanged per-query path, so values are bit-identical to a serial
// loop regardless of scheduling. Every model's Estimate is safe for
// concurrent use: inference reads the trained state only, and sampling
// models draw a fresh stream per query. A panicking Estimate
// reaches the caller as a *resilience.PanicError, where the serving
// layer's panic fence quarantines the model.
func ParallelEstimates(e singleEstimator, qs []*workload.Query) []float64 {
	out := make([]float64, len(qs))
	par.For(len(qs), runtime.GOMAXPROCS(0), func(i int) error {
		out[i] = e.Estimate(qs[i])
		return nil
	})
	return out
}
