package testbed

import (
	"sync"

	"repro/internal/par"
)

// TrainAll fans the (dataset, model) training jobs of the prepared runs
// over par.For with the given worker count and returns the error of the
// first failing job in job order. Jobs are independent (see
// Prepared.TrainModel) and each model seeds its own RNG from the run
// configuration, so the trained models — and therefore the labels Finish
// produces — are identical to the serial path regardless of scheduling
// order.
//
// onDone, when non-nil, is invoked (from a worker goroutine) with a run's
// index as soon as that run's last training job completes; runs complete
// in data-dependent order, possibly concurrently with other runs'
// training. Callers use it to Finish and release each run's models while
// the rest of the corpus is still training, keeping peak memory bounded
// by the in-flight window instead of the whole corpus.
func TrainAll(preps []*Prepared, workers int, onDone func(i int) error) error {
	type job struct{ di, mi int }
	var jobs []job
	remaining := make([]int, len(preps))
	for di, p := range preps {
		remaining[di] = p.NumModels()
		for mi := 0; mi < p.NumModels(); mi++ {
			jobs = append(jobs, job{di, mi})
		}
	}
	var mu sync.Mutex
	return par.For(len(jobs), workers, func(i int) error {
		j := jobs[i]
		if err := preps[j.di].TrainModel(j.mi); err != nil {
			return err
		}
		mu.Lock()
		remaining[j.di]--
		done := remaining[j.di] == 0
		mu.Unlock()
		if done && onDone != nil {
			return onDone(j.di)
		}
		return nil
	})
}
