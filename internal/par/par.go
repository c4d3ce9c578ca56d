// Package par is the repository's one worker pool. Every fan-out in the
// offline pipeline — oracle labeling, per-model training, feature
// extraction, summary builds, RCS recommendation and index construction —
// runs through For, so worker count, error order and panic safety are
// decided once, here.
//
// Code outside this package starts no goroutines of its own for
// parallel work; the barego rule of cmd/autoce-vet enforces it.
package par

import (
	"sync"
	"sync/atomic"

	"repro/internal/resilience"
)

// For runs fn(i) for every i in [0, n) on up to workers goroutines and
// waits for all of them. The calling goroutine is one of the workers, so
// workers-1 goroutines are started; workers is clamped to [1, n], and
// workers <= 1 runs every index in order on the caller.
//
// Indices are handed out in increasing order from one shared counter.
// After fn returns an error no new index is handed out, and For returns
// the error of the lowest failing index — every lower index was handed
// out earlier and ran to completion, so this is the error a serial loop
// would return, whatever the scheduling.
//
// A panic in fn, on any worker, also stops dispatch; once the running
// calls finish, For re-panics on the caller with a *resilience.PanicError
// carrying the first panic's value and the stack of the goroutine that
// raised it, so the caller's panic fences (resilience.Guard, the HTTP
// recovery middleware) see it instead of the runtime killing the process.
func For(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = min(max(workers, 1), n)
	var (
		next     atomic.Int64
		mu       sync.Mutex
		errAt    = n
		err      error
		panicked *resilience.PanicError
	)
	work := func() {
		defer func() {
			if v := recover(); v != nil {
				next.Store(int64(n))
				pe := resilience.NewPanicError("par.For", v)
				mu.Lock()
				if panicked == nil {
					panicked = pe
				}
				mu.Unlock()
			}
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if e := fn(i); e != nil {
				next.Store(int64(n))
				mu.Lock()
				if i < errAt {
					errAt, err = i, e
				}
				mu.Unlock()
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return err
}
