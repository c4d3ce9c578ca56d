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
	// One allocation holds every piece of shared state, so a fan-out costs
	// it plus one per started goroutine.
	st := &forState{n: n, errAt: n, fn: fn}
	st.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go st.worker()
	}
	st.work()
	st.wg.Wait()
	if st.panicked != nil {
		panic(st.panicked)
	}
	return st.err
}

// forState is what the workers of one For call share.
type forState struct {
	next     atomic.Int64
	n        int
	fn       func(i int) error
	wg       sync.WaitGroup
	mu       sync.Mutex // guards errAt, err and panicked
	errAt    int
	err      error
	panicked *resilience.PanicError
}

func (st *forState) worker() {
	defer st.wg.Done()
	st.work()
}

// work runs indices from the shared counter until they run out, an
// index fails, or fn panics.
func (st *forState) work() {
	defer func() {
		if v := recover(); v != nil {
			st.next.Store(int64(st.n))
			pe := resilience.NewPanicError("par.For", v)
			st.mu.Lock()
			if st.panicked == nil {
				st.panicked = pe
			}
			st.mu.Unlock()
		}
	}()
	for {
		i := int(st.next.Add(1)) - 1
		if i >= st.n {
			return
		}
		if e := st.fn(i); e != nil {
			st.next.Store(int64(st.n))
			st.mu.Lock()
			if i < st.errAt {
				st.errAt, st.err = i, e
			}
			st.mu.Unlock()
			return
		}
	}
}
