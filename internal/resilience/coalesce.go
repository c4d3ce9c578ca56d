package resilience

import (
	"fmt"
	"sync"
)

// Coalescer merges concurrent calls that share a key into batched
// executions. It is the ride-sharing half of the serving stack's admission
// story: N concurrent single-query /estimate calls for the same (tenant,
// model) become one EstimateBatch that admits once at the merged weight,
// instead of N separate admissions and N separate inference dispatches.
//
// The policy is conflation, not a timer window: when no execution is in
// flight for a key, a caller runs immediately with only its own items —
// coalescing never adds latency to an idle key. While an execution is in
// flight, arrivals accumulate into the next batch; when the flight lands,
// the accumulated batch runs as one. Throughput under contention therefore
// approaches one execution per flight-time regardless of caller count,
// and per-item results are exactly what back-to-back batched calls in
// arrival order would have produced.
//
// Each batch executes the run function supplied by its first member (the
// batch leader); later joiners' run functions are ignored. Do blocks until
// the batch containing the caller's items completes, so run must be
// time-bounded (the serving stack bounds it with the estimate deadline).
// A panic inside run is recovered into a *PanicError and delivered to
// every member of the batch.
type Coalescer[T, R any] struct {
	// MaxBatch caps how many items may accumulate into one pending batch;
	// a caller whose items would overflow it executes solo instead of
	// joining. 0 means unlimited.
	MaxBatch int

	mu   sync.Mutex
	keys map[string]*coalesceKey[T, R]
}

type coalesceBatch[T, R any] struct {
	items []T
	run   func([]T) ([]R, error)
	start chan struct{} // closed to promote the pending batch's leader
	done  chan struct{} // closed once results/err are set
	out   []R
	err   error
}

type coalesceKey[T, R any] struct {
	inflight *coalesceBatch[T, R]
	pending  *coalesceBatch[T, R]
}

// Do submits items under key. If no batch for key is executing, items run
// immediately via run. Otherwise the items join the pending batch, which
// executes (using its leader's run) as soon as the in-flight batch
// completes. The returned slice holds exactly the caller's results, in
// item order; on error every member of the failed batch receives the same
// error.
func (c *Coalescer[T, R]) Do(key string, items []T, run func([]T) ([]R, error)) ([]R, error) {
	if len(items) == 0 {
		return nil, nil
	}
	c.mu.Lock()
	if c.keys == nil {
		c.keys = make(map[string]*coalesceKey[T, R])
	}
	ks := c.keys[key]
	if ks == nil {
		ks = &coalesceKey[T, R]{}
		c.keys[key] = ks
	}
	if ks.inflight == nil {
		// Idle key: lead a batch of just our items, no waiting.
		b := &coalesceBatch[T, R]{items: items, run: run, done: make(chan struct{})}
		ks.inflight = b
		c.mu.Unlock()
		c.execute(key, b)
		if b.err != nil {
			return nil, b.err
		}
		return b.out[:len(items):len(items)], nil
	}
	if c.MaxBatch > 0 && ks.pending != nil && len(ks.pending.items)+len(items) > c.MaxBatch {
		// Joining would overflow the pending batch: execute solo. The model
		// layer's own guards (per-model mutexes) keep this correct; only
		// the merge is skipped.
		c.mu.Unlock()
		return run(items)
	}
	lead := ks.pending == nil
	if lead {
		ks.pending = &coalesceBatch[T, R]{run: run, start: make(chan struct{}), done: make(chan struct{})}
	}
	b := ks.pending
	off := len(b.items)
	b.items = append(b.items, items...)
	c.mu.Unlock()

	if lead {
		// Promotion closes start once the in-flight batch lands. The wait is
		// bounded by that batch's run (deadline-bounded by the caller's
		// policy), so no context racing is needed here — and the leader must
		// not abandon the batch, because later joiners ride on it.
		<-b.start
		c.execute(key, b)
	} else {
		<-b.done
	}
	if b.err != nil {
		return nil, b.err
	}
	return b.out[off : off+len(items) : off+len(items)], nil
}

// execute runs b (already installed as key's inflight batch), publishes
// its results, and promotes the pending batch, if any.
func (c *Coalescer[T, R]) execute(key string, b *coalesceBatch[T, R]) {
	func() {
		defer func() {
			if r := recover(); r != nil {
				b.err = NewPanicError("coalesce:"+key, r)
			}
		}()
		b.out, b.err = b.run(b.items)
	}()
	if b.err == nil && len(b.out) != len(b.items) {
		b.err = fmt.Errorf("resilience: coalesced run returned %d results for %d items", len(b.out), len(b.items))
	}

	c.mu.Lock()
	ks := c.keys[key]
	next := ks.pending
	ks.inflight, ks.pending = next, nil
	if next == nil {
		delete(c.keys, key)
	}
	c.mu.Unlock()

	close(b.done)
	if next != nil {
		close(next.start)
	}
}
