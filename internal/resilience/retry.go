package resilience

import (
	"context"
	"math/rand/v2"
	"time"
)

// Retry is a bounded retry policy with capped decorrelated-jitter
// backoff, built for idempotent work only. The fleet proxy applies it to
// one thing: a primary's onboarding fan-out to its replica set, where
// re-sending an identical /datasets payload is idempotent and backoff
// rides out a replica shedding under an onboarding burst. Client writes
// are never replayed (a replayed /train would double-spend the training
// budget), and forwarded reads fail over across the replica set once per
// member instead of retrying.
//
// The backoff follows the decorrelated-jitter scheme: each delay is drawn
// uniformly from [retryBase, prev*3], capped at retryCap, so concurrent
// retriers decorrelate instead of thundering in lockstep. A spent budget
// of retryAttempts tries returns the last error the attempt itself
// produced — never a synthetic "budget exhausted" error that would mask
// the real failure.
type Retry struct {
	// Sleep waits between attempts; nil uses a timer that aborts on
	// context cancellation. Tests inject an instant clock here.
	Sleep func(ctx context.Context, d time.Duration) error
	// Rand draws the jitter in [0,1); nil uses math/rand/v2. Tests inject
	// a fixed sequence for deterministic delays.
	Rand func() float64
}

// The retry budget: total tries including the first, the backoff floor,
// and the bound on every delay.
const (
	retryAttempts = 3
	retryBase     = 25 * time.Millisecond
	retryCap      = time.Second
)

func (r Retry) withDefaults() Retry {
	if r.Sleep == nil {
		r.Sleep = sleepCtx
	}
	if r.Rand == nil {
		r.Rand = rand.Float64
	}
	return r
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-t.C:
		return nil
	}
}

// Backoff returns the delay to wait after a failed attempt, given the
// previous delay (pass 0 before the first retry): uniform in
// [retryBase, prev*3], capped at retryCap.
func (r Retry) Backoff(prev time.Duration) time.Duration {
	r = r.withDefaults()
	hi := min(max(prev*3, retryBase), retryCap)
	return min(retryBase+time.Duration(r.Rand()*float64(hi-retryBase)), retryCap)
}

// Do runs fn until it succeeds, the attempt budget is exhausted, or ctx
// is cancelled, backing off between attempts. fn receives the attempt
// number (0-based) so callers can rotate across failover targets. The
// returned error is always the last error fn produced — budget
// exhaustion and mid-backoff cancellation both surface the upstream
// failure, not a policy error (an operator debugging a 502 needs the
// peer's error, not "retries exhausted").
func (r Retry) Do(ctx context.Context, fn func(attempt int) error) error {
	r = r.withDefaults()
	var err error
	delay := time.Duration(0)
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			delay = r.Backoff(delay)
			if r.Sleep(ctx, delay) != nil {
				return err // cancelled mid-backoff: last upstream error
			}
		}
		if err = fn(attempt); err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
	}
	return err
}
