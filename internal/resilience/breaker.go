package resilience

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed: requests flow; failures are being counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests are refused until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: a bounded number of probe requests may test the
	// peer; one success closes the breaker, one failure reopens it.
	BreakerHalfOpen
)

// String implements fmt.Stringer for health surfaces.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes a Breaker. The zero value of any field falls back
// to its default.
type BreakerConfig struct {
	// Failures opens the breaker when that many failures land within
	// Window (default 5).
	Failures int
	// Window is the sliding interval failures are counted over (default
	// 10s). Failures older than Window do not count toward opening.
	Window time.Duration
	// Cooldown is how long an open breaker refuses before letting probes
	// through half-open (default 2s).
	Cooldown time.Duration
	// HalfOpenProbes bounds concurrent probes admitted while half-open
	// (default 1).
	HalfOpenProbes int
	// Now is the injected clock (default time.Now) — tests drive the
	// state machine deterministically through it.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Failures <= 0 {
		c.Failures = 5
	}
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a per-peer circuit breaker: closed while the peer behaves,
// open (failing fast, no network cost) after Failures failures inside the
// sliding Window, half-open after Cooldown to let a bounded number of
// probes test recovery. Callers ask Allow before attempting and Record
// the outcome after; the breaker never performs I/O itself. Safe for
// concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	failures []time.Time // ring of recent failure times, len <= cfg.Failures
	openedAt time.Time
	probes   int // probes admitted since entering half-open
	// consec counts consecutive failures (diagnostics for health tables;
	// the open/close decisions use the sliding window, not this).
	consec  int
	lastErr string
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a request may proceed. An open breaker whose
// cooldown has elapsed transitions to half-open here and admits the
// caller as a probe; a half-open breaker admits at most HalfOpenProbes
// callers until an outcome is recorded.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.ready() {
		return false
	}
	switch b.state {
	case BreakerOpen:
		b.state = BreakerHalfOpen
		b.probes = 1
	case BreakerHalfOpen:
		b.probes++
	}
	return true
}

// Ready reports what Allow would answer now, without its side effects:
// it takes no half-open probe slot and moves no state. An open breaker
// whose cooldown has elapsed is ready, so a caller ranking peers by
// Ready sends it the next request, and that request's Allow makes it
// the half-open probe.
func (b *Breaker) Ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ready()
}

func (b *Breaker) ready() bool {
	switch b.state {
	case BreakerOpen:
		return b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown
	case BreakerHalfOpen:
		return b.probes < b.cfg.HalfOpenProbes
	default: // closed
		return true
	}
}

// Record feeds one request outcome into the state machine. A half-open
// success closes the breaker (clearing the window); a half-open failure
// reopens it for a fresh cooldown. In the closed state, err != nil
// appends to the sliding failure window and opens the breaker once
// Failures failures land within Window.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Now()
	if err == nil {
		b.consec = 0
		b.lastErr = ""
		switch b.state {
		case BreakerHalfOpen:
			b.state = BreakerClosed
			b.failures = b.failures[:0]
		}
		return
	}
	b.consec++
	b.lastErr = err.Error()
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = now
	case BreakerClosed:
		// Prune entries that fell out of the window, then append.
		keep := b.failures[:0]
		for _, t := range b.failures {
			if now.Sub(t) < b.cfg.Window {
				keep = append(keep, t)
			}
		}
		b.failures = append(keep, now)
		if len(b.failures) >= b.cfg.Failures {
			b.state = BreakerOpen
			b.openedAt = now
			b.failures = b.failures[:0]
		}
	}
	// Open: late results from attempts admitted before opening carry no
	// new information; ignore them.
}

// State returns the breaker's current position without side effects (an
// elapsed cooldown is reported as open until the next Allow transitions
// it — State is a read for health surfaces; Ready is the admission
// query).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Snapshot returns the state plus the diagnostics a health table shows:
// consecutive failures and the most recent error text.
func (b *Breaker) Snapshot() (state BreakerState, consecFailures int, lastErr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.consec, b.lastErr
}
