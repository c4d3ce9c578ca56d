package resilience

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for deterministic breaker tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testBreaker(clk *fakeClock) *Breaker {
	return NewBreaker(BreakerConfig{
		Failures: 3,
		Window:   10 * time.Second,
		Cooldown: 2 * time.Second,
		Now:      clk.now,
	})
}

var errPeer = errors.New("peer: connection refused")

// TestBreakerLifecycle drives the full closed → open → half-open → closed
// cycle (and the half-open → open regression) as a table of steps under an
// injected clock. After every step the ready column pins Ready, which
// must answer what Allow would without moving the state: an open breaker
// reads ready once its cooldown has elapsed, while State still says open
// and Allow still admits exactly one probe.
func TestBreakerLifecycle(t *testing.T) {
	type step struct {
		name      string
		advance   time.Duration
		allow     *bool // if set, call Allow and expect this
		record    error // if allow not set, call Record with this
		doRecord  bool
		wantState BreakerState
		ready     bool
	}
	yes, no := true, false
	steps := []step{
		{name: "closed allows", allow: &yes, wantState: BreakerClosed, ready: true},
		{name: "failure 1", record: errPeer, doRecord: true, wantState: BreakerClosed, ready: true},
		{name: "failure 2", record: errPeer, doRecord: true, wantState: BreakerClosed, ready: true},
		{name: "still allows below threshold", allow: &yes, wantState: BreakerClosed, ready: true},
		{name: "failure 3 opens", record: errPeer, doRecord: true, wantState: BreakerOpen, ready: false},
		{name: "open refuses", allow: &no, wantState: BreakerOpen, ready: false},
		{name: "open refuses mid-cooldown", advance: time.Second, allow: &no, wantState: BreakerOpen, ready: false},
		{name: "cooldown elapses: ready, still open", advance: 1500 * time.Millisecond, wantState: BreakerOpen, ready: true},
		{name: "half-open probe admitted", allow: &yes, wantState: BreakerHalfOpen, ready: false},
		{name: "second probe refused", allow: &no, wantState: BreakerHalfOpen, ready: false},
		{name: "probe failure reopens", record: errPeer, doRecord: true, wantState: BreakerOpen, ready: false},
		{name: "reopened refuses", allow: &no, wantState: BreakerOpen, ready: false},
		{name: "second cooldown: probe admitted again", advance: 2500 * time.Millisecond, allow: &yes, wantState: BreakerHalfOpen, ready: false},
		{name: "probe success closes", record: nil, doRecord: true, wantState: BreakerClosed, ready: true},
		{name: "closed again allows", allow: &yes, wantState: BreakerClosed, ready: true},
		// The half-open success cleared the window: three fresh failures
		// are needed to open again, not one.
		{name: "post-close failure 1", record: errPeer, doRecord: true, wantState: BreakerClosed, ready: true},
		{name: "post-close failure 2", record: errPeer, doRecord: true, wantState: BreakerClosed, ready: true},
		{name: "post-close failure 3 opens", record: errPeer, doRecord: true, wantState: BreakerOpen, ready: false},
	}

	clk := newFakeClock()
	b := testBreaker(clk)
	for _, s := range steps {
		clk.advance(s.advance)
		if s.allow != nil {
			if got := b.Allow(); got != *s.allow {
				t.Fatalf("%s: Allow() = %v, want %v", s.name, got, *s.allow)
			}
		} else if s.doRecord || s.record != nil {
			b.Record(s.record)
		}
		if got := b.Ready(); got != s.ready {
			t.Fatalf("%s: Ready() = %v, want %v", s.name, got, s.ready)
		}
		if got := b.State(); got != s.wantState {
			t.Fatalf("%s: state = %v, want %v", s.name, got, s.wantState)
		}
	}
}

// TestBreakerWindowExpiry checks that failures spread wider than Window
// never open the breaker: old failures are pruned before counting.
func TestBreakerWindowExpiry(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 10; i++ {
		b.Record(errPeer)
		clk.advance(6 * time.Second) // 2 failures per 10s window, threshold is 3
		if got := b.State(); got != BreakerClosed {
			t.Fatalf("after spread failure %d: state = %v, want closed", i+1, got)
		}
	}
	// Three failures inside one window still open it.
	b.Record(errPeer)
	b.Record(errPeer)
	b.Record(errPeer)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("after burst: state = %v, want open", got)
	}
}

// TestBreakerOpenIgnoresLateResults checks that outcomes recorded while
// open (stragglers from attempts admitted before the trip) neither extend
// the cooldown nor close the breaker.
func TestBreakerOpenIgnoresLateResults(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 3; i++ {
		b.Record(errPeer)
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	clk.advance(time.Second)
	b.Record(nil)     // late success: must not close
	b.Record(errPeer) // late failure: must not reset openedAt
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("after late results: state = %v, want open", got)
	}
	// Cooldown measured from the original trip, not the late failure.
	clk.advance(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooldown should have elapsed from the original trip time")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
}

// TestBreakerHalfOpenProbeBudget checks the configured number of probes is
// admitted while half-open and no more.
func TestBreakerHalfOpenProbeBudget(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{
		Failures: 1, Window: 10 * time.Second, Cooldown: time.Second,
		HalfOpenProbes: 2, Now: clk.now,
	})
	b.Record(errPeer)
	clk.advance(1100 * time.Millisecond)
	if !b.Allow() || !b.Allow() {
		t.Fatal("want 2 half-open probes admitted")
	}
	if b.Allow() {
		t.Fatal("third probe admitted beyond HalfOpenProbes=2")
	}
}

// TestBreakerConcurrentReadmission: once the cooldown has elapsed, every
// concurrent caller may read the breaker as ready, but only one of them
// is admitted as the half-open probe.
func TestBreakerConcurrentReadmission(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 3; i++ {
		b.Record(errPeer)
	}
	clk.advance(2500 * time.Millisecond)
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Ready() && b.Allow() {
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := admitted.Load(); n != 1 {
		t.Fatalf("%d concurrent callers admitted after the cooldown, want exactly 1 probe", n)
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
}

// TestBreakerSnapshot checks the diagnostics surface: consecutive failure
// count and last error text.
func TestBreakerSnapshot(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	b.Record(errPeer)
	b.Record(errPeer)
	state, consec, lastErr := b.Snapshot()
	if state != BreakerClosed || consec != 2 || lastErr != errPeer.Error() {
		t.Fatalf("Snapshot() = (%v, %d, %q), want (closed, 2, %q)", state, consec, lastErr, errPeer.Error())
	}
	b.Record(nil)
	if _, consec, lastErr := b.Snapshot(); consec != 0 || lastErr != "" {
		t.Fatalf("after success: consec=%d lastErr=%q, want 0 and empty", consec, lastErr)
	}
}

func TestBreakerStateString(t *testing.T) {
	for state, want := range map[BreakerState]string{
		BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open",
	} {
		if got := state.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", state, got, want)
		}
	}
}
