package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// instantRetry returns a policy whose sleeps complete instantly but are
// recorded, so tests can assert on the backoff sequence.
func instantRetry(slept *[]time.Duration) Retry {
	return Retry{
		Sleep: func(ctx context.Context, d time.Duration) error {
			if slept != nil {
				*slept = append(*slept, d)
			}
			return ctx.Err()
		},
	}
}

// TestRetryExhaustionReturnsLastUpstreamError is the satellite-pinned
// contract: a spent budget surfaces the final attempt's own error, never a
// synthetic "retries exhausted" wrapper.
func TestRetryExhaustionReturnsLastUpstreamError(t *testing.T) {
	var attempts []int
	err := instantRetry(nil).Do(context.Background(), func(attempt int) error {
		attempts = append(attempts, attempt)
		return fmt.Errorf("upstream failure on attempt %d", attempt)
	})
	if err == nil {
		t.Fatal("want error after exhausting budget")
	}
	if got, want := err.Error(), "upstream failure on attempt 2"; got != want {
		t.Fatalf("err = %q, want the last upstream error %q", got, want)
	}
	if len(attempts) != retryAttempts || attempts[2] != 2 {
		t.Fatalf("attempts = %v, want [0 1 2]", attempts)
	}
}

func TestRetrySucceedsMidBudget(t *testing.T) {
	var slept []time.Duration
	calls := 0
	err := instantRetry(&slept).Do(context.Background(), func(attempt int) error {
		calls++
		if attempt < 1 {
			return errPeer
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("err=%v calls=%d, want success on attempt 2", err, calls)
	}
	if len(slept) != 1 {
		t.Fatalf("slept %v, want exactly one backoff before the retry", slept)
	}
}

func TestRetryFirstTrySuccessSkipsBackoff(t *testing.T) {
	var slept []time.Duration
	if err := instantRetry(&slept).Do(context.Background(), func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 0 {
		t.Fatalf("slept %v, want no backoff on first-try success", slept)
	}
}

// TestRetryBackoffBounds checks the decorrelated-jitter envelope: every
// delay lies in [retryBase, retryCap], and with Rand pinned to its
// extremes the sequence hits the documented bounds exactly.
func TestRetryBackoffBounds(t *testing.T) {
	var r Retry

	// Rand = 0 → always the floor.
	r.Rand = func() float64 { return 0 }
	if got := r.Backoff(0); got != retryBase {
		t.Fatalf("Backoff(0) with rand=0: %v, want retryBase", got)
	}

	// Rand → 1 → tends to min(prev*3, retryCap).
	r.Rand = func() float64 { return 0.999999 }
	d := r.Backoff(0)
	if d < retryBase || d > retryBase+time.Millisecond {
		t.Fatalf("Backoff(0) with prev=0: %v, want ~retryBase (upper bound max(retryBase, prev*3))", d)
	}
	d = r.Backoff(50 * time.Millisecond)
	if d < retryBase || d > 150*time.Millisecond {
		t.Fatalf("Backoff(50ms): %v, want in [retryBase, 150ms]", d)
	}
	// Growth is capped: prev*3 = 1.5s is cut to retryCap.
	d = r.Backoff(500 * time.Millisecond)
	if d < retryCap-time.Millisecond || d > retryCap {
		t.Fatalf("Backoff(500ms): %v, want ~retryCap", d)
	}
	if d = r.Backoff(time.Hour); d > retryCap {
		t.Fatalf("Backoff(1h): %v exceeds retryCap", d)
	}

	// Random draws stay inside the envelope.
	r.Rand = nil
	prev := time.Duration(0)
	for i := 0; i < 100; i++ {
		prev = r.Backoff(prev)
		if prev < retryBase || prev > retryCap {
			t.Fatalf("draw %d: %v outside [%v, %v]", i, prev, retryBase, retryCap)
		}
	}
}

// TestRetryCancelledMidBackoffReturnsUpstreamError checks that a context
// cancelled while backing off still reports the upstream failure, not the
// cancellation.
func TestRetryCancelledMidBackoffReturnsUpstreamError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := Retry{
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel()
			return ctx.Err()
		},
	}
	err := r.Do(ctx, func(int) error { return errPeer })
	if !errors.Is(err, errPeer) {
		t.Fatalf("err = %v, want the upstream error %v", err, errPeer)
	}
}

// TestRetryCancelledDuringAttemptStops checks that an fn failure caused by
// the caller's context going away does not burn the remaining budget.
func TestRetryCancelledDuringAttemptStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := instantRetry(nil).Do(ctx, func(int) error {
		calls++
		cancel()
		return errPeer
	})
	if !errors.Is(err, errPeer) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want the upstream error after one attempt", err, calls)
	}
}

func TestSleepCtx(t *testing.T) {
	if err := sleepCtx(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("sleepCtx: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sleepCtx(ctx, time.Hour); err == nil {
		t.Fatal("sleepCtx with cancelled ctx: want error, not an hour-long wait")
	}
}
