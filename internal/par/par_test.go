package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
)

// TestForRunsEveryIndexOnce covers the clamping table: n = 0, workers
// above n, workers at or below 1, and ordinary fan-outs. Every index must
// run exactly once, and no more than min(workers, n)-1 goroutines may be
// started beside the caller.
func TestForRunsEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct{ n, workers int }{
		{0, 4},
		{0, 0},
		{1, 8},
		{3, 100},
		{10, 1},
		{10, 0},
		{10, -3},
		{100, 4},
		{1000, 7},
	} {
		t.Run(fmt.Sprintf("n=%d/workers=%d", tc.n, tc.workers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			counts := make([]atomic.Int32, tc.n)
			var peak atomic.Int64
			err := For(tc.n, tc.workers, func(i int) error {
				counts[i].Add(1)
				if g := int64(runtime.NumGoroutine()); g > peak.Load() {
					peak.Store(g)
				}
				time.Sleep(10 * time.Microsecond)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("index %d ran %d times", i, c)
				}
			}
			if tc.n == 0 {
				return
			}
			started := min(max(tc.workers, 1), tc.n) - 1
			if got := int(peak.Load()) - base; got > started {
				t.Fatalf("%d goroutines beside the caller, want at most %d", got, started)
			}
		})
	}
}

// TestForSerialRunsInOrderOnCaller pins the workers <= 1 path: indices
// run in order, and a panic unwinds through the caller's own frames (the
// stack names this test function), proving no goroutine was involved.
func TestForSerialRunsInOrderOnCaller(t *testing.T) {
	for _, workers := range []int{1, 0, -1} {
		var order []int
		if err := For(5, workers, func(i int) error {
			order = append(order, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(order) != "[0 1 2 3 4]" {
			t.Fatalf("workers=%d ran %v, want in-order", workers, order)
		}
		pe := catch(func() {
			For(5, workers, func(i int) error { panic("serial") })
		})
		if pe == nil || !strings.Contains(string(pe.Stack), "TestForSerialRunsInOrderOnCaller") {
			t.Fatalf("workers=%d: serial panic did not unwind on the caller: %+v", workers, pe)
		}
	}
}

// TestForLowestIndexError: the error returned is the one a serial loop
// would return, even when a higher index fails first in wall time, and no
// index is handed out after a failure.
func TestForLowestIndexError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{1, 2, 4, 8} {
		err := For(8, workers, func(i int) error {
			switch i {
			case 2:
				time.Sleep(20 * time.Millisecond)
				return errLow
			case 6:
				return errHigh
			}
			return nil
		})
		if err != errLow {
			t.Fatalf("workers=%d: got %v, want the lowest-index error", workers, err)
		}
	}

	// Stop dispatch: every non-failing call is slow, so once index 5 has
	// failed only the indices already held by the other workers may run.
	const workers, fail = 4, 5
	var ran atomic.Int64
	var maxIdx atomic.Int64
	err := For(1000, workers, func(i int) error {
		ran.Add(1)
		for {
			m := maxIdx.Load()
			if int64(i) <= m || maxIdx.CompareAndSwap(m, int64(i)) {
				break
			}
		}
		if i == fail {
			return errLow
		}
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if err != errLow {
		t.Fatalf("got %v, want %v", err, errLow)
	}
	if m := maxIdx.Load(); m >= fail+workers {
		t.Fatalf("index %d handed out after index %d failed (%d calls)", m, fail, ran.Load())
	}
}

//go:noinline
func panicsHere(v any) { panic(v) }

// TestForPanicReachesCaller: a worker panic is re-raised on the caller as
// a *resilience.PanicError with the original value and the worker's stack,
// for serial and parallel runs and through nested For calls.
func TestForPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	type boom struct{ code int }
	for _, tc := range []struct {
		name    string
		n, w    int
		nested  bool
		trigger int
	}{
		{"serial", 10, 1, false, 3},
		{"parallel", 64, 4, false, 37},
		{"nested", 8, 4, true, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var after atomic.Int64
			pe := catch(func() {
				For(tc.n, tc.w, func(i int) error {
					if tc.nested {
						return For(4, 2, func(j int) error {
							if i == tc.trigger && j == 3 {
								panicsHere(boom{i})
							}
							return nil
						})
					}
					if i == tc.trigger {
						panicsHere(boom{i})
					}
					if i > tc.trigger+tc.w {
						after.Add(1)
					}
					time.Sleep(time.Millisecond)
					return nil
				})
			})
			if pe == nil {
				t.Fatal("panic did not reach the caller")
			}
			if pe.Value != (boom{tc.trigger}) {
				t.Fatalf("panic value %#v, want %#v", pe.Value, boom{tc.trigger})
			}
			if !strings.Contains(string(pe.Stack), "panicsHere") {
				t.Fatalf("stack lacks the panicking frame:\n%s", pe.Stack)
			}
			if !tc.nested && after.Load() > int64(tc.w) {
				t.Fatalf("%d indices past the panic still ran", after.Load())
			}
		})
	}
}

// TestForPanicIsGuarded: the re-raised panic is what resilience.Guard
// fences, and the worker's stack survives the fence.
func TestForPanicIsGuarded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	err := resilience.Guard("fence", func() error {
		return For(16, 4, func(i int) error {
			if i == 9 {
				panicsHere("guarded")
			}
			return nil
		})
	})
	var pe *resilience.PanicError
	if !errors.As(err, &pe) || pe.Name != "fence" || pe.Value != "guarded" ||
		!strings.Contains(string(pe.Stack), "panicsHere") {
		t.Fatalf("Guard returned %v (%+v)", err, pe)
	}
}

// TestForWritesAreVisible: plain writes made by workers are visible to
// the caller once For returns (under -race this checks the ordering).
func TestForWritesAreVisible(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	out := make([]int, 500)
	For(len(out), 4, func(i int) error {
		out[i] = i * i
		return nil
	})
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// catch runs f and returns the *resilience.PanicError it panicked with,
// or nil if it returned normally.
func catch(f func()) (pe *resilience.PanicError) {
	defer func() {
		if v := recover(); v != nil {
			pe = v.(*resilience.PanicError)
		}
	}()
	f()
	return nil
}
