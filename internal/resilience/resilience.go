// Package resilience is the serving stack's fault-tolerance substrate:
// admission control, panic isolation, fleet-level fault tolerance, and
// deterministic fault injection. It depends only on the standard library
// so any layer — the HTTP front-end, the artifact store, individual
// estimators — can use it without import cycles.
//
// Process-level facilities (PR 6):
//
//   - Semaphore: a weighted FIFO counting semaphore (the admission
//     primitive; acquisition is context-bounded, so a request's deadline
//     caps how long it may queue).
//   - Admission: two-class admission control separating cheap snapshot
//     reads (/estimate, /recommend) from expensive mutators (/train,
//     /datasets), plus a bounded single-flight train queue. Overload sheds
//     the expensive class while the cheap class keeps serving from the
//     existing snapshot.
//   - Guard: runs a function behind a panic fence, converting a panic into
//     a typed *PanicError so one faulting model quarantines instead of
//     killing the process.
//   - Failpoint: an env-gated fault-injection hook compiled into the
//     store/onboarding/estimator/proxy paths, driving deterministic
//     fault-injection and soak tests (see the AUTOCE_FAILPOINTS format in
//     failpoint.go).
//
// Fleet-level facilities (used by the autoce-serve shard proxy):
//
//   - Breaker: a per-peer circuit breaker — closed/open/half-open over a
//     sliding failure window with an injected clock, so a crashed shard
//     costs one failure window, not a timeout per request. It is the
//     proxy's only health signal: Ready ranks peers without side
//     effects, and an open breaker whose cooldown has elapsed reads
//     ready again, so the next live request is its half-open probe.
//   - Retry: a bounded retry policy with capped decorrelated-jitter
//     backoff for the idempotent onboarding fan-out; exhausting the
//     budget returns the last upstream error, never a synthetic policy
//     error.
package resilience

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a recovered panic converted into an error by Guard. Name
// identifies the fenced call site, Value is the recovered panic value, and
// Stack the goroutine stack captured at recovery.
type PanicError struct {
	Name  string
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("resilience: panic in %s: %v", e.Name, e.Value)
}

// NewPanicError converts a value recovered at the fence name into a
// *PanicError; call it from the deferred function that recovered v, so
// the captured stack still shows the panicking frames. A value that is
// already a *PanicError — a worker panic re-raised on its caller by
// par.For — keeps its original value and stack under the new name.
func NewPanicError(name string, v any) *PanicError {
	if pe, ok := v.(*PanicError); ok {
		return &PanicError{Name: name, Value: pe.Value, Stack: pe.Stack}
	}
	return &PanicError{Name: name, Value: v, Stack: debug.Stack()}
}

// Guard runs fn behind a panic fence: a panic inside fn is recovered and
// returned as a *PanicError (detectable with errors.As) instead of
// unwinding into the caller. Use it to isolate calls into code that may
// fault — a misbehaving estimator kernel, a fault-injected store — so the
// process survives and the caller can quarantine the faulting component.
func Guard(name string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = NewPanicError(name, r)
		}
	}()
	return fn()
}
