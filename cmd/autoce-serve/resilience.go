package main

// The resilience half of the serving front-end: per-endpoint deadlines,
// two-class admission control with a bounded train queue, and panic
// isolation. Policy lives in serveOptions; mechanism (semaphores, panic
// fences, failpoints) lives in internal/resilience.
//
// Endpoint classes and default deadlines:
//
//	endpoint    class                 deadline   over capacity
//	/estimate   cheap, weight=batch   5s         503 after deadline wait
//	/recommend  cheap, weight=1       2s         503 after deadline wait
//	/drift      cheap, weight=1       2s         503 after deadline wait
//	/datasets   heavy                 60s        503 immediately (shed)
//	/adapt      heavy                 60s        503 immediately (shed)
//	/train      queued single-flight  120s       429 + Retry-After (queue
//	                                             full) or 503 (slot wait
//	                                             exceeded deadline)
//	/models, /healthz, /readyz: unclassed, no deadline (O(1) reads)
//
// The cheap and heavy classes use disjoint semaphores: saturating
// training or onboarding can never block an /estimate, which keeps
// serving from the published snapshot — shed-on-overload, not
// queue-and-collapse.
//
// On a sharded instance (shard.go), dataset-addressed endpoints answer
// 421 Misdirected Request before admission when this shard cannot serve
// the dataset: reads 421 outside the replica set, writes everywhere but
// the primary. With peers configured the fleet proxy (proxy.go) forwards
// instead — reads with per-peer breaker failover, one attempt per
// replica-set member under PeerTimeout, writes once to the primary under
// the endpoint's own deadline — and a forward that exhausts every option
// answers a JSON 502.

import (
	"context"
	"errors"
	"log"
	"net/http"
	"time"

	"repro/internal/resilience"
)

// serveOptions is the resilience policy of one server instance: the
// per-endpoint handler deadlines and the admission-class sizing. The
// zero value of any field falls back to its default, so tests override
// only what they pin down.
type serveOptions struct {
	// QuickDeadline bounds the advisor's O(RCS) snapshot reads
	// (/recommend, /drift).
	QuickDeadline time.Duration
	// EstimateDeadline bounds /estimate; the batch is estimated in chunks
	// with cancellation checks between them, so a huge batch times out
	// instead of wedging a connection.
	EstimateDeadline time.Duration
	// TrainDeadline bounds /train end to end: queue wait, input staging,
	// and the Fit itself (abandoned cooperatively at epoch checkpoints).
	TrainDeadline time.Duration
	// OnboardDeadline bounds /datasets and /adapt.
	OnboardDeadline time.Duration
	// Admission sizes the two admission classes and the train queue.
	Admission resilience.AdmissionConfig
	// ModelBudget caps resident trained models across all tenants;
	// crossing it pages least-recently-used models out to the artifact
	// store (cache.go). 0 = unlimited; it requires a store to take effect.
	ModelBudget int
	// Shard scopes this instance to the datasets it backs in a sharded
	// fleet; nil serves everything (shard.go).
	Shard *sharder
	// PeerTimeout bounds each forwarded read attempt in the fleet proxy
	// (default 5s, matching EstimateDeadline's default); write forwards
	// use the target endpoint's own deadline.
	PeerTimeout time.Duration
	// ManifestPath is the tenant manifest directory recording onboarded
	// dataset payloads, one record per tenant, for restart recovery;
	// empty disables it.
	ManifestPath string
}

func defaultServeOptions() serveOptions {
	return serveOptions{
		QuickDeadline:    2 * time.Second,
		EstimateDeadline: 5 * time.Second,
		TrainDeadline:    120 * time.Second,
		OnboardDeadline:  60 * time.Second,
	}
}

// withDefaults fills unset fields.
func (o serveOptions) withDefaults() serveOptions {
	def := defaultServeOptions()
	if o.QuickDeadline <= 0 {
		o.QuickDeadline = def.QuickDeadline
	}
	if o.EstimateDeadline <= 0 {
		o.EstimateDeadline = def.EstimateDeadline
	}
	if o.TrainDeadline <= 0 {
		o.TrainDeadline = def.TrainDeadline
	}
	if o.OnboardDeadline <= 0 {
		o.OnboardDeadline = def.OnboardDeadline
	}
	if o.PeerTimeout <= 0 {
		o.PeerTimeout = 5 * time.Second
	}
	return o
}

// withDeadline runs h under a request-context deadline. Handlers observe
// it through r.Context() at their cancellation checkpoints; the deadline
// firing turns into a 503 at whichever checkpoint sees it first.
func withDeadline(d time.Duration, h http.HandlerFunc) http.HandlerFunc {
	if d <= 0 {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// cheap admits h into the cheap class at weight 1 (endpoints whose cost
// does not scale with the payload; /estimate weights by batch size and
// admits itself after decoding).
func (s *server) cheap(d time.Duration, h http.HandlerFunc) http.HandlerFunc {
	return withDeadline(d, func(w http.ResponseWriter, r *http.Request) {
		release, err := s.adm.AdmitCheap(r.Context(), 1)
		if err != nil {
			writeOverload(w, err)
			return
		}
		defer release()
		h(w, r)
	})
}

// heavy admits h into the expensive-mutator class, shedding immediately
// when it is saturated — the cheap class keeps serving from the existing
// snapshot while onboarding is maxed out.
func (s *server) heavy(d time.Duration, h http.HandlerFunc) http.HandlerFunc {
	return withDeadline(d, func(w http.ResponseWriter, r *http.Request) {
		release, err := s.adm.AdmitHeavy()
		if err != nil {
			writeOverload(w, err)
			return
		}
		defer release()
		h(w, r)
	})
}

// recovered is the outermost middleware: a panic escaping any handler is
// logged with its stack and answered with a 500, and the server keeps
// serving — one poisoned request must not take down every tenant.
// (Model-inference panics are additionally fenced per model, with
// quarantine, in servedModel.estimate; this is the backstop for
// everything else.)
func recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				// A worker panic re-raised by par.For keeps the worker's stack.
				pe := resilience.NewPanicError(r.URL.Path, v)
				log.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, pe.Value, pe.Stack)
				// Best-effort: if the handler already wrote headers this
				// write fails silently and the client sees a broken body.
				writeError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// writeOverload maps admission and deadline errors to their transport
// form: a full train queue is 429 + Retry-After (back off and resubmit),
// everything else — class saturation, deadline expiry while waiting — is
// 503 + Retry-After (the server is up, this request was shed).
func writeOverload(w http.ResponseWriter, err error) {
	if errors.Is(err, resilience.ErrTrainQueueFull) {
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, "train queue is full; retry later")
		return
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "overloaded: "+err.Error())
}

// writeDeadline answers a request whose handler observed its deadline
// (or the client's disconnect) at a cancellation checkpoint.
func writeDeadline(w http.ResponseWriter, what string, err error) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, what+" abandoned: "+err.Error())
}

// handleReadyz is the readiness probe: 200 only while the server wants
// traffic. It flips to 503 the moment shutdown begins, so a load
// balancer drains the instance before the listener closes. /healthz
// remains the liveness probe — it answers 200 for as long as the process
// can serve at all.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if !s.ready.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}
