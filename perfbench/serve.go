package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/testbed"
)

// estimate-serve: a read-only open loop against one server whose model
// cache holds every tenant's model, so the HTTP, admission, coalescing
// and inference layers do all the timed work.

const (
	kindSingle = iota
	kindBatch
	kindRecommend
)

var kindNames = []string{"serve.estimate", "serve.batch", "serve.recommend"}

// serveMix weights the request kinds of estimate-serve. Estimates are
// split 3:1 single-query to 64-query batch, the mix of the repository's
// multi-tenant load driver (examples/cloudtenant, estimateStorm). The 15%
// share of /recommend is an assumption — a read-mostly service that asks
// for a model far less often than it estimates — as no trace of AutoCE
// traffic exists. Batches cost the server far more than singles, so this
// split sets most of cpu_ms_per_op.
var serveMix = []float64{0.85 * 3 / 4, 0.85 / 4, 0.15}

// serveRate is the offered load of the measured phase (requests/s):
// well under capacity, so latency reflects service rather than queueing,
// which would amplify the machine's own speed variation.
const serveRate = 500

// ladder is the fixed rate ladder for max_qps (single estimates), and
// ladderLimit the p99 latency each step must meet.
var ladder = []float64{500, 1000, 1500, 2000, 3000}

const ladderLimit = 10.0 // ms

func serveTenants(seed int64) ([]*tenant, error) {
	rng := rand.New(rand.NewSource(seed))
	var ts []*tenant
	for i, m := range servable {
		sh := shape{tables: 1 + i%3, rows: 4000, cols: 4}
		t, err := newTenant(fmt.Sprintf("serve%02d", i), sh, m, 64, rng.Int63())
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// serveOp sends one estimate-serve request and checks its answer. The
// first error is an operation failure, the second a failed check.
func serveOp(ctx context.Context, s *server, ts []*tenant, j job, qerr *qerrors) (error, error) {
	t := ts[j.tenant]
	switch j.kind {
	case kindSingle, kindBatch:
		body, n := t.single[j.q], 1
		if j.kind == kindBatch {
			body, n = t.batch, len(t.probes)
		}
		var resp estimateResp
		if err := s.post(ctx, "/estimate", body, &resp); err != nil {
			return err, nil
		}
		if err := checkAnswer(resp, t.name, t.model, n); err != nil {
			return nil, err
		}
		if !t.spec.Concurrent {
			return nil, nil
		}
		want, truths := t.ref, t.truths
		if n == 1 {
			want, truths = t.ref[j.q:j.q+1], t.truths[j.q:j.q+1]
		}
		if err := checkSame(resp.Estimates, want); err != nil {
			return nil, fmt.Errorf("%s/%s: %v", t.name, t.model, err)
		}
		qerr.mu.Lock()
		for i, e := range resp.Estimates {
			qerr.xs = append(qerr.xs, metrics.QError(e, truths[i]))
		}
		qerr.mu.Unlock()
	case kindRecommend:
		var resp recommendResp
		if err := s.post(ctx, "/recommend", t.recommend, &resp); err != nil {
			return err, nil
		}
		if _, ok := testbed.CandidateModelName(resp.Model); !ok || len(resp.Scores) != testbed.NumCandidates {
			return nil, fmt.Errorf("/recommend for %s: model %d with %d scores", t.name, resp.Model, len(resp.Scores))
		}
	}
	return nil, nil
}

// qerrors collects the Q-errors of stateless models' served answers.
type qerrors struct {
	mu sync.Mutex
	xs []float64
}

// loadPhase runs one open loop and returns its outcomes.
func loadPhase(s *server, ts []*tenant, jobs []job, tr *tracer, qerr *qerrors) []outcome {
	ctx := context.Background()
	return runOpen(jobs, conns, nil, func() *tracer { return tr }, func(j job) string { return kindNames[j.kind] }, func(j job) (error, error) {
		return serveOp(ctx, s, ts, j, qerr)
	})
}

func runEstimateServe(o options, r *report) error {
	ts, err := serveTenants(o.seed)
	if err != nil {
		return err
	}
	var setups []float64
	var srv *server
	for i := 0; i < 5; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		srv, err = setupServer(o, fmt.Sprintf("setup%d", i), ts)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()

	rng := rand.New(rand.NewSource(o.seed + 11))
	next := mix(rng, serveMix, len(ts), 400)
	pick := func(rng *rand.Rand) job {
		kind, t := next()
		return job{kind: kind, tenant: t, q: rng.Intn(64)}
	}
	// Warm-up: connections, coalescer and first-touch paths. Its answers
	// are checked; its timings are not kept.
	for i, oc := range loadPhase(srv, ts, schedule(rng, serveRate, time.Second, pick), nil, &qerrors{}) {
		r.check(oc.err == nil && oc.bad == nil, "warm-up request %d: %v %v", i, oc.err, oc.bad)
	}
	var qerr qerrors

	ctx := context.Background()
	h0, err := srv.healthz(ctx)
	if err != nil {
		return srv.errorf("/healthz: %v", err)
	}
	c0, err := markCPU(srv)
	if err != nil {
		return err
	}
	// A traced run alternates one-second untraced and traced blocks, so
	// drift over the run falls on both; the difference of their
	// single-estimate medians is the tracing overhead.
	var tr *tracer
	var jobs []job
	var outs []outcome
	if !o.trace {
		jobs = schedule(rng, serveRate, o.seconds, pick)
		outs = loadPhase(srv, ts, jobs, nil, &qerr)
	} else {
		tr = newTracer()
		var plain, traced []float64
		for b := 0; b < max(2, int(o.seconds/time.Second)); b++ {
			var bt *tracer
			if b%2 == 1 {
				bt = tr
			}
			bj := schedule(rng, serveRate, time.Second, pick)
			bo := loadPhase(srv, ts, bj, bt, &qerr)
			for i, oc := range bo {
				if bj[i].kind != kindSingle || oc.err != nil {
					continue
				}
				if bt != nil {
					traced = append(traced, ms(oc.lat))
				} else {
					plain = append(plain, ms(oc.lat))
				}
			}
			jobs, outs = append(jobs, bj...), append(outs, bo...)
		}
		r.layer("trace.overhead_ms", "ms", median(traced)-median(plain))
	}
	c1, err := markCPU(srv)
	if err != nil {
		return err
	}
	h1, err := srv.healthz(ctx)
	if err != nil {
		return srv.errorf("/healthz: %v", err)
	}
	lat, lateP99 := tally(r, jobs, outs, len(kindNames))
	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return err
	}

	// Sanity: the cache never misses on this workload.
	cold, evict := h1.Cache.ColdLoads-h0.Cache.ColdLoads, h1.Cache.Evictions-h0.Cache.Evictions
	r.check(cold == 0 && evict == 0, "estimate-serve must not touch the store: %d cold loads, %d evictions", cold, evict)

	n := float64(len(jobs))
	r.set("setup_s", "s", median(setups))
	r.set("peak_rss_mb", "MB", rss)
	r.set("cpu_ms_per_op", "ms", ms(c1.server-c0.server)/n)
	r.layer("op.p50_ms", "ms", median(lat[kindSingle]))

	r.note("setup_s", "s", median(setups), len(setups))
	r.note("peak_rss_mb", "MB", rss, -1)
	r.timing("estimate", lat[kindSingle])
	r.timing("batch", lat[kindBatch])
	r.timing("recommend", lat[kindRecommend])
	r.note("qerror_mean", "ratio", mean(qerr.xs), len(qerr.xs))
	r.note("offered_rate", "req/s", serveRate, len(jobs))
	r.note("client.lateness_p99_ms", "ms", lateP99, len(jobs))
	r.note("serve.cpu_us_per_req", "us", float64(c1.server-c0.server)/1e3/n, len(jobs))

	maxQPS := runLadder(srv, ts, rng, r)
	r.note("max_qps", "req/s", maxQPS, -1)

	if o.trace {
		r.layer("serve.cpu_us_per_req", "us", float64(c1.server-c0.server)/1e3/n)
		r.layer("client.cpu_us_per_req", "us", float64(c1.client-c0.client)/1e3/n)
		r.layer("client.lateness_p99_ms", "ms", lateP99)
		counterLayers(r, h0, h1, outs)
		r.layer("serve.cold_load_share", "ratio", float64(cold)/n)
		probeServing(r, srv, ts)
		if err := probeOffline(o, r); err != nil {
			return err
		}
		if err := tr.write(fmt.Sprintf("%s/estimate-serve-seed%d.json", o.traceDir, o.seed)); err != nil {
			r.check(false, "writing spans: %v", err)
		}
	}
	return nil
}

// runLadder offers single estimates at each rate of the fixed ladder for
// one second and returns the highest rate whose p99 meets ladderLimit
// while the generator's lateness does not grow from the first half of
// the step to the second.
func runLadder(s *server, ts []*tenant, rng *rand.Rand, r *report) float64 {
	best := 0.0
	next := mix(rng, []float64{1}, len(ts), 100)
	for _, rate := range ladder {
		jobs := schedule(rng, rate, time.Second, func(rng *rand.Rand) job {
			_, t := next()
			return job{kind: kindSingle, tenant: t, q: rng.Intn(64)}
		})
		outs := loadPhase(s, ts, jobs, nil, &qerrors{})
		var lat, late1, late2 []float64
		failed := false
		for i, oc := range outs {
			// Overload may refuse requests at the top of the ladder, but
			// every answer given must still be correct.
			r.check(oc.bad == nil, "ladder request %d: %v", i, oc.bad)
			failed = failed || oc.err != nil || oc.bad != nil
			lat = append(lat, ms(oc.lat))
			if i < len(outs)/2 {
				late1 = append(late1, ms(oc.late))
			} else {
				late2 = append(late2, ms(oc.late))
			}
		}
		p99 := quantile(lat, 0.99)
		growing := quantile(late2, 0.99) > quantile(late1, 0.99)+1
		r.note(fmt.Sprintf("ladder_%g_p99_ms", rate), "ms", p99, len(lat))
		if failed || p99 > ladderLimit || growing {
			break
		}
		best = rate
	}
	return best
}

// idleProbes measures the idle request floor: /healthz, and per model a
// single and a 64-query estimate, one request at a time.
func idleProbes(s *server, ts []*tenant, r *report) {
	ctx := context.Background()
	timeN := func(n int, fn func() error) []float64 {
		var xs []float64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := fn(); err != nil {
				r.check(false, "idle probe: %v", err)
				return nil
			}
			xs = append(xs, ms(time.Since(t0)))
		}
		return xs
	}
	r.layer("serve.healthz_p50_ms", "ms", median(timeN(200, func() error { return s.get(ctx, "/healthz", nil) })))
	for _, t := range ts {
		single := median(timeN(100, func() error {
			var resp estimateResp
			if err := s.post(ctx, "/estimate", t.single[0], &resp); err != nil {
				return err
			}
			return checkAnswer(resp, t.name, t.model, 1)
		}))
		batch := median(timeN(50, func() error {
			_, err := s.estimateBatch(ctx, t)
			return err
		}))
		r.layer("serve.estimate_idle_p50_ms."+t.model, "ms", single)
		r.layer("serve.per_query_us."+t.model, "us", (batch-single)/63*1000)
	}
}
