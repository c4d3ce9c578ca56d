package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/ce"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/workload"
)

// Shared machinery of the online workloads: tenants, server set-up, and
// the open-loop load generator.

// conns is the client's connection and worker budget: one per CPU.
var conns = runtime.NumCPU()

// tenant is one onboarded dataset with the model trained for it.
type tenant struct {
	name   string
	d      *dataset.Dataset
	body   []byte // the /datasets payload
	model  string
	spec   ce.Spec
	probes []*workload.Query
	truths []float64
	// single[i] and batch are pre-encoded /estimate bodies; ref holds the
	// probe answers recorded right after /train.
	single    [][]byte
	batch     []byte
	recommend []byte
	ref       []float64
	artifact  string
}

// newTenant generates a tenant's data, probe queries and their
// engine.Cardinality truths.
func newTenant(name string, sh shape, model string, nProbes int, seed int64) (*tenant, error) {
	d, err := genDataset(name, sh, seed)
	if err != nil {
		return nil, err
	}
	spec, ok := ce.Lookup(model)
	if !ok {
		return nil, fmt.Errorf("model %q is not registered", model)
	}
	t := &tenant{name: name, d: d, model: model, spec: spec}
	if t.body, err = datasetBody(name, d); err != nil {
		return nil, err
	}
	t.probes = probeQueries(d, nProbes, seed+1)
	eqs := make([]*engine.Query, len(t.probes))
	qjs := make([]*queryJSON, len(t.probes))
	for i, q := range t.probes {
		eqs[i] = &q.Query
		qjs[i] = toQueryJSON(q)
		t.single = append(t.single, mustJSON(map[string]any{"dataset": name, "model": model, "query": qjs[i]}))
	}
	for _, c := range engine.CardinalityBatch(d, eqs) {
		t.truths = append(t.truths, float64(c))
	}
	engine.InvalidateIndex(d)
	t.batch = mustJSON(map[string]any{"dataset": name, "model": model, "queries": qjs})
	t.recommend = mustJSON(map[string]any{"dataset": name, "wa": 0.9})
	return t, nil
}

// onboard posts the tenant's dataset.
func (s *server) onboard(ctx context.Context, t *tenant) error {
	var resp datasetResp
	if err := s.post(ctx, "/datasets", t.body, &resp); err != nil {
		return fmt.Errorf("onboarding %s: %w", t.name, err)
	}
	if resp.Dataset != t.name || resp.Rows != t.d.TotalRows() {
		return fmt.Errorf("onboarding %s: answered %s with %d rows, want %d", t.name, resp.Dataset, resp.Rows, t.d.TotalRows())
	}
	return nil
}

// train trains the tenant's named model.
func (s *server) train(ctx context.Context, t *tenant) error {
	var resp trainResp
	body := mustJSON(map[string]any{"dataset": t.name, "model": t.model, "seed": 1})
	if err := s.post(ctx, "/train", body, &resp); err != nil {
		return fmt.Errorf("training %s on %s: %w", t.model, t.name, err)
	}
	if resp.Dataset != t.name || resp.Model != t.model {
		return fmt.Errorf("trained %s/%s, answered %s/%s (wrong tenant)", t.name, t.model, resp.Dataset, resp.Model)
	}
	t.artifact = resp.Artifact
	return nil
}

// estimateBatch answers all probes of t in one request and checks the
// answer's echo and estimates.
func (s *server) estimateBatch(ctx context.Context, t *tenant) ([]float64, error) {
	var resp estimateResp
	if err := s.post(ctx, "/estimate", t.batch, &resp); err != nil {
		return nil, err
	}
	if err := checkAnswer(resp, t.name, t.model, len(t.probes)); err != nil {
		return nil, err
	}
	return resp.Estimates, nil
}

// onboardTrain onboards and trains t, records its reference answers,
// and returns how long onboarding and training took.
func (s *server) onboardTrain(ctx context.Context, t *tenant) (onboard, train time.Duration, err error) {
	t0 := time.Now()
	if err := s.onboard(ctx, t); err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	if err := s.train(ctx, t); err != nil {
		return 0, 0, err
	}
	t2 := time.Now()
	ref, err := s.estimateBatch(ctx, t)
	if err != nil {
		return 0, 0, s.errorf("reference answers of %s: %v", t.name, err)
	}
	t.ref = ref
	return t1.Sub(t0), t2.Sub(t1), nil
}

// setupServer is one online set-up: build a small serving advisor with
// the offline pipeline, start the server on it, and onboard and train
// every tenant.
func setupServer(o options, name string, tenants []*tenant, extra ...string) (*server, error) {
	dir, err := runDir(o, name)
	if err != nil {
		return nil, err
	}
	corpus, err := genMany("adv", corpusShapes(12), o.seed+2)
	if err != nil {
		return nil, err
	}
	sc := buildScale(o.seed)
	sc.Queries = 60
	path := filepath.Join(dir, "advisor.gob")
	if _, err := programBuild(corpus, corpus[:2], sc, path); err != nil {
		return nil, err
	}
	srv, err := startServer(o.serverBin, dir, path, conns, extra...)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for _, t := range tenants {
		if _, _, err := srv.onboardTrain(ctx, t); err != nil {
			return nil, srv.fail("set-up", err)
		}
	}
	return srv, nil
}

// job is one scheduled request of an open loop.
type job struct {
	due    time.Duration // since the loop's start
	kind   int
	tenant int
	q      int
}

// outcome is one job's result. Latency runs from the due time, so a
// stalled generator or server shows as latency, never as missing load.
type outcome struct {
	lat, late time.Duration
	err       error // the operation failed or was refused
	bad       error // the answer failed a correctness check
}

// schedule draws Poisson arrivals at rate per second for dur; pick
// chooses each job's kind, tenant and query.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, pick func(rng *rand.Rand) job) []job {
	var jobs []job
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return jobs
		}
		j := pick(rng)
		j.due = t
		jobs = append(jobs, j)
	}
}

// runOpen sends jobs on their schedule over workers connections. A job
// due while every worker is busy waits in the queue, and its wait counts
// as lateness and latency. Closing stop (may be nil) ends dispatch early;
// the outcomes of the dispatched prefix are returned. traceTo (may be
// nil) is asked, per job, for the tracer that records the job's span
// (nil: untraced).
func runOpen(jobs []job, workers int, stop <-chan struct{}, traceTo func() *tracer, spanName func(job) string, do func(job) (error, error)) []outcome {
	out := make([]outcome, len(jobs))
	queue := make(chan int, len(jobs))
	start := time.Now()
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range queue {
				j := jobs[i]
				due := start.Add(j.due)
				late := time.Since(due)
				var tr *tracer
				if traceTo != nil {
					tr = traceTo()
				}
				id := tr.begin(spanName(j), 0, tr.request())
				err, bad := do(j)
				tr.end(id)
				out[i] = outcome{lat: time.Since(due), late: late, err: err, bad: bad}
			}
		}()
	}
	// The dispatcher sleeps with nanosleep on its own OS thread: Go's
	// runtime timers wake up to a millisecond late, which would show as
	// generator lateness in every request's latency.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	n := 0
	for ; n < len(jobs); n++ {
		if d := time.Until(start.Add(jobs[n].due)); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
		}
		if closed(stop) {
			break
		}
		queue <- n
	}
	close(queue)
	for w := 0; w < workers; w++ {
		<-done
	}
	return out[:n]
}

// closed reports whether ch (nil: never) is closed.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// maxLateness bounds the generator's p99 lateness. Beyond it the client
// could not keep to its schedule and the run fails rather than report
// latency from a load it did not offer.
const maxLateness = 100 * time.Millisecond

// tally folds outcomes into the report's operation counts and checks,
// and returns the latencies (ms) per kind plus the lateness p99 (ms).
func tally(r *report, jobs []job, outs []outcome, kinds int) ([][]float64, float64) {
	lat := make([][]float64, kinds)
	var late []float64
	for i, o := range outs {
		r.attempted++
		late = append(late, ms(o.late))
		if o.err != nil {
			r.errors++
			r.check(false, "request %d failed: %v", i, o.err)
			continue
		}
		if o.bad != nil {
			r.check(false, "request %d: %v", i, o.bad)
		}
		lat[jobs[i].kind] = append(lat[jobs[i].kind], ms(o.lat))
	}
	p99 := quantile(late, 0.99)
	r.note("client.lateness_p50_ms", "ms", median(late), len(late))
	r.check(len(late) == 0 || p99 <= ms(maxLateness),
		"the load generator fell behind: lateness p99 %.1f ms > %v", p99, maxLateness)
	return lat, p99
}

// deck returns a generator of indexes into weights whose every block of
// blockSize draws holds each index in proportion to its weight (largest
// remainder), shuffled. Seeds change the order, not the mix, so the work
// offered per run does not vary with the seed.
func deck(rng *rand.Rand, weights []float64, blockSize int) func() int {
	var total float64
	for _, w := range weights {
		total += w
	}
	var block []int
	type rem struct {
		i    int
		frac float64
	}
	var rems []rem
	for i, w := range weights {
		exact := w / total * float64(blockSize)
		for k := 0; k < int(exact); k++ {
			block = append(block, i)
		}
		rems = append(rems, rem{i, exact - float64(int(exact))})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; len(block) < blockSize; k++ {
		block = append(block, rems[k].i)
	}
	pos := len(block)
	return func() int {
		if pos == len(block) {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
			pos = 0
		}
		pos++
		return block[pos-1]
	}
}

// zipfS is the tenant-popularity skew of every read stream. It is an
// assumption, not a measurement: no trace of AutoCE serving traffic
// exists. s = 1.1 puts about 40% of 8 tenants' reads on the most popular
// one and 4% on the least, so every tenant's model is read every second
// while a few dominate, as in a multi-tenant service with a few large
// customers.
const zipfS = 1.1

// mix returns a deck over (kind, tenant) pairs: kinds by kindWeights,
// tenants by Zipf(zipfS) popularity (tenant 0 most popular).
func mix(rng *rand.Rand, kindWeights []float64, tenants, blockSize int) func() (kind, tenant int) {
	var w []float64
	for _, kw := range kindWeights {
		for t := 0; t < tenants; t++ {
			w = append(w, kw/math.Pow(float64(t+1), zipfS))
		}
	}
	next := deck(rng, w, blockSize)
	return func() (int, int) {
		i := next()
		return i / tenants, i % tenants
	}
}

// cpuMark is the CPU time of the server and of this process at one
// instant.
type cpuMark struct{ server, client time.Duration }

func markCPU(s *server) (cpuMark, error) {
	sc, err := procCPU(s.pid())
	return cpuMark{server: sc, client: selfCPU()}, err
}

// probeServing measures, in a traced run, the serving layers on a server
// holding one tenant per servable model: timed onboarding and training,
// the idle request floor, a short open loop for CPU per request and
// generator lateness, and the in-process layers under /datasets and
// /train. Metrics the workload already measured on its own path keep
// their values.
func probeServing(r *report, s *server, ts []*tenant) {
	pr := newReport()
	ctx := context.Background()
	h0, err := s.healthz(ctx)
	if err != nil {
		pr.check(false, "probe: /healthz: %v", err)
	}
	var perMRow []float64
	for _, t := range ts {
		onboard, train, err := s.onboardTrain(ctx, t)
		if err != nil {
			pr.check(false, "probe: %v", err)
			continue
		}
		perMRow = append(perMRow, ms(onboard)/(float64(t.d.TotalRows())/1e6))
		pr.layer("serve.train_p50_ms."+t.model, "ms", ms(train))
	}
	pr.layer("serve.onboard_ms_per_mrow", "ms", median(perMRow))
	idleProbes(s, ts, pr)
	churnProbes(pr, ts)

	rng := rand.New(rand.NewSource(1))
	next := mix(rng, serveMix, len(ts), 400)
	jobs := schedule(rng, serveRate, 2*time.Second, func(rng *rand.Rand) job {
		kind, t := next()
		return job{kind: kind, tenant: t, q: rng.Intn(len(ts[t].probes))}
	})
	c0, err := markCPU(s)
	outs := loadPhase(s, ts, jobs, nil, &qerrors{})
	c1, err1 := markCPU(s)
	if err != nil || err1 != nil {
		pr.check(false, "probe: reading CPU time: %v %v", err, err1)
	}
	_, lateP99 := tally(pr, jobs, outs, len(kindNames))
	n := float64(max(1, len(jobs)))
	pr.layer("serve.cpu_us_per_req", "us", float64(c1.server-c0.server)/1e3/n)
	pr.layer("client.cpu_us_per_req", "us", float64(c1.client-c0.client)/1e3/n)
	pr.layer("client.lateness_p99_ms", "ms", lateP99)
	h1, err := s.healthz(ctx)
	if err != nil {
		pr.check(false, "probe: /healthz: %v", err)
	}
	counterLayers(pr, h0, h1, outs)
	pr.layer("serve.cold_load_share", "ratio", float64(h1.Cache.ColdLoads-h0.Cache.ColdLoads)/n)
	r.absorb(pr)
}

// counterLayers records the /healthz counter deltas from h0 to h1 and how
// many outcomes were refused (429/503) as per-layer metrics. Each is
// measured, so a counter that reads 0 does so because the mechanism did
// not run.
func counterLayers(r *report, h0, h1 healthz, outs []outcome) {
	r.layer("serve.cache_cold_loads", "count", float64(h1.Cache.ColdLoads-h0.Cache.ColdLoads))
	r.layer("serve.cache_evictions", "count", float64(h1.Cache.Evictions-h0.Cache.Evictions))
	r.layer("serve.cache_writebacks", "count", float64(h1.Cache.Writebacks-h0.Cache.Writebacks))
	r.layer("serve.store_saves", "count", float64(h1.Store.Saves-h0.Store.Saves))
	r.layer("serve.store_save_bytes", "bytes", float64(h1.Store.SaveBytes-h0.Store.SaveBytes))
	r.layer("serve.store_loads", "count", float64(h1.Store.Loads-h0.Store.Loads))
	r.layer("serve.store_load_bytes", "bytes", float64(h1.Store.LoadBytes-h0.Store.LoadBytes))
	refusedN := 0
	for _, oc := range outs {
		if refused(oc.err) {
			refusedN++
		}
	}
	r.layer("serve.refused", "count", float64(refusedN))
}
