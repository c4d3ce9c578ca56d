package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ce"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/testbed"
)

// tenant-churn: large tenants keep arriving (/datasets -> /recommend ->
// /train with a named model) while a Zipf read stream covers more
// tenants than the model budget; a sequential cold sweep ends the run.
// This loads the layers estimate-serve bypasses: onboarding statistics,
// oracle labeling inside /train, Fit, and the ce.Store paging path.

// The read stream's rate and its 80/20 split of single /estimate to
// /recommend are assumptions (no trace of AutoCE traffic exists): a rate
// a single connection sustains beside the writer on two CPUs without the
// generator falling behind, and a read-mostly mix like estimate-serve's.
const (
	churnReaders = 12  // read tenants, more than churnBudget
	churnBudget  = 4   // -model-budget
	churnRate    = 100 // reads/s of the read stream
	sweepPasses  = 2   // timed cold-sweep passes over the read tenants
)

// arrivalShapes are the arriving tenants: 1.2e4 to 1.5e5 rows, tables of
// up to 50k rows. Model k of the rotation trains on shape k.
var arrivalShapes = []shape{
	{1, 12000, 4}, {2, 16000, 4}, {3, 12000, 4}, {2, 32000, 4},
	{3, 24000, 4}, {4, 20000, 4}, {3, 40000, 4}, {3, 50000, 4},
}

// arrivalModel fixes the rotation pairing models with arrival shapes.
func arrivalModel(k int) string { return servable[(k*3)%len(servable)] }

// churnRead is one read of the read stream.
const (
	readEstimate = iota
	readRecommend
)

var readNames = []string{"serve.estimate", "serve.recommend"}

// arrival is one timed tenant arrival.
type arrival struct {
	t                         *tenant
	onboard, recommend, train time.Duration
	rows                      int
	traced                    bool
}

func runTenantChurn(o options, r *report) error {
	rng := rand.New(rand.NewSource(o.seed))
	var readers []*tenant
	for i := 0; i < churnReaders; i++ {
		t, err := newTenant(fmt.Sprintf("read%02d", i), shape{2, 3000, 4}, servable[i%len(servable)], 16, rng.Int63())
		if err != nil {
			return err
		}
		readers = append(readers, t)
	}
	// The arriving tenants keep fixed names: a warm-up cycle onboards
	// them, and every measured cycle replaces them (same data, so every
	// cycle repeats the same work and server memory stays bounded).
	var arrivals []*tenant
	for k, sh := range arrivalShapes {
		t, err := newTenant(fmt.Sprintf("arr%d", k), sh, arrivalModel(k), 4, rng.Int63())
		if err != nil {
			return err
		}
		arrivals = append(arrivals, t)
	}
	extra := []string{"-model-budget", fmt.Sprint(churnBudget)}
	var setups []float64
	var srv *server
	var err error
	for i := 0; i < 5; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		srv, err = setupServer(o, fmt.Sprintf("setup%d", i), readers, extra...)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()
	ctx := context.Background()

	for i, t := range arrivals {
		if _, err := arrive(ctx, srv, t, nil, i); err != nil {
			return srv.errorf("warm-up arrival: %v", err)
		}
	}

	// The mixed phase: the writer runs whole cycles of arrivals while
	// the open-loop read stream runs beside it. A traced run traces
	// every second cycle; the difference between traced and untraced
	// arrivals is the tracing overhead.
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	h0, err := srv.healthz(ctx)
	if err != nil {
		return srv.errorf("/healthz: %v", err)
	}
	c0, err := markCPU(srv)
	if err != nil {
		return err
	}
	next := mix(rng, []float64{0.8, 0.2}, len(readers), 200)
	jobs := schedule(rng, churnRate, 10*time.Minute, func(rng *rand.Rand) job {
		kind, t := next()
		return job{kind: kind, tenant: t, q: rng.Intn(16)}
	})
	stop := make(chan struct{})
	var outs []outcome
	readDone := make(chan struct{})
	// The read stream is traced during traced writer cycles only.
	var readTr atomic.Pointer[tracer]
	go func() {
		defer close(readDone)
		outs = runOpen(jobs, 1, stop, readTr.Load, func(j job) string { return readNames[j.kind] }, func(j job) (error, error) {
			return churnRead(ctx, srv, readers[j.tenant], j)
		})
	}()
	// The server's resident set is sampled through the mixed phase; the
	// peak of each cycle is kept, and the median over cycles reported.
	// (The whole-run VmHWM is a single maximum whose height depends on
	// where garbage collections fall, and varies twice as much.)
	var cyclePeaks []float64
	var peakMu sync.Mutex
	cyclePeak := 0.0
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if mb, err := statusMB(srv.pid(), "VmRSS:"); err == nil {
				peakMu.Lock()
				cyclePeak = max(cyclePeak, mb)
				peakMu.Unlock()
			}
		}
	}()
	// One cycle per requested second (a cycle takes a little over a
	// second on two CPUs); the count is fixed so that the work per run
	// does not depend on speed. The server's CPU time per arrival is
	// taken per untraced cycle, read stream included, and its median
	// reported.
	var done []arrival
	var werr error
	var cycleCPU []float64
	cpuAt := c0.server
	for c := 0; c < max(2, int(o.seconds/time.Second)) && werr == nil; c++ {
		if c > 0 {
			peakMu.Lock()
			cyclePeaks = append(cyclePeaks, cyclePeak)
			cyclePeak = 0
			peakMu.Unlock()
		}
		var ctr *tracer
		if c%2 == 1 {
			ctr = tr
		}
		readTr.Store(ctr)
		for _, t := range arrivals {
			a, err := arrive(ctx, srv, t, ctr, len(done)+1)
			if err != nil {
				werr = err
				break
			}
			a.traced = ctr != nil
			done = append(done, a)
		}
		now, err := procCPU(srv.pid())
		if err != nil {
			werr = err
			break
		}
		if ctr == nil {
			cycleCPU = append(cycleCPU, ms(now-cpuAt)/float64(len(arrivals)))
		}
		cpuAt = now
	}
	close(stop)
	<-readDone
	<-samplerDone
	cyclePeaks = append(cyclePeaks, cyclePeak)
	c1, err := markCPU(srv)
	if err != nil {
		return err
	}
	h1, err := srv.healthz(ctx)
	if err != nil {
		return srv.errorf("/healthz: %v", err)
	}
	if werr != nil {
		return srv.errorf("tenant arrival: %v", werr)
	}
	r.attempted += 3 * len(done)
	jobs = jobs[:len(outs)]
	lat, lateP99 := tally(r, jobs, outs, len(readNames))
	reads := len(outs)
	coldMixed := h1.Cache.ColdLoads - h0.Cache.ColdLoads
	coldShare := float64(coldMixed) / float64(max(1, reads))
	r.check(coldMixed > 0, "tenant-churn's read stream never cold-loaded a model (budget %d, %d tenants)", churnBudget, churnReaders)

	// The cold sweep: visit the read tenants round-robin, so with more
	// tenants than the budget every read of the timed passes cold-loads.
	for _, t := range readers {
		if _, err := sweepRead(ctx, srv, t); err != nil {
			return srv.errorf("cold sweep: %v", err)
		}
	}
	hs0, err := srv.healthz(ctx)
	if err != nil {
		return srv.errorf("/healthz: %v", err)
	}
	var cold []float64
	for p := 0; p < sweepPasses; p++ {
		for _, t := range readers {
			d, err := sweepRead(ctx, srv, t)
			if err != nil {
				return srv.errorf("cold sweep: %v", err)
			}
			cold = append(cold, ms(d))
		}
	}
	hs1, err := srv.healthz(ctx)
	if err != nil {
		return srv.errorf("/healthz: %v", err)
	}
	r.attempted += len(readers) * (sweepPasses + 1)
	sweepCold := hs1.Cache.ColdLoads - hs0.Cache.ColdLoads
	r.check(sweepCold == int64(len(cold)), "cold sweep: %d cold loads for %d reads", sweepCold, len(cold))
	hwm, err := peakRSSMB(srv.pid())
	if err != nil {
		return err
	}
	rss := median(cyclePeaks)

	var total, onboard, train, recommend, perMRow []float64
	for _, a := range done {
		total = append(total, ms(a.onboard+a.recommend+a.train))
		onboard = append(onboard, ms(a.onboard))
		train = append(train, ms(a.train))
		recommend = append(recommend, ms(a.recommend))
		perMRow = append(perMRow, ms(a.onboard)/(float64(a.rows)/1e6))
	}
	serverCPU := c1.server - c0.server
	r.set("setup_s", "s", median(setups))
	r.set("peak_rss_mb", "MB", rss)
	r.set("cpu_ms_per_op", "ms", median(cycleCPU))
	r.layer("op.p50_ms", "ms", median(total))

	r.note("setup_s", "s", median(setups), len(setups))
	r.note("peak_rss_mb", "MB", rss, len(cyclePeaks))
	r.note("peak_rss_hwm_mb", "MB", hwm, -1)
	r.note("arrival_p50_ms", "ms", median(total), len(total))
	r.note("onboard_p50_ms", "ms", median(onboard), len(onboard))
	r.note("train_p50_ms", "ms", median(train), len(train))
	r.note("arrival_recommend_p50_ms", "ms", median(recommend), len(recommend))
	r.timing("estimate", lat[readEstimate])
	r.timing("recommend", lat[readRecommend])
	r.timing("cold_estimate", cold)
	r.note("cpu_ms_per_arrival", "ms", median(cycleCPU), len(cycleCPU))
	r.note("serve.cold_load_share", "ratio", coldShare, reads)
	r.note("client.lateness_p99_ms", "ms", lateP99, reads)

	if !o.trace {
		return nil
	}
	requests := float64(reads + 3*len(done))
	r.layer("serve.cpu_us_per_req", "us", float64(serverCPU)/1e3/requests)
	r.layer("client.lateness_p99_ms", "ms", lateP99)
	r.layer("serve.onboard_ms_per_mrow", "ms", median(perMRow))
	// Counters over the mixed phase and the cold sweep; the cold-load
	// share is the mixed phase's.
	counterLayers(r, h0, hs1, outs)
	r.layer("serve.cold_load_share", "ratio", coldShare)
	byModel := map[string][]float64{}
	for _, a := range done {
		byModel[a.t.model] = append(byModel[a.t.model], ms(a.train))
	}
	for m, xs := range byModel {
		r.layer("serve.train_p50_ms."+m, "ms", median(xs))
	}
	var untraced, traced []float64
	for _, a := range done {
		if a.traced {
			traced = append(traced, ms(a.onboard+a.recommend+a.train))
		} else {
			untraced = append(untraced, ms(a.onboard+a.recommend+a.train))
		}
	}
	r.layer("trace.overhead_ms", "ms", median(traced)-median(untraced))
	r.layer("client.cpu_us_per_req", "us", float64(c1.client-c0.client)/1e3/requests)
	churnProbes(r, arrivals)
	probeServing(r, srv, readers[:len(servable)])
	if err := probeOffline(o, r); err != nil {
		return err
	}
	if err := tr.write(fmt.Sprintf("%s/tenant-churn-seed%d.json", o.traceDir, o.seed)); err != nil {
		r.check(false, "writing spans: %v", err)
	}
	return nil
}

// arrive onboards t, asks for a recommendation, trains its named model
// and checks one estimate from it.
func arrive(ctx context.Context, s *server, t *tenant, tr *tracer, req int) (arrival, error) {
	a := arrival{t: t, rows: t.d.TotalRows()}
	root := tr.begin("churn.arrival", 0, req)
	defer tr.end(root)
	timed := func(name string, d *time.Duration, fn func() error) error {
		id := tr.begin(name, root, req)
		t0 := time.Now()
		err := fn()
		*d = time.Since(t0)
		tr.end(id)
		return err
	}
	if err := timed("serve.onboard", &a.onboard, func() error { return s.onboard(ctx, t) }); err != nil {
		return a, err
	}
	if err := timed("serve.recommend", &a.recommend, func() error {
		var resp recommendResp
		if err := s.post(ctx, "/recommend", t.recommend, &resp); err != nil {
			return err
		}
		if _, ok := testbed.CandidateModelName(resp.Model); !ok {
			return fmt.Errorf("/recommend for %s: model %d", t.name, resp.Model)
		}
		return nil
	}); err != nil {
		return a, err
	}
	if err := timed("serve.train", &a.train, func() error { return s.train(ctx, t) }); err != nil {
		return a, err
	}
	_, err := s.estimateBatch(ctx, t)
	return a, err
}

// churnRead is one read of the read stream.
func churnRead(ctx context.Context, s *server, t *tenant, j job) (error, error) {
	if j.kind == readRecommend {
		var resp recommendResp
		if err := s.post(ctx, "/recommend", t.recommend, &resp); err != nil {
			return err, nil
		}
		if _, ok := testbed.CandidateModelName(resp.Model); !ok {
			return nil, fmt.Errorf("/recommend for %s: model %d", t.name, resp.Model)
		}
		return nil, nil
	}
	var resp estimateResp
	if err := s.post(ctx, "/estimate", t.single[j.q], &resp); err != nil {
		return err, nil
	}
	return nil, checkRead(t, j.q, resp)
}

// checkRead checks one single-query answer: echo, estimate contract,
// and for stateless models bit-identity with the answer recorded right
// after /train (across any evictions and cold loads since).
func checkRead(t *tenant, q int, resp estimateResp) error {
	if err := checkAnswer(resp, t.name, t.model, 1); err != nil {
		return err
	}
	if !t.spec.Concurrent {
		return nil
	}
	if err := checkSame(resp.Estimates, t.ref[q:q+1]); err != nil {
		return fmt.Errorf("%s/%s after paging: %v", t.name, t.model, err)
	}
	return nil
}

// sweepRead times one single-query estimate of probe 0.
func sweepRead(ctx context.Context, s *server, t *tenant) (time.Duration, error) {
	var resp estimateResp
	t0 := time.Now()
	err := s.post(ctx, "/estimate", t.single[0], &resp)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	return d, checkRead(t, 0, resp)
}

// churnProbes times, in-process, the layers under /datasets and /train
// on the arrival datasets, and the decode of each artifact the server
// wrote.
func churnProbes(r *report, arrivals []*tenant) {
	var extract, input []float64
	for _, t := range arrivals {
		d := t.d
		t0 := time.Now()
		if _, err := feature.Extract(d, feature.DefaultConfig()); err != nil {
			r.check(false, "feature.Extract on %s: %v", t.name, err)
		}
		extract = append(extract, ms(time.Since(t0))/(float64(d.TotalRows())/1e6))
		dataset.InvalidateStats(d)

		// /train's defaults: 160 queries, 800 sample rows, fast, seed 1.
		cfg := testbed.Config{NumQueries: 160, SampleRows: 800, Fast: true, Seed: 1}
		t0 = time.Now()
		in := testbed.NewTrainInputFor(d, cfg, t.spec.Kind)
		input = append(input, ms(time.Since(t0)))
		m := t.spec.New(ce.Config{Fast: true, Seed: 1})
		t0 = time.Now()
		if err := m.Fit(in); err != nil {
			r.check(false, "Fit %s on %s: %v", t.model, t.name, err)
		}
		r.layer("ce.fit_ms."+t.model, "ms", ms(time.Since(t0)))
		engine.InvalidateIndex(d)

		b, err := os.ReadFile(t.artifact)
		if err != nil {
			r.check(false, "reading the artifact of %s/%s: %v", t.name, t.model, err)
			continue
		}
		var loads []float64
		for i := 0; i < 3; i++ {
			t0 = time.Now()
			_, _, err := ce.LoadModelSchema(bytes.NewReader(b))
			loads = append(loads, ms(time.Since(t0)))
			r.check(err == nil, "ce.LoadModelSchema on %s: %v", t.artifact, err)
		}
		r.layer("ce.load_ms."+t.model, "ms", median(loads))
	}
	r.layer("feature.extract_ms_per_mrow", "ms", median(extract))
	r.layer("testbed.train_input_ms", "ms", median(input))
}
