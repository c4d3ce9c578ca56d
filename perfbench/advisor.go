package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/ce"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/feature"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// The offline pipeline, driven in-process. Untimed-by-spans builds go
// through the program's own labeling driver, as cmd/autoce does:
// experiments.LabelDatasets (feature.ExtractBatch -> testbed.Prepare per
// dataset -> testbed.TrainAll with Finish in onDone) -> core.Train ->
// IncrementalLearn -> SaveFile -> LoadFile -> RecommendBatch.
// LabelDatasets keeps no per-model state and has no hook for spans, so
// traced builds and the model-level checks use instrumentedBuild, a copy
// of LabelDatasets (internal/experiments/corpus.go) with spans around
// each call; a change to that driver must be mirrored there.

// buildScale is cmd/autoce's labeling regime: experiments.QuickScale with
// cmd/autoce's default 120 queries, fast models, the 400-row join sample,
// 10 advisor epochs and one worker per CPU. Only the corpus size is the
// benchmark's.
func buildScale(seed int64) experiments.Scale {
	sc := experiments.QuickScale()
	sc.TestDatasets = 0
	sc.Queries = 120
	sc.Fast = true
	sc.Seed = seed
	return sc
}

// buildOut is everything one build produced, kept for the checks.
type buildOut struct {
	wall          time.Duration
	labels        []*testbed.Label
	results       []*testbed.Result // instrumentedBuild only
	adv, loaded   *core.Advisor
	targets       []*feature.Graph
	recs          []core.Recommendation // from the loaded advisor
	il            core.ILReport
	artifactBytes int64
}

// tracedModel wraps a registry model so Fit and EstimateBatch run inside
// spans. Only traced builds install it.
type tracedModel struct {
	ce.Model
	tr          *tracer
	parent, req int
}

func (m *tracedModel) Fit(in *ce.TrainInput) error {
	id := m.tr.begin("ce.fit."+m.Name(), m.parent, m.req)
	defer m.tr.end(id)
	return m.Model.Fit(in)
}

func (m *tracedModel) EstimateBatch(qs []*workload.Query) []float64 {
	id := m.tr.begin("ce.estimate."+m.Name(), m.parent, m.req)
	defer m.tr.end(id)
	return m.Model.EstimateBatch(qs)
}

// forEach runs fn(0..n-1) over workers goroutines and returns the first
// error.
func forEach(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(1, workers))
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// resetCaches drops the engine index and statistics caches of ds, so
// every build pays the full extraction and oracle cost.
func resetCaches(ds []*dataset.Dataset) {
	for _, d := range ds {
		engine.InvalidateIndex(d)
		dataset.InvalidateStats(d)
	}
}

// programBuild runs one complete offline build of an advisor over the
// corpus ds through the program's labeling driver, saves it to path,
// loads it back and recommends for the targets.
func programBuild(ds, targetDS []*dataset.Dataset, sc experiments.Scale, path string) (*buildOut, error) {
	resetCaches(ds)
	resetCaches(targetDS)
	out := &buildOut{}
	t0 := time.Now()
	featCfg := feature.DefaultConfig()
	labeled, err := experiments.LabelDatasets(ds, sc, featCfg, sc.Seed*3+7)
	if err != nil {
		return nil, err
	}
	samples := make([]*core.Sample, len(labeled))
	for i, ld := range labeled {
		samples[i] = ld.Sample()
		out.labels = append(out.labels, ld.Label)
	}
	if out.targets, err = feature.ExtractBatch(targetDS, featCfg, sc.Workers); err != nil {
		return nil, fmt.Errorf("extracting target features: %w", err)
	}
	for _, d := range targetDS {
		dataset.InvalidateStats(d)
	}
	if err := advise(out, samples, featCfg, sc, path, nil, 0, 0); err != nil {
		return nil, err
	}
	out.wall = time.Since(t0)
	out.artifactBytes = fileSize(path)
	return out, nil
}

// advise trains the advisor on the labeled samples, runs incremental
// learning, saves and reloads it, and recommends for out.targets from the
// loaded copy. Spans go to tr under parent (tr may be nil).
func advise(out *buildOut, samples []*core.Sample, featCfg feature.Config, sc experiments.Scale, path string, tr *tracer, parent, req int) error {
	acfg := core.DefaultConfig(featCfg.VertexDim())
	acfg.Epochs = sc.AdvisorEpochs
	var err error
	tr.do("core.dml", parent, req, func() { out.adv, err = core.Train(samples, acfg) })
	if err != nil {
		return fmt.Errorf("training the advisor: %w", err)
	}
	tr.do("core.il", parent, req, func() { out.il = out.adv.IncrementalLearn(core.DefaultILConfig()) })
	tr.do("core.save", parent, req, func() { err = out.adv.SaveFile(path) })
	if err != nil {
		return err
	}
	tr.do("core.load", parent, req, func() { out.loaded, err = core.LoadFile(path) })
	if err != nil {
		return err
	}
	tr.do("core.recommend", parent, req, func() { out.recs = out.loaded.RecommendBatch(out.targets, 0.9) })
	return nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// instrumentedBuild is programBuild with experiments.LabelDatasets
// replaced by a copy that records spans (tr may be nil) and keeps each
// dataset's labeled queries and trained models for the checks; req tags
// the build's spans.
func instrumentedBuild(ds, targetDS []*dataset.Dataset, sc experiments.Scale, path string, tr *tracer, req int) (*buildOut, error) {
	resetCaches(ds)
	resetCaches(targetDS)
	out := &buildOut{}
	t0 := time.Now()
	root := tr.begin("build", 0, req)
	defer tr.end(root)

	featCfg := feature.DefaultConfig()
	var graphs []*feature.Graph
	var err error
	tr.do("feature.extract", root, req, func() {
		graphs, err = feature.ExtractBatch(append(append([]*dataset.Dataset(nil), ds...), targetDS...), featCfg, sc.Workers)
	})
	if err != nil {
		return nil, fmt.Errorf("extracting features: %w", err)
	}
	out.targets = graphs[len(ds):]
	graphs = graphs[:len(ds)]
	for _, d := range append(append([]*dataset.Dataset(nil), ds...), targetDS...) {
		dataset.InvalidateStats(d)
	}

	seedBase := sc.Seed*3 + 7
	preps := make([]*testbed.Prepared, len(ds))
	err = forEach(len(ds), sc.Workers, func(i int) error {
		var p *testbed.Prepared
		var err error
		tr.do("testbed.prepare", root, req, func() { p, err = testbed.Prepare(ds[i], sc.TestbedConfig(seedBase+int64(i)*97)) })
		engine.InvalidateIndex(ds[i])
		if err != nil {
			return fmt.Errorf("preparing %s: %w", ds[i].Name, err)
		}
		if tr != nil {
			for mi, m := range p.Models {
				p.Models[mi] = &tracedModel{Model: m, tr: tr, parent: root, req: req}
			}
		}
		preps[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}

	out.results = make([]*testbed.Result, len(ds))
	finish := func(i int) error {
		id := tr.begin("testbed.finish", root, req)
		if tr != nil {
			for _, m := range preps[i].Models {
				m.(*tracedModel).parent = id
			}
		}
		res, err := preps[i].Finish()
		tr.end(id)
		preps[i] = nil
		if err != nil {
			return fmt.Errorf("labeling %s: %w", ds[i].Name, err)
		}
		out.results[i] = res
		return nil
	}
	var trainErr error
	tr.do("testbed.train_all", root, req, func() { trainErr = testbed.TrainAll(preps, sc.Workers, finish) })
	if trainErr != nil {
		return nil, trainErr
	}

	samples := make([]*core.Sample, len(ds))
	for i, res := range out.results {
		samples[i] = &core.Sample{Name: ds[i].Name, Graph: graphs[i], Sa: res.Label.Sa, Se: res.Label.Se}
		out.labels = append(out.labels, res.Label)
	}
	if err := advise(out, samples, featCfg, sc, path, tr, root, req); err != nil {
		return nil, err
	}
	out.wall = time.Since(t0)
	out.artifactBytes = fileSize(path)
	return out, nil
}

// checkAdvisor runs the checks every build supports: Sa/Se in [0,1], the
// RCS size, and Save->Load->RecommendBatch bit-identity.
func checkAdvisor(r *report, b *buildOut) {
	for i, l := range b.labels {
		r.check(checkUnit(l.Sa, testbed.NumCandidates) == nil, "Sa of dataset %d: %v", i, checkUnit(l.Sa, testbed.NumCandidates))
		r.check(checkUnit(l.Se, testbed.NumCandidates) == nil, "Se of dataset %d: %v", i, checkUnit(l.Se, testbed.NumCandidates))
	}
	// IncrementalLearn trains on its synthesized samples but keeps them
	// out of the RCS (their labels are interpolations, not measurements).
	n := len(b.labels)
	r.check(b.adv.NumSamples() == n && b.loaded.NumSamples() == n,
		"core.rcs_size %d (loaded %d), want the %d labeled datasets", b.adv.NumSamples(), b.loaded.NumSamples(), n)
	mem := b.adv.RecommendBatch(b.targets, 0.9)
	r.check(len(mem) == len(b.recs), "loaded advisor gave %d recommendations, in-memory %d", len(b.recs), len(mem))
	for i := range mem {
		if i >= len(b.recs) {
			break
		}
		same := mem[i].Model == b.recs[i].Model && checkSame(b.recs[i].Scores, mem[i].Scores) == nil &&
			fmt.Sprint(mem[i].Neighbors) == fmt.Sprint(b.recs[i].Neighbors)
		r.check(same, "Save->Load->RecommendBatch differs from the in-memory advisor on target %d", i)
	}
	r.attempted += len(b.labels) + len(mem)
}

// checkModels runs the model-level checks on an instrumentedBuild: the
// oracle recount, the estimate contract, and batch/single identity.
func checkModels(r *report, ds []*dataset.Dataset, b *buildOut) {
	specs := ce.Specs()
	for i, res := range b.results {
		d := ds[i]
		// Oracle: a sample of labeled queries recounted serially.
		qs := append(append([]*workload.Query(nil), res.Train[:min(2, len(res.Train))]...), res.Test[:min(3, len(res.Test))]...)
		for _, q := range qs {
			got := engine.Cardinality(d, &q.Query)
			r.check(got == q.TrueCard, "oracle: %s query recounts to %d, labeled %d", d.Name, got, q.TrueCard)
		}
		probe := res.Test[:min(8, len(res.Test))]
		for mi, m := range res.Models {
			if tm, ok := m.(*tracedModel); ok {
				m = tm.Model // checks are not part of the traced build
			}
			batch := m.EstimateBatch(probe)
			if err := checkEstimates(batch, len(probe)); err != nil {
				r.check(false, "%s on %s: %v", specs[mi].Name, d.Name, err)
				continue
			}
			if !specs[mi].Concurrent {
				continue
			}
			single := make([]float64, len(probe))
			for qi, q := range probe {
				single[qi] = m.Estimate(q)
			}
			if err := checkSame(batch, single); err != nil {
				r.check(false, "%s on %s: batch vs single: %v", specs[mi].Name, d.Name, err)
			}
		}
		r.attempted += len(qs) + len(res.Models)
	}
}

// corpusFor generates the k-th corpus of a run and its recommendation
// targets.
func corpusFor(seed int64, k int) (ds, targets []*dataset.Dataset, err error) {
	const nCorpus, nTargets = 24, 8
	base := seed*1000 + int64(k)*2
	if ds, err = genMany("syn", corpusShapes(nCorpus), base); err != nil {
		return nil, nil, err
	}
	targets, err = genMany("target", corpusShapes(nTargets), base+1)
	return ds, targets, err
}

// setupBuilds is how many program builds set-up makes; setup_s is their
// median.
const setupBuilds = 3

// runAdvisorBuild is the advisor-build workload: build complete advisors,
// each from a fresh corpus of the same shapes. Medians over corpora keep
// the figures steady across seeds.
func runAdvisorBuild(o options, r *report) error {
	// One build per requested second (a build takes about a second on
	// two CPUs): a fixed count, so the work per run, and with it the
	// process's peak memory, does not depend on how fast builds run.
	builds := max(3, int(o.seconds/time.Second))
	sc := buildScale(o.seed)
	path := filepath.Join(o.dir, "advisor.gob")

	// Set-up: complete program builds, each from its own corpus (input
	// generation included). They also take first-touch allocation and
	// lazy package state off the measured builds.
	var setups []float64
	for k := 0; k < setupBuilds; k++ {
		t0 := time.Now()
		ds, targets, err := corpusFor(o.seed, k)
		if err != nil {
			return err
		}
		b, err := programBuild(ds, targets, sc, path)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		checkAdvisor(r, b)
	}

	// The measured builds. Generating each corpus is not timed. A traced
	// run alternates program builds with traced instrumented builds; the
	// difference of their medians is the tracing overhead.
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var walls, tracedWalls, cpus []float64
	var last *buildOut
	var lastDS []*dataset.Dataset
	for n := 0; n < builds; n++ {
		ds, targets, err := corpusFor(o.seed, setupBuilds+n)
		if err != nil {
			return err
		}
		runtime.GC()
		traced := o.trace && n%2 == 1
		cpu0 := selfCPU()
		var b *buildOut
		if traced {
			b, err = instrumentedBuild(ds, targets, sc, path, tr, n+1)
		} else {
			b, err = programBuild(ds, targets, sc, path)
		}
		if err != nil {
			return err
		}
		cpu := selfCPU() - cpu0
		checkAdvisor(r, b)
		if traced {
			tracedWalls = append(tracedWalls, b.wall.Seconds())
			checkModels(r, ds, b)
			last, lastDS = b, ds
		} else {
			walls = append(walls, b.wall.Seconds())
			cpus = append(cpus, ms(cpu))
		}
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	if !o.trace {
		// The model-level checks need the labeled queries and trained
		// models, which the program's driver does not return.
		ds, targets, err := corpusFor(o.seed, setupBuilds+builds)
		if err != nil {
			return err
		}
		b, err := instrumentedBuild(ds, targets, sc, path, nil, 0)
		if err != nil {
			return err
		}
		checkAdvisor(r, b)
		checkModels(r, ds, b)
	}
	r.attempted += builds

	buildS := median(walls)
	r.set("setup_s", "s", median(setups))
	r.set("peak_rss_mb", "MB", rss)
	r.set("cpu_ms_per_op", "ms", median(cpus))
	r.layer("op.p50_ms", "ms", buildS*1000)
	r.note("setup_s", "s", median(setups), len(setups))
	r.note("build_s", "s", buildS, len(walls))
	r.note("peak_rss_mb", "MB", rss, -1)
	r.note("cpu_s_per_build", "s", median(cpus)/1000, len(cpus))

	if !o.trace {
		return nil
	}
	r.layer("trace.overhead_ms", "ms", (median(tracedWalls)-buildS)*1000)
	traceAdvisor(r, tr, lastDS, last, len(tracedWalls))
	if err := tr.write(filepath.Join(o.traceDir, fmt.Sprintf("advisor-build-seed%d.json", o.seed))); err != nil {
		r.check(false, "writing spans: %v", err)
	}
	// The serving layers, probed on a server loaded with the advisor this
	// workload built.
	ts, err := serveTenants(o.seed)
	if err != nil {
		return err
	}
	dir, err := runDir(o, "probe")
	if err != nil {
		return err
	}
	srv, err := startServer(o.serverBin, dir, path, conns)
	if err != nil {
		return err
	}
	defer srv.stop()
	probeServing(r, srv, ts)
	return nil
}

// probeOffline runs one small traced build in-process (the serving
// advisor's size) so an online workload's traced run reports the offline
// layers too.
func probeOffline(o options, r *report) error {
	corpus, err := genMany("adv", corpusShapes(12), o.seed+2)
	if err != nil {
		return err
	}
	sc := buildScale(o.seed)
	sc.Queries = 60
	tr := newTracer()
	b, err := instrumentedBuild(corpus, corpus[:2], sc, filepath.Join(o.dir, "probe-advisor.gob"), tr, 1)
	if err != nil {
		return err
	}
	pr := newReport()
	traceAdvisor(pr, tr, corpus, b, 1)
	r.absorb(pr)
	return nil
}

// traceAdvisor derives the offline per-layer metrics from the traced
// builds' spans plus two serial probes (the oracle rerun and the
// allocation deltas).
func traceAdvisor(r *report, tr *tracer, ds []*dataset.Dataset, last *buildOut, builds int) {
	spans := tr.closed()
	tot, self := totals(spans), selfTimes(spans)
	// span converts a span-derived time to seconds per build; a span that
	// was never recorded is a lost probe, not a zero.
	span := func(m map[string]time.Duration, name string) float64 {
		r.check(tot[name] > 0, "no %s span was recorded", name)
		return m[name].Seconds() / float64(builds)
	}
	for _, name := range ce.Names() {
		r.layer("ce.fit_s."+name, "s", span(tot, "ce.fit."+name))
		r.layer("ce.estimate_s."+name, "s", span(tot, "ce.estimate."+name))
	}
	r.layer("testbed.finish_s", "s", span(self, "testbed.finish"))
	r.layer("testbed.prepare_s", "s", span(tot, "testbed.prepare"))
	r.layer("feature.extract_s", "s", span(tot, "feature.extract"))
	r.layer("core.dml_s", "s", span(tot, "core.dml"))
	r.layer("core.il_s", "s", span(tot, "core.il"))
	r.layer("core.save_s", "s", span(tot, "core.save"))
	r.layer("core.load_s", "s", span(tot, "core.load"))
	r.layer("core.artifact_bytes", "bytes", float64(last.artifactBytes))
	r.layer("core.rcs_size", "count", float64(last.adv.NumSamples()))
	r.layer("core.recommend_us", "us", span(tot, "core.recommend")*1e6/float64(len(last.targets)))
	r.layer("build.unaccounted_s", "s", span(self, "build"))
	r.layer("build.traced_s", "s", span(tot, "build"))

	// Oracle: CardinalityBatch over every prepared query, from a cold
	// join index.
	var oracle time.Duration
	nq := 0
	for i, res := range last.results {
		qs := append(append([]*workload.Query(nil), res.Train...), res.Test...)
		eqs := make([]*engine.Query, len(qs))
		for qi, q := range qs {
			eqs[qi] = &q.Query
		}
		engine.InvalidateIndex(ds[i])
		t0 := time.Now()
		cards := engine.CardinalityBatch(ds[i], eqs)
		oracle += time.Since(t0)
		engine.InvalidateIndex(ds[i])
		for qi, c := range cards {
			r.check(c == qs[qi].TrueCard, "oracle: CardinalityBatch on %s gives %d, labeled %d", ds[i].Name, c, qs[qi].TrueCard)
		}
		nq += len(qs)
	}
	r.layer("engine.oracle_s", "s", oracle.Seconds())
	r.layer("engine.oracle_queries", "count", float64(nq))

	// Allocation deltas of Fit and EstimateBatch, measured serially on a
	// few datasets so no other goroutine's allocations are counted.
	var fitB, estB uint64
	var ms0, ms1 runtime.MemStats
	n := min(4, len(ds))
	for i := 0; i < n; i++ {
		tc := testbed.DefaultConfig(int64(i))
		tc.NumQueries, tc.SampleRows, tc.Fast = 120, 400, true
		p, err := testbed.Prepare(ds[i], tc)
		engine.InvalidateIndex(ds[i])
		if err != nil {
			r.check(false, "alloc probe: %v", err)
			return
		}
		for mi := range p.Models {
			runtime.ReadMemStats(&ms0)
			err := p.TrainModel(mi)
			runtime.ReadMemStats(&ms1)
			fitB += ms1.TotalAlloc - ms0.TotalAlloc
			r.check(err == nil, "alloc probe: %v", err)
		}
		for mi, m := range p.Models {
			if ce.Specs()[mi].Kind == ce.Composite {
				continue // untrained outside Finish
			}
			runtime.ReadMemStats(&ms0)
			m.EstimateBatch(p.Test)
			runtime.ReadMemStats(&ms1)
			estB += ms1.TotalAlloc - ms0.TotalAlloc
		}
	}
	r.layer("ce.fit_alloc_mb", "MB", float64(fitB)/float64(n)/(1<<20))
	r.layer("ce.estimate_alloc_mb", "MB", float64(estB)/float64(n)/(1<<20))
}
