// Cloudtenant: the paper's motivating cloud-vendor scenario (Section I,
// "Applications") turned into a load harness for the multi-tenant serving
// stack. A cloud data service hosts hundreds of tenants with different
// datasets; the vendor serves per-tenant CE models from one autoce-serve
// fleet whose model cache pages trained artifacts in and out under a
// memory budget far below "every tenant resident".
//
// The harness spawns a real autoce-serve process (optionally a -race
// build — the tenant-soak CI job does exactly that), onboards -tenants
// synthetic single-table tenants, trains a Postgres estimator per tenant,
// then drives an estimate storm that forces continuous eviction churn:
// with 500 tenants on a 64-model budget, ~7/8 of requests cold-load.
//
// Correctness gates, checked at exit (non-zero status on violation):
//
//   - Zero wrong-tenant answers. Every tenant's table has a unique row
//     count, and estimates are deterministic, so each tenant's range
//     queries have a recorded expected answer; any response that does not
//     match it exactly means a request was served by another tenant's
//     model (or a cold load was not bit-identical).
//   - Eviction churn actually happened (evictions > 0, cold loads > 0)
//     and the cache never exceeded its budget.
//   - No request failed with anything but an admission shed (429/503).
//   - The server process exited cleanly and logged no data race.
//
// It reports per-endpoint latency (onboard, train, estimate,
// estimate-batch) as p50/p90/p99/max from internal/latency histograms.
//
// Run with: go run ./examples/cloudtenant [-tenants 500 -model-budget 64]
//
// -chaos switches to the fleet-kill drill (chaos.go): a 3-shard fleet
// with replica sets, one shard SIGKILLed and restarted mid-storm, gated
// on zero wrong-tenant answers, a bounded client-visible error rate, and
// the killed shard rejoining from its tenant manifest.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/gnn"
	"repro/internal/latency"
	"repro/internal/par"
)

var (
	nTenants    = flag.Int("tenants", 500, "synthetic tenants to onboard and train")
	modelBudget = flag.Int("model-budget", 64, "server -model-budget (resident-model cap)")
	stormFor    = flag.Duration("duration", 15*time.Second, "estimate-storm duration")
	workers     = flag.Int("workers", 16, "concurrent estimate-storm workers")
	setupPar    = flag.Int("setup-workers", 8, "concurrent onboard/train workers")
	serveBin    = flag.String("serve-bin", "", "prebuilt autoce-serve binary (empty = go build one)")
	raceServer  = flag.Bool("race-server", false, "build the server with -race (ignored with -serve-bin)")
	seed        = flag.Int64("seed", 1, "tenant-generation seed")
)

// tenant is one synthetic customer: a single-table dataset with a unique
// row count plus the recorded expected answers to its fixed query set.
type tenant struct {
	name     string
	d        *dataset.Dataset
	queries  []map[string]any // fixed range queries; [len-1] is full-range
	expected []float64        // recorded ground truth, index-aligned
}

// hists collects per-endpoint latency, merged from per-worker recorders.
type hists struct {
	mu sync.Mutex
	m  map[string]*latency.Histogram
}

func (h *hists) merge(endpoint string, rec *latency.Histogram) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.endpoint(endpoint).Merge(rec)
}

// record adds one observation; for callers that time one request per call.
func (h *hists) record(endpoint string, d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.endpoint(endpoint).Record(d)
}

// endpoint returns the endpoint's histogram, creating it; h.mu is held.
func (h *hists) endpoint(name string) *latency.Histogram {
	if h.m[name] == nil {
		h.m[name] = &latency.Histogram{}
	}
	return h.m[name]
}

func main() {
	flag.Parse()
	run := run
	if *chaosMode {
		run = runChaos
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cloudtenant: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("cloudtenant: PASS")
}

func run() error {
	tmp, err := os.MkdirTemp("", "cloudtenant")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	advPath := filepath.Join(tmp, "advisor.gob")
	if err := trainAdvisor(advPath); err != nil {
		return fmt.Errorf("advisor: %w", err)
	}
	bin := *serveBin
	if bin == "" {
		bin = filepath.Join(tmp, "autoce-serve")
		if err := buildServer(bin); err != nil {
			return fmt.Errorf("building server: %w", err)
		}
	}

	srv, err := spawnServer(bin, advPath, tmp)
	if err != nil {
		return err
	}
	defer srv.stop()

	fmt.Printf("cloudtenant: %d tenants, model budget %d, storm %v x %d workers against %s\n",
		*nTenants, *modelBudget, *stormFor, *workers, srv.base)

	lat := &hists{m: map[string]*latency.Histogram{}}
	tenants := makeTenants(*nTenants, *seed)
	if err := onboardAndTrainAll(srv, tenants, lat); err != nil {
		return srv.failWithLog(err)
	}
	if err := recordGroundTruth(srv, tenants); err != nil {
		return srv.failWithLog(err)
	}
	wrong, shed, requests, err := estimateStorm(srv, tenants, lat)
	if err != nil {
		return srv.failWithLog(err)
	}

	stats, err := cacheStatsOf(srv)
	if err != nil {
		return srv.failWithLog(err)
	}
	for _, ep := range []string{"onboard", "train", "estimate", "estimate-batch"} {
		if h := lat.m[ep]; h != nil {
			fmt.Printf("  %-15s %s\n", ep, h.Summary())
		}
	}
	fmt.Printf("  storm: %d requests, %d wrong-tenant answers, %d shed (429/503)\n", requests, wrong, shed)
	fmt.Printf("  cache: %v/%d models resident, %v evictions, %v cold loads, %v write-backs, %v eviction failures\n",
		stats["resident_models"], *modelBudget, stats["evictions"], stats["cold_loads"],
		stats["writebacks"], stats["eviction_failures"])

	if err := srv.stop(); err != nil {
		return err
	}
	switch {
	case wrong > 0:
		return srv.failWithLog(fmt.Errorf("%d wrong-tenant answers", wrong))
	case stats["evictions"] == 0 || stats["cold_loads"] == 0:
		return fmt.Errorf("no eviction churn (evictions=%v cold_loads=%v) — the budget never bound", stats["evictions"], stats["cold_loads"])
	case int(stats["resident_models"]) > *modelBudget:
		return fmt.Errorf("cache over budget: %v resident > %d", stats["resident_models"], *modelBudget)
	case stats["eviction_failures"] > 0:
		return srv.failWithLog(fmt.Errorf("%v eviction write-backs failed", stats["eviction_failures"]))
	}
	return nil
}

// trainAdvisor trains a small advisor (the server refuses to start
// without one) on a synthetic corpus and saves it as a gob artifact.
func trainAdvisor(path string) error {
	featCfg := feature.DefaultConfig()
	rng := rand.New(rand.NewSource(19))
	var samples []*core.Sample
	for i := 0; i < 10; i++ {
		p := datagen.DefaultParams(rng.Int63())
		p.MinRows, p.MaxRows = 60, 120
		p.Tables = 1 + rng.Intn(3)
		d, err := datagen.Generate("t", p)
		if err != nil {
			return err
		}
		g, err := feature.Extract(d, featCfg)
		if err != nil {
			return err
		}
		noise := func() float64 { return rng.Float64() * 0.05 }
		sa := []float64{1 - noise(), 0.3 + noise(), 0.1 + noise()}
		if d.NumTables() > 1 {
			sa = []float64{0.3 + noise(), 1 - noise(), 0.1 + noise()}
		}
		se := []float64{0.2 + noise(), 0.1 + noise(), 1 - noise()}
		samples = append(samples, &core.Sample{Name: d.Name, Graph: g, Sa: sa, Se: se})
	}
	cfg := core.DefaultConfig(featCfg.VertexDim())
	cfg.GNN = gnn.Config{InDim: featCfg.VertexDim(), Hidden: 16, OutDim: 8, Layers: 2, Seed: 5}
	cfg.Epochs = 6
	cfg.Batch = 12
	adv, err := core.Train(samples, cfg)
	if err != nil {
		return err
	}
	return adv.SaveFile(path)
}

func buildServer(out string) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	args := []string{"build"}
	if *raceServer {
		args = append(args, "-race")
	}
	args = append(args, "-o", out, "./cmd/autoce-serve")
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if data, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%v: %s", err, data)
	}
	return nil
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s — run from inside the repo", dir)
		}
		dir = parent
	}
}

// serverProc is the spawned autoce-serve process plus its captured log.
type serverProc struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	log     *bytes.Buffer
	stopped bool
}

func spawnServer(bin, advPath, tmp string) (*serverProc, error) {
	addrFile := filepath.Join(tmp, "addr")
	args := []string{
		"-advisor", advPath,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-model-dir", filepath.Join(tmp, "models"),
		"-model-budget", fmt.Sprint(*modelBudget),
	}
	sp := &serverProc{cmd: exec.Command(bin, args...), log: &bytes.Buffer{}}
	sp.cmd.Stdout = sp.log
	sp.cmd.Stderr = sp.log
	if err := sp.cmd.Start(); err != nil {
		return nil, err
	}
	sp.client = &http.Client{Timeout: 30 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			sp.base = "http://" + strings.TrimSpace(string(data))
			break
		}
		if time.Now().After(deadline) {
			sp.stop()
			return nil, fmt.Errorf("server never wrote %s; log:\n%s", addrFile, tail(sp.log))
		}
		time.Sleep(50 * time.Millisecond)
	}
	for {
		resp, err := sp.client.Get(sp.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sp, nil
			}
		}
		if time.Now().After(deadline) {
			sp.stop()
			return nil, fmt.Errorf("server never became healthy; log:\n%s", tail(sp.log))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// stop terminates the server and fails on an unclean exit or a logged
// data race (the tenant-soak CI job runs a -race build).
func (sp *serverProc) stop() error {
	if sp.stopped {
		return sp.checkLog()
	}
	sp.stopped = true
	sp.cmd.Process.Signal(os.Interrupt)
	done := make(chan error, 1)
	//autoce:ignore barego -- reaps the child so the select below can time out on it
	go func() { done <- sp.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("server exited uncleanly: %v; log:\n%s", err, tail(sp.log))
		}
	case <-time.After(30 * time.Second):
		sp.cmd.Process.Kill()
		<-done
		return fmt.Errorf("server did not shut down within 30s; log:\n%s", tail(sp.log))
	}
	return sp.checkLog()
}

// kill terminates the server without grace — the chaos drill's simulated
// crash. The process cannot exit cleanly, so stop()'s clean-exit check is
// skipped; checkLog still applies to whatever it logged while alive.
func (sp *serverProc) kill() {
	if sp.stopped {
		return
	}
	sp.stopped = true
	sp.cmd.Process.Kill()
	sp.cmd.Wait()
}

func (sp *serverProc) checkLog() error {
	if bytes.Contains(sp.log.Bytes(), []byte("DATA RACE")) {
		return fmt.Errorf("server log reports a data race:\n%s", tail(sp.log))
	}
	return nil
}

// failWithLog attaches the server log tail to a harness-side failure so
// CI output shows both sides of the conversation.
func (sp *serverProc) failWithLog(err error) error {
	return fmt.Errorf("%w\nserver log tail:\n%s", err, tail(sp.log))
}

func tail(b *bytes.Buffer) string {
	const keep = 4096
	s := b.String()
	if len(s) > keep {
		s = "..." + s[len(s)-keep:]
	}
	return s
}

// makeTenants builds n single-table datasets with unique row counts —
// the property the wrong-tenant check rests on.
func makeTenants(n int, seed int64) []*tenant {
	tenants := make([]*tenant, n)
	for i := range tenants {
		p := datagen.Params{
			Tables:  1,
			MinCols: 2, MaxCols: 2,
			MinRows: 120 + i, MaxRows: 120 + i,
			Domain: 25,
			SkewLo: 0, SkewHi: 0.8,
			CorrLo: 0, CorrHi: 0.5,
			JoinLo: 0.5, JoinHi: 1,
			Seed: seed + int64(i),
		}
		d, err := datagen.Generate("tenant", p)
		if err != nil {
			panic(err) // deterministic generator; cannot fail on valid params
		}
		d.Name = fmt.Sprintf("tenant-%04d", i)
		tenants[i] = &tenant{name: d.Name, d: d, queries: rangeQueries(d, 8)}
	}
	return tenants
}

// rangeQueries builds n range queries over d's first column with distinct
// upper bounds; the last covers the full domain, so its Postgres estimate
// tracks the tenant's (unique) row count.
func rangeQueries(d *dataset.Dataset, n int) []map[string]any {
	lo, hi := d.Tables[0].Col(0).MinMax()
	out := make([]map[string]any, n)
	for i := range out {
		out[i] = map[string]any{
			"tables": []int{0},
			"preds":  []map[string]any{{"table": 0, "col": 0, "lo": lo, "hi": lo + (hi-lo)*int64(i+1)/int64(n)}},
		}
	}
	return out
}

func datasetBody(d *dataset.Dataset) map[string]any {
	var tables []map[string]any
	for _, t := range d.Tables {
		var cols []map[string]any
		for _, c := range t.Cols {
			cols = append(cols, map[string]any{"name": c.Name, "data": c.Data})
		}
		tb := map[string]any{"name": t.Name, "cols": cols}
		if t.PKCol >= 0 {
			tb["pk"] = t.PKCol
		}
		tables = append(tables, tb)
	}
	var fks []map[string]any
	for _, fk := range d.FKs {
		fks = append(fks, map[string]any{
			"from_table": fk.FromTable, "from_col": fk.FromCol,
			"to_table": fk.ToTable, "to_col": fk.ToCol,
		})
	}
	return map[string]any{"name": d.Name, "tables": tables, "fks": fks}
}

// post sends one JSON request, retrying admission sheds (429/503) — the
// server is allowed to push back under load, just not to answer wrongly.
// The returned status is the final one; body is decoded into out when 200.
func (sp *serverProc) post(path string, body any, out any, retries int) (int, error) {
	return sp.postKey(path, "", body, out, retries)
}

// postKey is post with the fleet routing header: chaos mode stamps every
// request with its tenant key so any shard can front it (X-Shard-Key
// requests are forwarded to a shard that can serve them).
func (sp *serverProc) postKey(path, key string, body any, out any, retries int) (int, error) {
	enc, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, sp.base+path, bytes.NewReader(enc))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set("X-Shard-Key", key)
		}
		resp, err := sp.client.Do(req)
		if err != nil {
			return 0, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			if out == nil {
				return resp.StatusCode, nil
			}
			return resp.StatusCode, json.Unmarshal(data, out)
		case (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) && attempt < retries:
			time.Sleep(time.Duration(50+attempt*50) * time.Millisecond)
		default:
			return resp.StatusCode, fmt.Errorf("%s returned %d: %s", path, resp.StatusCode, data)
		}
	}
}

// onboardAndTrainAll pushes every tenant through /datasets and /train
// with bounded concurrency, timing both endpoints.
func onboardAndTrainAll(sp *serverProc, tenants []*tenant, lat *hists) error {
	err := par.For(len(tenants), *setupPar, func(i int) error {
		tn := tenants[i]
		t0 := time.Now()
		if _, err := sp.post("/datasets", datasetBody(tn.d), nil, 20); err != nil {
			return fmt.Errorf("onboarding %s: %w", tn.name, err)
		}
		lat.record("onboard", time.Since(t0))
		t0 = time.Now()
		if _, err := sp.post("/train", map[string]any{
			"dataset": tn.name, "model": "Postgres", "queries": 30, "sample_rows": 80,
		}, nil, 20); err != nil {
			return fmt.Errorf("training %s: %w", tn.name, err)
		}
		lat.record("train", time.Since(t0))
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("  onboarded and trained %d tenants\n", len(tenants))
	return nil
}

// recordGroundTruth fixes each tenant's expected answers with one batch
// estimate. The walk over all tenants on a small budget is itself the
// first eviction storm: by the end, most models are paged out again, so
// every expectation was recorded through the same cold-load path the
// storm exercises.
func recordGroundTruth(sp *serverProc, tenants []*tenant) error {
	distinct := map[float64]string{}
	collisions := 0
	for _, tn := range tenants {
		var er struct {
			Estimates []float64 `json:"estimates"`
		}
		if _, err := sp.post("/estimate", map[string]any{"dataset": tn.name, "queries": tn.queries}, &er, 20); err != nil {
			return fmt.Errorf("ground truth for %s: %w", tn.name, err)
		}
		if len(er.Estimates) != len(tn.queries) {
			return fmt.Errorf("ground truth for %s: %d estimates for %d queries", tn.name, len(er.Estimates), len(tn.queries))
		}
		tn.expected = er.Estimates
		full := er.Estimates[len(er.Estimates)-1]
		if prev, ok := distinct[full]; ok {
			collisions++
			if collisions <= 3 {
				fmt.Printf("  note: %s and %s share full-range estimate %v (weakens cross-tenant detection for this pair)\n", prev, tn.name, full)
			}
		}
		distinct[full] = tn.name
	}
	return nil
}

// estimateStorm hammers /estimate for the configured duration: random
// tenants, mixing single-query calls with batches, checking
// every answer against the tenant's recorded expectation.
func estimateStorm(sp *serverProc, tenants []*tenant, lat *hists) (wrong, shed, requests int64, err error) {
	stop := time.Now().Add(*stormFor)
	err = par.For(*workers, *workers, func(w int) error {
		rng := rand.New(rand.NewSource(int64(w) * 7919))
		var single, batch latency.Histogram
		defer func() {
			lat.merge("estimate", &single)
			lat.merge("estimate-batch", &batch)
		}()
		for time.Now().Before(stop) {
			tn := tenants[rng.Intn(len(tenants))]
			atomic.AddInt64(&requests, 1)
			if rng.Intn(4) > 0 { // 3:1 single-to-batch mix
				qi := rng.Intn(len(tn.queries))
				var er struct {
					Estimate float64 `json:"estimate"`
				}
				t0 := time.Now()
				status, err := sp.post("/estimate", map[string]any{"dataset": tn.name, "query": tn.queries[qi]}, &er, 0)
				if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
					atomic.AddInt64(&shed, 1)
					continue
				}
				if err != nil {
					return err
				}
				single.Record(time.Since(t0))
				if er.Estimate != tn.expected[qi] {
					atomic.AddInt64(&wrong, 1)
				}
			} else {
				var er struct {
					Estimates []float64 `json:"estimates"`
				}
				t0 := time.Now()
				status, err := sp.post("/estimate", map[string]any{"dataset": tn.name, "queries": tn.queries}, &er, 0)
				if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
					atomic.AddInt64(&shed, 1)
					continue
				}
				if err != nil {
					return err
				}
				batch.Record(time.Since(t0))
				for i, est := range er.Estimates {
					if est != tn.expected[i] {
						atomic.AddInt64(&wrong, 1)
					}
				}
			}
		}
		return nil
	})
	return wrong, shed, requests, err
}

// cacheStatsOf reads the model cache counters from /models.
func cacheStatsOf(sp *serverProc) (map[string]float64, error) {
	resp, err := sp.client.Get(sp.base + "/models")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var mr struct {
		Cache map[string]float64 `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return nil, err
	}
	return mr.Cache, nil
}
