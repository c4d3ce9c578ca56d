package main

// Tests for the multi-tenant serving core: per-tenant snapshot isolation,
// budgeted eviction with transparent cold loads, quarantine surviving
// eviction, concurrent single-query estimates matching solo results, and
// sampling models answering alike across cold loads and servers.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/ce"
	"repro/internal/dataset"
)

// serveWithOpts builds the production handler around an inspectable
// *server, so tests can pin snapshot pointers and cache residency.
func serveWithOpts(t testing.TB, store *ce.Store, opts serveOptions) (*server, *httptest.Server) {
	t.Helper()
	adv, _ := testAdvisor(t, 10)
	s := newServerOpts(adv, store, opts)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// onboardAndTrain onboards d and trains model on it with a small budget.
func onboardAndTrain(t testing.TB, ts *httptest.Server, d *dataset.Dataset, model string) {
	t.Helper()
	if resp, data := postJSON(t, ts, "/datasets", datasetBody(d)); resp.StatusCode != http.StatusOK {
		t.Fatalf("onboarding %s failed: %d %s", d.Name, resp.StatusCode, data)
	}
	if resp, data := postJSON(t, ts, "/train", map[string]any{
		"dataset": d.Name, "model": model, "queries": 30, "sample_rows": 80,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("training %s on %s failed: %d %s", model, d.Name, resp.StatusCode, data)
	}
}

// rangeQueryBodies builds n single-table range queries over d's first
// column with distinct upper bounds, so distinct queries have tell-apart
// estimates.
func rangeQueryBodies(d *dataset.Dataset, n int) []map[string]any {
	lo, hi := d.Tables[0].Col(0).MinMax()
	var out []map[string]any
	for i := 0; i < n; i++ {
		out = append(out, map[string]any{
			"tables": []int{0},
			"preds":  []map[string]any{{"table": 0, "col": 0, "lo": lo, "hi": lo + (hi-lo)*int64(i+1)/int64(n)}},
		})
	}
	return out
}

// batchEstimates runs the batch form and returns the estimates.
func batchEstimates(t testing.TB, ts *httptest.Server, ds string, queries []map[string]any) []float64 {
	t.Helper()
	resp, data := postJSON(t, ts, "/estimate", map[string]any{"dataset": ds, "queries": queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/estimate batch on %s returned %d: %s", ds, resp.StatusCode, data)
	}
	var er estimateResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	return er.Estimates
}

// residencyOf reads /models and returns dataset/model -> residency.
func residencyOf(t *testing.T, ts *httptest.Server) (map[string]string, cacheStats) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr modelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, ti := range mr.Trained {
		out[ti.Dataset+"/"+ti.Model] = ti.Residency
	}
	return out, mr.Cache
}

// TestServeTenantSnapshotIsolation pins the multi-tenant contract:
// republishing one tenant (re-onboard or retrain) swaps that tenant's
// snapshot pointer and no other's.
func TestServeTenantSnapshotIsolation(t *testing.T) {
	s, ts := serveWithOpts(t, nil, serveOptions{})
	dA := serveDataset(t, 1, 201)
	dA.Name = "tenantA"
	dB := serveDataset(t, 1, 202)
	dB.Name = "tenantB"
	onboardAndTrain(t, ts, dA, "Postgres")
	onboardAndTrain(t, ts, dB, "Postgres")

	pinA := s.fleet.tenant("tenantA")
	pinB := s.fleet.tenant("tenantB")
	if pinA == nil || pinB == nil {
		t.Fatal("tenants not published")
	}

	// Retrain A: A's snapshot must swap, B's must be the same pointer.
	if resp, data := postJSON(t, ts, "/train", map[string]any{
		"dataset": "tenantA", "model": "LW-XGB", "queries": 30, "sample_rows": 80,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("retrain failed: %d %s", resp.StatusCode, data)
	}
	if s.fleet.tenant("tenantA") == pinA {
		t.Fatal("retraining tenantA did not publish a new snapshot")
	}
	if s.fleet.tenant("tenantB") != pinB {
		t.Fatal("retraining tenantA swapped tenantB's snapshot")
	}

	// Re-onboard A: same isolation.
	pinA = s.fleet.tenant("tenantA")
	if resp, data := postJSON(t, ts, "/datasets", datasetBody(dA)); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-onboard failed: %d %s", resp.StatusCode, data)
	}
	if s.fleet.tenant("tenantA") == pinA {
		t.Fatal("re-onboarding tenantA did not publish a new snapshot")
	}
	if s.fleet.tenant("tenantB") != pinB {
		t.Fatal("re-onboarding tenantA swapped tenantB's snapshot")
	}
}

// TestServeModelCacheEvictionColdLoadBitIdentical pins the paging
// contract: with a 1-model budget, training a second tenant evicts the
// first tenant's model, and the transparent cold load on its next
// estimate returns bit-identical results to the resident model.
func TestServeModelCacheEvictionColdLoadBitIdentical(t *testing.T) {
	store, err := ce.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := serveWithOpts(t, store, serveOptions{ModelBudget: 1})
	dA := serveDataset(t, 1, 203)
	dA.Name = "tenantA"
	dB := serveDataset(t, 1, 204)
	dB.Name = "tenantB"

	onboardAndTrain(t, ts, dA, "Postgres")
	qsA := rangeQueryBodies(dA, 6)
	baseline := batchEstimates(t, ts, "tenantA", qsA)

	// Training B blows the 1-model budget: A's model pages out.
	onboardAndTrain(t, ts, dB, "Postgres")
	res, stats := residencyOf(t, ts)
	if res["tenantA/Postgres"] != "evicted" || res["tenantB/Postgres"] != "loaded" {
		t.Fatalf("residency after eviction: %v", res)
	}
	if stats.Evictions == 0 || stats.ResidentModels != 1 {
		t.Fatalf("cache stats after eviction: %+v", stats)
	}

	// The next estimate against A cold-loads and must reproduce the
	// resident model's answers exactly.
	again := batchEstimates(t, ts, "tenantA", qsA)
	if len(again) != len(baseline) {
		t.Fatalf("cold-load returned %d estimates, want %d", len(again), len(baseline))
	}
	for i := range baseline {
		if again[i] != baseline[i] {
			t.Fatalf("estimate %d changed across eviction: %v -> %v", i, baseline[i], again[i])
		}
	}
	if got := s.cache.stats(); got.ColdLoads == 0 {
		t.Fatalf("no cold load recorded: %+v", got)
	}
	// A's cold load displaced B in turn (budget 1): B now pages back too.
	res, _ = residencyOf(t, ts)
	if res["tenantA/Postgres"] != "loaded" || res["tenantB/Postgres"] != "evicted" {
		t.Fatalf("residency after cold load: %v", res)
	}
	if ests := batchEstimates(t, ts, "tenantB", rangeQueryBodies(dB, 3)); len(ests) != 3 {
		t.Fatalf("tenantB estimates after round trip: %v", ests)
	}
}

// TestServeQuarantineSurvivesEviction pins that the quarantine flag lives
// outside residency: an evicted quarantined model must not be resurrected
// by a cold load, and only retraining clears it.
func TestServeQuarantineSurvivesEviction(t *testing.T) {
	store, err := ce.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := serveWithOpts(t, store, serveOptions{ModelBudget: 1})
	dA := serveDataset(t, 1, 205)
	dA.Name = "tenantA"
	dB := serveDataset(t, 1, 206)
	dB.Name = "tenantB"
	onboardAndTrain(t, ts, dA, "Postgres")

	sm := s.fleet.tenant("tenantA").models["Postgres"]
	sm.quarantined.Store(true) // as an inference panic would

	// Evict it by training another tenant under the 1-model budget.
	onboardAndTrain(t, ts, dB, "Postgres")
	if resident, _ := s.cache.residency(sm); resident {
		t.Fatal("quarantined model was not evicted")
	}
	res, _ := residencyOf(t, ts)
	if res["tenantA/Postgres"] != "quarantined" {
		t.Fatalf("residency of evicted quarantined model: %v", res)
	}

	// Estimates fail fast without paging the model back in.
	before := s.cache.stats().ColdLoads
	resp, data := postJSON(t, ts, "/estimate", map[string]any{
		"dataset": "tenantA", "query": rangeQueryBodies(dA, 1)[0]})
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(data, []byte("quarantined")) {
		t.Fatalf("estimate against quarantined model: %d %s", resp.StatusCode, data)
	}
	if after := s.cache.stats().ColdLoads; after != before {
		t.Fatal("quarantined estimate cold-loaded the model anyway")
	}

	// Retraining replaces the servedModel wholesale and clears the state.
	if resp, data := postJSON(t, ts, "/train", map[string]any{
		"dataset": "tenantA", "model": "Postgres", "queries": 30, "sample_rows": 80,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("retrain failed: %d %s", resp.StatusCode, data)
	}
	if ests := batchEstimates(t, ts, "tenantA", rangeQueryBodies(dA, 2)); len(ests) != 2 {
		t.Fatalf("estimates after retrain: %v", ests)
	}
}

// TestServeCoalescedEstimatesMatchSolo pins batch ≡ single-query end to
// end: concurrent single-query estimates return exactly the same
// per-query answers as a solo batched call.
func TestServeCoalescedEstimatesMatchSolo(t *testing.T) {
	_, ts := serveWithOpts(t, nil, serveOptions{})
	d := serveDataset(t, 1, 207)
	d.Name = "tenantA"
	onboardAndTrain(t, ts, d, "Postgres")

	const nq = 6
	queries := rangeQueryBodies(d, nq)
	baseline := batchEstimates(t, ts, "tenantA", queries)
	if len(baseline) != nq {
		t.Fatalf("baseline has %d estimates", len(baseline))
	}

	// Storm of concurrent singles: every response must match the solo
	// answer for its own query — merged rides must never leak a
	// neighbor's result into the wrong slot.
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, rounds*nq)
	for r := 0; r < rounds; r++ {
		for qi := 0; qi < nq; qi++ {
			wg.Add(1)
			go func(qi int) {
				defer wg.Done()
				resp, data := postJSONQuiet(ts, "/estimate", map[string]any{
					"dataset": "tenantA", "query": queries[qi]})
				if resp == nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("query %d: bad response %v %s", qi, resp, data)
					return
				}
				var er estimateResponse
				if err := json.Unmarshal(data, &er); err != nil {
					errs <- err
					return
				}
				if er.Estimate != baseline[qi] {
					errs <- fmt.Errorf("query %d: coalesced %v != solo %v", qi, er.Estimate, baseline[qi])
				}
			}(qi)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// postJSONQuiet is postJSON without t (usable from goroutines): it
// returns a nil response on transport errors.
func postJSONQuiet(ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, nil
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return nil, nil
	}
	return resp, out.Bytes()
}

// TestServeEstimateEvictRetrainRace churns estimates against two tenants
// sharing a 1-model cache while one tenant retrains — eviction, cold
// load, and supersede all race under -race. Every response
// must be a well-defined outcome (200, or a clean shed/conflict).
func TestServeEstimateEvictRetrainRace(t *testing.T) {
	store, err := ce.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := serveWithOpts(t, store, serveOptions{ModelBudget: 1})
	dA := serveDataset(t, 1, 208)
	dA.Name = "tenantA"
	dB := serveDataset(t, 1, 209)
	dB.Name = "tenantB"
	onboardAndTrain(t, ts, dA, "Postgres")
	onboardAndTrain(t, ts, dB, "Postgres")
	qA := rangeQueryBodies(dA, 1)[0]
	qB := rangeQueryBodies(dB, 1)[0]

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				ds, q := "tenantA", qA
				if (w+i)%2 == 0 {
					ds, q = "tenantB", qB
				}
				resp, data := postJSONQuiet(ts, "/estimate", map[string]any{
					"dataset": ds, "model": "Postgres", "query": q})
				if resp == nil {
					t.Error("estimate transport error")
					return
				}
				switch resp.StatusCode {
				case http.StatusOK, http.StatusServiceUnavailable, http.StatusTooManyRequests:
				default:
					t.Errorf("estimate on %s returned %d: %s", ds, resp.StatusCode, data)
					return
				}
			}
		}(w)
	}
	// Retrain A mid-storm: each publish supersedes the previous model
	// while estimates may hold it cold-loading or pinned.
	for i := 0; i < 3; i++ {
		resp, data := postJSON(t, ts, "/train", map[string]any{
			"dataset": "tenantA", "model": "Postgres", "queries": 30, "sample_rows": 80, "seed": i,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("retrain %d failed: %d %s", i, resp.StatusCode, data)
		}
	}
	wg.Wait()

	// The fleet settles: both tenants answer.
	if ests := batchEstimates(t, ts, "tenantA", rangeQueryBodies(dA, 2)); len(ests) != 2 {
		t.Fatalf("tenantA after storm: %v", ests)
	}
	if ests := batchEstimates(t, ts, "tenantB", rangeQueryBodies(dB, 2)); len(ests) != 2 {
		t.Fatalf("tenantB after storm: %v", ests)
	}
}

// TestServeSamplingModelsAnswerAlike pins stateless sampling end to end:
// a NeuroCard and a UAE tenant on one store-backed server with a 1-model
// budget answer byte-identically before eviction and after the cold load
// that follows, and a second server over the same store and manifest
// (a replica, or the restarted process) answers byte-identically too —
// however many estimates either server made before.
func TestServeSamplingModelsAnswerAlike(t *testing.T) {
	dir := t.TempDir()
	opts := serveOptions{ModelBudget: 1, ManifestPath: filepath.Join(dir, "tenants.manifest")}
	store1, err := ce.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := serveWithOpts(t, store1, opts)
	tenants := []struct {
		name, model string
		seed        int64
	}{{"ncTenant", "NeuroCard", 211}, {"uaeTenant", "UAE", 212}}
	// One batch body and its queries one at a time, per tenant. Each
	// query also bounds a later column, whose mass depends on the bins
	// sampled for the columns before it; the 2-table join query brings
	// the subset key into the stream seed.
	bodies := map[string][]map[string]any{}
	for _, tn := range tenants {
		d := serveDataset(t, 2, tn.seed)
		d.Name = tn.name
		onboardAndTrain(t, ts1, d, tn.model)
		qs := rangeQueryBodies(d, 5)
		for ti := range d.Tables {
			lo, hi := d.Tables[ti].Col(1).MinMax()
			qs[ti]["preds"] = append(qs[ti]["preds"].([]map[string]any),
				map[string]any{"table": ti, "col": 1, "lo": lo + (hi-lo)/4, "hi": hi - (hi-lo)/4})
			qs[ti]["tables"] = []int{0, ti}
		}
		bodies[tn.name] = []map[string]any{{"dataset": tn.name, "model": tn.model, "queries": qs}}
		for _, q := range qs {
			bodies[tn.name] = append(bodies[tn.name], map[string]any{"dataset": tn.name, "model": tn.model, "query": q})
		}
	}
	answers := func(ts *httptest.Server, tenant string) []string {
		t.Helper()
		var out []string
		for _, body := range bodies[tenant] {
			resp, data := postJSON(t, ts, "/estimate", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/estimate on %s returned %d: %s", tenant, resp.StatusCode, data)
			}
			out = append(out, string(data))
		}
		return out
	}
	same := func(what string, got, want []string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s:\n got %q\nwant %q", what, got, want)
		}
	}

	// Training UAE evicted NeuroCard, so UAE answers resident and
	// NeuroCard's answers come from a cold load that evicts UAE in turn.
	if res, _ := residencyOf(t, ts1); res["ncTenant/NeuroCard"] != "evicted" || res["uaeTenant/UAE"] != "loaded" {
		t.Fatalf("residency after training: %v", res)
	}
	uaeResident := answers(ts1, "uaeTenant")
	same("UAE repeated", answers(ts1, "uaeTenant"), uaeResident)
	ncCold := answers(ts1, "ncTenant")
	if res, _ := residencyOf(t, ts1); res["ncTenant/NeuroCard"] != "loaded" || res["uaeTenant/UAE"] != "evicted" {
		t.Fatalf("residency after the NeuroCard cold load: %v", res)
	}
	ncResident := answers(ts1, "ncTenant")
	same("NeuroCard resident vs cold-loaded", ncResident, ncCold)
	same("UAE cold-loaded vs resident", answers(ts1, "uaeTenant"), uaeResident)
	if got := s1.cache.stats().ColdLoads; got < 2 {
		t.Fatalf("%d cold loads, want at least 2", got)
	}

	// A second server over the same store and manifest answers alike.
	store2, err := ce.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := serveWithOpts(t, store2, opts)
	same("UAE on the second server", answers(ts2, "uaeTenant"), uaeResident)
	same("NeuroCard on the second server", answers(ts2, "ncTenant"), ncResident)
}
