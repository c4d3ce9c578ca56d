package main

// Endpoint-level tests of the resilience layer: deadlines, admission
// control, panic isolation with per-model quarantine, the recovery
// middleware, and the readiness probe. Fault injection goes through
// internal/resilience failpoints armed per test.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/resilience"
)

// mustGraph extracts d's feature graph with the default config (the same
// dimensioning testAdvisor trains with).
func mustGraph(t *testing.T, d *dataset.Dataset) *feature.Graph {
	t.Helper()
	g, err := feature.Extract(d, feature.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// trainModelOn trains one named model for a dataset already onboarded on
// ts, failing the test on any non-200.
func trainModelOn(t *testing.T, ts *httptest.Server, ds, model string) {
	t.Helper()
	resp, data := postJSON(t, ts, "/train", map[string]any{"dataset": ds, "model": model})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("training %s on %s returned %d: %s", model, ds, resp.StatusCode, data)
	}
}

// onboard onboards d on ts, failing the test on any non-200.
func onboard(t *testing.T, ts *httptest.Server, d *dataset.Dataset) {
	t.Helper()
	resp, data := postJSON(t, ts, "/datasets", datasetBody(d))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("onboarding %s returned %d: %s", d.Name, resp.StatusCode, data)
	}
}

// estimateStatus posts a single-query estimate and returns the status.
func estimateStatus(t *testing.T, ts *httptest.Server, ds, model string) (int, []byte) {
	t.Helper()
	resp, data := postJSON(t, ts, "/estimate", map[string]any{
		"dataset": ds, "model": model,
		"query": map[string]any{"tables": []int{0}},
	})
	return resp.StatusCode, data
}

func TestServeReadyz(t *testing.T) {
	adv, _ := testAdvisor(t, 8)
	srv := newServerOpts(adv, nil, serveOptions{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz returned %d before shutdown", resp.StatusCode)
	}

	// Shutdown flips readiness (main does this on SIGTERM); liveness
	// stays up so in-flight drains are still observable.
	srv.ready.Store(false)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz returned %d while draining, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz returned %d while draining, want 200 (liveness)", resp.StatusCode)
	}
}

func TestServeRecoveryMiddlewareSurvivesPanic(t *testing.T) {
	defer resilience.ClearFailpoints()
	adv, _ := testAdvisor(t, 8)
	ts := httptest.NewServer(newServer(adv, nil))
	defer ts.Close()

	if err := resilience.SetFailpoint("serve.onboard", "panic"); err != nil {
		t.Fatal(err)
	}
	d := serveDataset(t, 1, 41)
	resp, _ := postJSON(t, ts, "/datasets", datasetBody(d))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking onboard returned %d, want 500", resp.StatusCode)
	}
	resilience.ClearFailpoint("serve.onboard")

	// The server survived: the same onboarding now succeeds.
	onboard(t, ts, d)
}

func TestServeTrainQueueFull(t *testing.T) {
	defer resilience.ClearFailpoints()
	adv, _ := testAdvisor(t, 8)
	srv := newServerOpts(adv, nil, serveOptions{
		TrainDeadline: 10 * time.Second,
		Admission:     resilience.AdmissionConfig{TrainQueue: 1},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	onboard(t, ts, serveDataset(t, 1, 42))

	// Hold the single queue slot with a training that sleeps in Fit.
	if err := resilience.SetFailpoint("ce.pglike.fit", "sleep(600ms)"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, data := postJSON(t, ts, "/train", map[string]any{"dataset": "served", "model": "Postgres"})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("slot-holding train returned %d: %s", resp.StatusCode, data)
		}
	}()
	// Wait until the first train occupies the queue (sleep failpoint hit
	// means it is inside Fit, past AdmitTrain).
	deadline := time.Now().Add(5 * time.Second)
	for resilience.FailpointHits("ce.pglike.fit") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first train never reached Fit")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, data := postJSON(t, ts, "/train", map[string]any{"dataset": "served", "model": "Postgres"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("train with full queue returned %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}

	// The cheap class is untouched by train-queue saturation.
	resp, data = postJSON(t, ts, "/recommend", map[string]any{"dataset": "served", "wa": 0.9})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/recommend during train saturation returned %d: %s", resp.StatusCode, data)
	}
	wg.Wait()
}

func TestServeEstimateDeadline(t *testing.T) {
	defer resilience.ClearFailpoints()
	adv, _ := testAdvisor(t, 8)
	srv := newServerOpts(adv, nil, serveOptions{EstimateDeadline: 60 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	onboard(t, ts, serveDataset(t, 1, 43))
	trainModelOn(t, ts, "served", "Postgres")

	// Inference outlives the deadline; the chunked batch path notices at
	// its next checkpoint and answers 503 instead of wedging.
	if err := resilience.SetFailpoint("ce.pglike.estimate", "sleep(250ms)"); err != nil {
		t.Fatal(err)
	}
	status, data := estimateStatus(t, ts, "served", "Postgres")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("over-deadline estimate returned %d: %s", status, data)
	}
	resilience.ClearFailpoint("ce.pglike.estimate")

	status, data = estimateStatus(t, ts, "served", "Postgres")
	if status != http.StatusOK {
		t.Fatalf("estimate after clearing failpoint returned %d: %s", status, data)
	}
}

func TestServeTrainDeadlineAbandonsCooperatively(t *testing.T) {
	defer resilience.ClearFailpoints()
	adv, _ := testAdvisor(t, 8)
	srv := newServerOpts(adv, nil, serveOptions{TrainDeadline: 80 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	onboard(t, ts, serveDataset(t, 1, 44))

	if err := resilience.SetFailpoint("ce.pglike.fit", "sleep(400ms)"); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	resp, data := postJSON(t, ts, "/train", map[string]any{"dataset": "served", "model": "Postgres"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-deadline train returned %d: %s", resp.StatusCode, data)
	}
	// The handler answered at the deadline, not after the full sleep.
	if elapsed := time.Since(t0); elapsed > 350*time.Millisecond {
		t.Fatalf("train deadline response took %v", elapsed)
	}
	resilience.ClearFailpoint("ce.pglike.fit")

	// The abandoned trainer held the single-flight slot until it wound
	// down; once it has, training proceeds normally.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, data = postJSON(t, ts, "/train", map[string]any{"dataset": "served", "model": "Postgres"})
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("train never recovered after abandoned run: %d %s", resp.StatusCode, data)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestServeQuarantineIsolatesFaultingModel(t *testing.T) {
	defer resilience.ClearFailpoints()
	adv, _ := testAdvisor(t, 8)
	ts := httptest.NewServer(newServer(adv, nil))
	defer ts.Close()
	onboard(t, ts, serveDataset(t, 1, 45))
	trainModelOn(t, ts, "served", "Postgres")
	trainModelOn(t, ts, "served", "LW-XGB")

	// Postgres inference now panics: the first estimate trips the fence
	// (503), quarantining that model only.
	if err := resilience.SetFailpoint("ce.pglike.estimate", "panic"); err != nil {
		t.Fatal(err)
	}
	status, data := estimateStatus(t, ts, "served", "Postgres")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("panicking estimate returned %d: %s", status, data)
	}
	// Quarantine persists even with the fault gone — the model is marked,
	// not re-probed.
	resilience.ClearFailpoint("ce.pglike.estimate")
	status, data = estimateStatus(t, ts, "served", "Postgres")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("quarantined estimate returned %d: %s", status, data)
	}
	// The healthy tenant keeps answering throughout.
	status, data = estimateStatus(t, ts, "served", "LW-XGB")
	if status != http.StatusOK {
		t.Fatalf("healthy model returned %d during quarantine: %s", status, data)
	}

	// Retraining publishes a fresh servedModel, clearing the quarantine.
	trainModelOn(t, ts, "served", "Postgres")
	status, data = estimateStatus(t, ts, "served", "Postgres")
	if status != http.StatusOK {
		t.Fatalf("retrained model returned %d: %s", status, data)
	}
}

func TestServeQuarantineWithParallelBatch(t *testing.T) {
	defer resilience.ClearFailpoints()
	adv, _ := testAdvisor(t, 8)
	ts := httptest.NewServer(newServer(adv, nil))
	defer ts.Close()
	onboard(t, ts, serveDataset(t, 1, 46))
	trainModelOn(t, ts, "served", "Postgres")

	// A multi-query batch drives pglike's parallel fan-out; the worker
	// panic must be funneled back to the fence, not crash the process.
	if err := resilience.SetFailpoint("ce.pglike.estimate", "panic"); err != nil {
		t.Fatal(err)
	}
	q := map[string]any{"tables": []int{0}}
	resp, data := postJSON(t, ts, "/estimate", map[string]any{
		"dataset": "served", "model": "Postgres",
		"queries": []any{q, q, q, q, q, q, q, q},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("panicking batch returned %d: %s", resp.StatusCode, data)
	}
	// Still alive.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/healthz returned %d after batch panic", resp2.StatusCode)
	}
}

func TestServeHeavyClassSheds(t *testing.T) {
	defer resilience.ClearFailpoints()
	adv, _ := testAdvisor(t, 8)
	srv := newServerOpts(adv, nil, serveOptions{
		Admission: resilience.AdmissionConfig{HeavySlots: 1},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if err := resilience.SetFailpoint("serve.onboard", "sleep(400ms)"); err != nil {
		t.Fatal(err)
	}
	d := serveDataset(t, 1, 47)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, ts, "/datasets", datasetBody(d))
	}()
	deadline := time.Now().Add(5 * time.Second)
	for resilience.FailpointHits("serve.onboard") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first onboard never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Second heavy request sheds immediately (no queue) with Retry-After.
	resp, data := postJSON(t, ts, "/datasets", datasetBody(d))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("onboard with saturated heavy class returned %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response carries no Retry-After header")
	}

	// Cheap snapshot reads are a disjoint class: still served.
	resp, data = postJSON(t, ts, "/drift", graphBody(mustGraph(t, d)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/drift during heavy saturation returned %d: %s", resp.StatusCode, data)
	}
	wg.Wait()
}

// TestServeCheapClassSheds is TestServeHeavyClassSheds for the cheap
// class: with its one slot held, single-query and batched /estimate both
// wait out the estimate deadline and answer 503 + Retry-After, while the
// heavy class keeps onboarding. Once the slot is released, both forms
// answer again.
func TestServeCheapClassSheds(t *testing.T) {
	srv, ts := serveWithOpts(t, nil, serveOptions{
		Admission:        resilience.AdmissionConfig{CheapSlots: 1},
		EstimateDeadline: 150 * time.Millisecond,
	})
	d := serveDataset(t, 1, 48)
	d.Name = "tenantA"
	onboardAndTrain(t, ts, d, "Postgres")
	queries := rangeQueryBodies(d, 64)
	bodies := map[string]map[string]any{
		"single-query": {"dataset": d.Name, "query": queries[0]},
		"64-query":     {"dataset": d.Name, "queries": queries},
	}

	release, err := srv.adm.AdmitCheap(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for form, body := range bodies {
		resp, data := postJSON(t, ts, "/estimate", body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s /estimate with a saturated cheap class returned %d: %s", form, resp.StatusCode, data)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s shed response carries no Retry-After header", form)
		}
	}
	// Onboarding is the disjoint heavy class: still served.
	other := serveDataset(t, 1, 49)
	other.Name = "tenantB"
	if resp, data := postJSON(t, ts, "/datasets", datasetBody(other)); resp.StatusCode != http.StatusOK {
		t.Fatalf("/datasets during cheap saturation returned %d: %s", resp.StatusCode, data)
	}

	release()
	for form, body := range bodies {
		if resp, data := postJSON(t, ts, "/estimate", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s /estimate after release returned %d: %s", form, resp.StatusCode, data)
		}
	}
}

func TestServeModelsStillGETOnly(t *testing.T) {
	// The middleware stack must not change method handling.
	adv, _ := testAdvisor(t, 8)
	ts := httptest.NewServer(newServer(adv, nil))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/models returned %d", resp.StatusCode)
	}
	var mr modelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Models) == 0 {
		t.Fatal("registry empty through middleware stack")
	}
}
