package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/feature"
	"repro/internal/gnn"
)

// testAdvisor trains a small advisor on a synthetic corpus with a clean
// learnable structure (single-table datasets favor model 0, multi-table
// model 1, model 2 always wins efficiency).
func testAdvisor(t testing.TB, n int) (*core.Advisor, []*core.Sample) {
	t.Helper()
	featCfg := feature.DefaultConfig()
	rng := rand.New(rand.NewSource(19))
	var samples []*core.Sample
	for i := 0; i < n; i++ {
		p := datagen.DefaultParams(rng.Int63())
		p.MinRows, p.MaxRows = 60, 120
		p.Tables = 1 + rng.Intn(3)
		d, err := datagen.Generate("t", p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := feature.Extract(d, featCfg)
		if err != nil {
			t.Fatal(err)
		}
		noise := func() float64 { return rng.Float64() * 0.05 }
		var sa []float64
		if d.NumTables() == 1 {
			sa = []float64{1 - noise(), 0.3 + noise(), 0.1 + noise()}
		} else {
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
		t.Fatal(err)
	}
	return adv, samples
}

func postJSON(t testing.TB, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func graphBody(g *feature.Graph) map[string]any {
	return map[string]any{"name": g.Name, "v": g.V, "e": g.E}
}

func TestServeRecommend(t *testing.T) {
	adv, samples := testAdvisor(t, 16)
	ts := httptest.NewServer(newServer(adv, nil))
	defer ts.Close()

	body := graphBody(samples[0].Graph)
	body["wa"] = 0.9
	resp, data := postJSON(t, ts, "/recommend", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/recommend returned %d: %s", resp.StatusCode, data)
	}
	var rec recommendResponse
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Model < 0 || rec.Model >= 3 {
		t.Fatalf("model %d out of range", rec.Model)
	}
	if len(rec.Scores) != 3 || len(rec.Neighbors) != 2 || rec.K != 2 {
		t.Fatalf("unexpected response %+v", rec)
	}
	for _, nb := range rec.Neighbors {
		if nb.Name == "" {
			t.Fatalf("neighbor %d has no name", nb.Index)
		}
	}

	// Explicit k is honored.
	body["k"] = 5
	_, data = postJSON(t, ts, "/recommend", body)
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Neighbors) != 5 || rec.K != 5 {
		t.Fatalf("k=5 returned %d neighbors", len(rec.Neighbors))
	}
}

func TestServeDrift(t *testing.T) {
	adv, samples := testAdvisor(t, 16)
	ts := httptest.NewServer(newServer(adv, nil))
	defer ts.Close()

	resp, data := postJSON(t, ts, "/drift", graphBody(samples[0].Graph))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/drift returned %d: %s", resp.StatusCode, data)
	}
	var dr driftResponse
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Drift {
		t.Fatal("training graph flagged as drift")
	}
	if dr.Threshold <= 0 || dr.Distance < 0 {
		t.Fatalf("bad drift response %+v", dr)
	}

	far := samples[0].Graph.Clone()
	for i := range far.V {
		for f := range far.V[i] {
			far.V[i][f] = 50
		}
	}
	_, data = postJSON(t, ts, "/drift", graphBody(far))
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatal(err)
	}
	if !dr.Drift {
		t.Fatal("far-away graph not flagged as drift")
	}
}

func TestServeAdapt(t *testing.T) {
	adv, samples := testAdvisor(t, 12)
	ts := httptest.NewServer(newServer(adv, nil))
	defer ts.Close()

	body := graphBody(samples[0].Graph)
	body["name"] = "newcomer"
	body["sa"] = []float64{0.2, 0.3, 0.9}
	body["se"] = []float64{0.5, 0.5, 0.5}
	body["epochs"] = 1
	resp, data := postJSON(t, ts, "/adapt", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/adapt returned %d: %s", resp.StatusCode, data)
	}
	var ar adaptResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.RCSSize != 13 {
		t.Fatalf("RCS size %d after adapt, want 13", ar.RCSSize)
	}

	// The adapted sample is now retrievable by name as its own nearest
	// neighbor.
	rb := graphBody(samples[0].Graph)
	rb["wa"] = 0.9
	rb["k"] = 1
	_, data = postJSON(t, ts, "/recommend", rb)
	var rec recommendResponse
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Neighbors) != 1 {
		t.Fatalf("expected 1 neighbor, got %v", rec.Neighbors)
	}
}

// TestServeAdaptEpochsCap: /adapt's DML pass cannot be cancelled, so an
// epochs count past the full-training budget answers 400 and leaves the
// advisor's RCS as it was.
func TestServeAdaptEpochsCap(t *testing.T) {
	adv, samples := testAdvisor(t, 12)
	ts := httptest.NewServer(newServer(adv, nil))
	defer ts.Close()

	body := graphBody(samples[0].Graph)
	body["sa"] = []float64{0.2, 0.3, 0.9}
	body["se"] = []float64{0.5, 0.5, 0.5}
	body["epochs"] = maxAdaptEpochs + 1
	if resp, data := postJSON(t, ts, "/adapt", body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/adapt with epochs %d: %d %s, want 400", maxAdaptEpochs+1, resp.StatusCode, data)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["rcs_size"] != float64(12) {
		t.Fatalf("rcs_size %v after a refused /adapt, want 12", h["rcs_size"])
	}
}

func TestServeHealthz(t *testing.T) {
	adv, _ := testAdvisor(t, 10)
	ts := httptest.NewServer(newServer(adv, nil))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz returned %d", resp.StatusCode)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["ok"] != true || h["rcs_size"] != float64(10) {
		t.Fatalf("bad health payload %v", h)
	}
}

func TestServeMalformedRequests(t *testing.T) {
	adv, samples := testAdvisor(t, 10)
	ts := httptest.NewServer(newServer(adv, nil))
	defer ts.Close()
	g := samples[0].Graph

	// Broken JSON.
	resp, err := http.Post(ts.URL+"/recommend", "application/json",
		bytes.NewReader([]byte(`{"v": [[1,2`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken JSON returned %d", resp.StatusCode)
	}

	cases := []struct {
		path string
		body map[string]any
	}{
		{"/recommend", map[string]any{"wa": 0.9}},                               // no graph
		{"/recommend", map[string]any{"v": g.V, "e": g.E[:1], "wa": 0.9}},       // ragged adjacency
		{"/recommend", map[string]any{"v": [][]float64{{1}, {1, 2}}, "e": g.E}}, // ragged vertices
		{"/recommend", func() map[string]any { b := graphBody(g); b["wa"] = 1.5; return b }()},
		{"/recommend", func() map[string]any { b := graphBody(g); b["k"] = -1; return b }()},
		{"/recommend", func() map[string]any { b := graphBody(g); b["bogus"] = 1; return b }()}, // unknown field
		{"/drift", map[string]any{"v": [][]float64{}, "e": [][]float64{}}},
		// Wrong feature dimension: well-shaped but unembeddable — must be
		// a 400, not a panic in the encoder kernels.
		{"/recommend", map[string]any{"v": [][]float64{{1, 2, 3}}, "e": [][]float64{{0}}, "wa": 0.9}},
		{"/drift", map[string]any{"v": [][]float64{{1, 2, 3}}, "e": [][]float64{{0}}}},
		{"/adapt", func() map[string]any { // wrong label dimension
			b := graphBody(g)
			b["sa"] = []float64{1}
			b["se"] = []float64{1}
			return b
		}()},
		{"/adapt", func() map[string]any {
			b := graphBody(g)
			b["sa"] = []float64{1, 1, 1}
			b["se"] = []float64{1, 1, 1}
			b["epochs"] = -3
			return b
		}()},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts, tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with %v returned %d (%s), want 400", tc.path, tc.body, resp.StatusCode, data)
		}
		var e map[string]string
		if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
			t.Fatalf("%s error body %q lacks an error message", tc.path, data)
		}
	}

	// Oversized body: rejected with 413 before the decoder balloons.
	huge := bytes.Repeat([]byte(" "), maxBodyBytes+1)
	copy(huge, `{"v": [[`)
	resp, err = http.Post(ts.URL+"/recommend", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body returned %d, want 413", resp.StatusCode)
	}

	// Wrong methods.
	for _, path := range []string{"/recommend", "/drift", "/adapt"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s returned %d, want 405", path, resp.StatusCode)
		}
	}
	resp, err = http.Post(ts.URL+"/healthz", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz returned %d, want 405", resp.StatusCode)
	}
}

// TestServeConcurrentTraffic mixes reads and an /adapt mutation; with
// -race this exercises the snapshot swap under real HTTP concurrency.
func TestServeConcurrentTraffic(t *testing.T) {
	adv, samples := testAdvisor(t, 12)
	ts := httptest.NewServer(newServer(adv, nil))
	defer ts.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := samples[w].Graph
			for i := 0; i < 25; i++ {
				body := graphBody(g)
				body["wa"] = 0.9
				payload, err := json.Marshal(body)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/recommend", "application/json", bytes.NewReader(payload))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/recommend returned %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	body := graphBody(samples[5].Graph)
	body["name"] = "mid-flight"
	body["sa"] = []float64{0.1, 0.9, 0.2}
	body["se"] = []float64{0.4, 0.4, 0.4}
	body["epochs"] = 1
	resp, data := postJSON(t, ts, "/adapt", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/adapt returned %d: %s", resp.StatusCode, data)
	}
	wg.Wait()
}

// TestServeOversizedBodyAfterValue: a body over the cap answers 413 on
// every decoding endpoint, even when its first JSON value ends well
// before the cap (that value alone would answer 404 here).
func TestServeOversizedBodyAfterValue(t *testing.T) {
	srv, _ := serveWithOpts(t, nil, serveOptions{})
	body := bytes.Repeat([]byte(" "), maxBodyBytes+1)
	for path, value := range map[string]string{
		"/estimate":  `{"dataset":"absent","query":{"tables":[0]}}`,
		"/recommend": `{"dataset":"absent"}`,
		"/train":     `{"dataset":"absent"}`,
	} {
		copy(body, bytes.Repeat([]byte(" "), 64)) // clear the last value
		copy(body, value)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a complete value before the cap: %d %s, want 413", path, w.Code, w.Body)
		}
	}
}

// TestServeDeclaredLengthCommitsNoMemory: the endpoints that read their
// body before any admission grow the read buffer only as bytes arrive,
// so a request that declares a body at the cap but sends almost none of
// it cannot make the server allocate the declared length.
func TestServeDeclaredLengthCommitsNoMemory(t *testing.T) {
	srv, _ := serveWithOpts(t, nil, serveOptions{})
	for _, path := range []string{"/estimate", "/recommend", "/drift", "/adapt", "/train"} {
		r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{}`))
		r.ContentLength = maxBodyBytes
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.ServeHTTP(httptest.NewRecorder(), r)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > maxBodyBytes/16 {
			t.Errorf("%s: a 2-byte body declaring %d bytes allocated %d bytes", path, maxBodyBytes, d)
		}
	}
	r := httptest.NewRequest(http.MethodPost, "/estimate", strings.NewReader(`{}`))
	r.ContentLength = maxBodyBytes
	if body, err := readBody(httptest.NewRecorder(), r, nil); err != nil || cap(body) > 4096 {
		t.Errorf("readBody without a buffer: capacity %d, err %v", cap(body), err)
	}
}
