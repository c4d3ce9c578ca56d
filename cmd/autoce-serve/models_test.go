package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/ce"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/testbed"
)

// datasetBody converts an in-memory dataset to the /datasets payload.
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

func serveDataset(t testing.TB, tables int, seed int64) *dataset.Dataset {
	t.Helper()
	p := datagen.Params{
		Tables:  tables,
		MinCols: 2, MaxCols: 3,
		MinRows: 80, MaxRows: 140,
		Domain: 25,
		SkewLo: 0, SkewHi: 0.8,
		CorrLo: 0, CorrHi: 0.5,
		JoinLo: 0.5, JoinHi: 1,
		Seed: seed,
	}
	d, err := datagen.Generate("served", p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestOnboardReportsValidatedEncoderDim is the regression for the
// snapshotonce finding autoce-vet raised in handleDatasets: the handler
// loaded the advisor snapshot twice — once to validate the dataset's
// feature dimension, once to report VertexDim — so a republish between
// the two loads could validate against one encoder and report another's
// dimension. The handler now takes a single snapshot, and the reported
// VertexDim must be the dimension onboarding was validated against.
// (Reintroducing the second load also fails the analyzer driver test in
// internal/analysis.)
func TestOnboardReportsValidatedEncoderDim(t *testing.T) {
	adv, _ := testAdvisor(t, 14)
	ts := httptest.NewServer(newServer(adv, nil))
	defer ts.Close()
	d := serveDataset(t, 2, 33)

	resp, data := postJSON(t, ts, "/datasets", datasetBody(d))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/datasets returned %d: %s", resp.StatusCode, data)
	}
	var dr datasetResponse
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatal(err)
	}
	if want := adv.Serving().InDim(); dr.VertexDim != want {
		t.Fatalf("onboard reported VertexDim %d, validated against %d", dr.VertexDim, want)
	}
}

// TestServeLifecycleEndToEnd drives the full loop the redesign closes:
// onboard a dataset, recommend by dataset name, train the recommended
// model, estimate single and batch, and verify artifact persistence plus
// reload on re-onboarding.
func TestServeLifecycleEndToEnd(t *testing.T) {
	adv, _ := testAdvisor(t, 14)
	store, err := ce.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(adv, store))
	defer ts.Close()
	d := serveDataset(t, 2, 31)

	// Onboard.
	resp, data := postJSON(t, ts, "/datasets", datasetBody(d))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/datasets returned %d: %s", resp.StatusCode, data)
	}
	var dr datasetResponse
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Dataset != d.Name || dr.Tables != d.NumTables() || dr.Rows != d.TotalRows() {
		t.Fatalf("onboard response %+v mismatches dataset", dr)
	}

	// Recommend by dataset name.
	resp, data = postJSON(t, ts, "/recommend", map[string]any{"dataset": d.Name, "wa": 0.9})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/recommend by dataset returned %d: %s", resp.StatusCode, data)
	}
	var rec recommendResponse
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ModelName == "" {
		t.Fatalf("recommendation has no model name: %+v", rec)
	}

	// Train the recommended model (explicitly, exercising the model field).
	resp, data = postJSON(t, ts, "/train", map[string]any{
		"dataset": d.Name, "model": rec.ModelName, "queries": 60, "sample_rows": 200,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/train returned %d: %s", resp.StatusCode, data)
	}
	var tr trainResponse
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Model != rec.ModelName || tr.Recommended {
		t.Fatalf("train response %+v", tr)
	}
	if tr.Artifact == "" {
		t.Fatal("train with a store did not persist an artifact")
	}

	// Also train through the recommendation path (empty model).
	resp, data = postJSON(t, ts, "/train", map[string]any{
		"dataset": d.Name, "wa": 0.9, "queries": 60, "sample_rows": 200,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/train (recommended) returned %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Recommended || tr.Model != rec.ModelName {
		t.Fatalf("recommended train response %+v, want model %s", tr, rec.ModelName)
	}

	// Estimate: single query.
	lo, hi := d.Tables[0].Col(0).MinMax()
	single := map[string]any{
		"dataset": d.Name,
		"query": map[string]any{
			"tables": []int{0},
			"preds":  []map[string]any{{"table": 0, "col": 0, "lo": lo, "hi": hi}},
		},
	}
	resp, data = postJSON(t, ts, "/estimate", single)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/estimate returned %d: %s", resp.StatusCode, data)
	}
	var er estimateResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.Model != rec.ModelName || len(er.Estimates) != 1 {
		t.Fatalf("estimate response %+v", er)
	}
	if er.Estimate < 1 || math.IsNaN(er.Estimate) || math.IsInf(er.Estimate, 0) {
		t.Fatalf("estimate %g not a finite cardinality >= 1", er.Estimate)
	}

	// Estimate: batch form over every table.
	var batch []map[string]any
	for ti := range d.Tables {
		lo, hi := d.Tables[ti].Col(0).MinMax()
		batch = append(batch, map[string]any{
			"tables": []int{ti},
			"preds":  []map[string]any{{"table": ti, "col": 0, "lo": lo, "hi": (lo + hi) / 2}},
		})
	}
	resp, data = postJSON(t, ts, "/estimate", map[string]any{"dataset": d.Name, "queries": batch})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/estimate batch returned %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Estimates) != len(batch) {
		t.Fatalf("batch returned %d estimates for %d queries", len(er.Estimates), len(batch))
	}
	for i, est := range er.Estimates {
		if est < 1 || math.IsNaN(est) || math.IsInf(est, 0) {
			t.Fatalf("batch estimate %d = %g", i, est)
		}
	}

	// Re-onboarding reloads the persisted artifacts.
	resp, data = postJSON(t, ts, "/datasets", datasetBody(d))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-onboard returned %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.StoredModels) == 0 {
		t.Fatalf("re-onboard reloaded no stored models: %+v", dr)
	}
	resp, data = postJSON(t, ts, "/estimate", single)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/estimate after reload returned %d: %s", resp.StatusCode, data)
	}
}

func TestServeModelsListing(t *testing.T) {
	adv, _ := testAdvisor(t, 10)
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
	if len(mr.Models) != testbed.NumModels {
		t.Fatalf("/models lists %d models, registry has %d", len(mr.Models), testbed.NumModels)
	}
	candidates := 0
	for i, mi := range mr.Models {
		if mi.Name != testbed.ModelNames[i] {
			t.Fatalf("/models order %v diverges from registry", mr.Models)
		}
		if mi.Kind == "" {
			t.Fatalf("model %s has empty kind", mi.Name)
		}
		if mi.Candidate {
			candidates++
		}
	}
	if candidates != testbed.NumCandidates {
		t.Fatalf("/models lists %d candidates, want %d", candidates, testbed.NumCandidates)
	}
	if len(mr.Trained) != 0 {
		t.Fatalf("fresh server lists trained models: %+v", mr.Trained)
	}

	// POST is rejected.
	pr, err := http.Post(ts.URL+"/models", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /models returned %d, want 405", pr.StatusCode)
	}
}

// TestServeTrainEstimateValidation covers the strict-validation surface of
// the new endpoints, including malformed payloads.
func TestServeTrainEstimateValidation(t *testing.T) {
	adv, _ := testAdvisor(t, 10)
	ts := httptest.NewServer(newServer(adv, nil))
	defer ts.Close()
	d := serveDataset(t, 2, 77)
	if resp, data := postJSON(t, ts, "/datasets", datasetBody(d)); resp.StatusCode != http.StatusOK {
		t.Fatalf("onboard failed: %d %s", resp.StatusCode, data)
	}

	cases := []struct {
		path string
		body map[string]any
		want int
	}{
		// /datasets validation.
		{"/datasets", map[string]any{}, http.StatusBadRequest},                        // no name
		{"/datasets", map[string]any{"name": "x"}, http.StatusBadRequest},             // no tables
		{"/datasets", map[string]any{"name": "x", "bogus": 1}, http.StatusBadRequest}, // unknown field
		{"/datasets", map[string]any{"name": "x", "tables": []map[string]any{
			{"name": "t", "cols": []map[string]any{}}}}, http.StatusBadRequest}, // no columns
		{"/datasets", map[string]any{"name": "x", "tables": []map[string]any{
			{"name": "t", "cols": []map[string]any{{"name": "c", "data": []int64{1, 2}}}}},
			"fks": []map[string]any{{"from_table": 5, "from_col": 0, "to_table": 0, "to_col": 0}}},
			http.StatusBadRequest}, // FK out of range
		{"/datasets", map[string]any{"name": "x", "tables": []map[string]any{
			{"name": "t", "pk": 7, "cols": []map[string]any{{"name": "c", "data": []int64{1, 2}}}}}},
			http.StatusBadRequest}, // PK out of range
		{"/datasets", map[string]any{"name": "x", "tables": []map[string]any{
			{"name": "t", "cols": []map[string]any{
				{"name": "a", "data": []int64{1, 2}},
				{"name": "b", "data": []int64{1}}}}}}, http.StatusBadRequest}, // ragged columns
		// /train validation.
		{"/train", map[string]any{"dataset": "missing"}, http.StatusNotFound},
		{"/train", map[string]any{"dataset": d.Name, "model": "NoSuch"}, http.StatusBadRequest},
		{"/train", map[string]any{"dataset": d.Name, "model": "Ensemble"}, http.StatusBadRequest}, // composite
		{"/train", map[string]any{"dataset": d.Name, "queries": -1}, http.StatusBadRequest},
		{"/train", map[string]any{"dataset": d.Name, "queries": maxTrainQueries + 1}, http.StatusBadRequest},
		{"/train", map[string]any{"dataset": d.Name, "sample_rows": maxSampleRows + 1}, http.StatusBadRequest},
		{"/train", map[string]any{"dataset": d.Name, "wa": 1.5}, http.StatusBadRequest},
		{"/train", map[string]any{"dataset": d.Name, "bogus": true}, http.StatusBadRequest},
		// /estimate validation (no trained model yet -> 409).
		{"/estimate", map[string]any{"dataset": d.Name,
			"query": map[string]any{"tables": []int{0}}}, http.StatusConflict},
		{"/estimate", map[string]any{"dataset": "missing",
			"query": map[string]any{"tables": []int{0}}}, http.StatusNotFound},
		{"/estimate", map[string]any{"dataset": d.Name}, http.StatusBadRequest}, // neither query nor queries
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts, tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s with %v returned %d (%s), want %d", tc.path, tc.body, resp.StatusCode, data, tc.want)
		}
		var e map[string]any
		if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
			t.Fatalf("%s error body %q lacks an error message", tc.path, data)
		}
	}

	// Train a fast model, then exercise query-shape validation.
	if resp, data := postJSON(t, ts, "/train", map[string]any{
		"dataset": d.Name, "model": "Postgres", "queries": 40, "sample_rows": 100,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("train Postgres: %d %s", resp.StatusCode, data)
	}
	badQueries := []map[string]any{
		{"tables": []int{}},  // empty
		{"tables": []int{9}}, // unknown table
		{"tables": []int{0}, "preds": []map[string]any{{"table": 0, "col": 99, "lo": 1, "hi": 2}}}, // bad col
		{"tables": []int{0}, "joins": []map[string]any{
			{"left_table": 0, "left_col": 0, "right_table": 1, "right_col": 0}}}, // join to unlisted table
	}
	for _, q := range badQueries {
		resp, data := postJSON(t, ts, "/estimate", map[string]any{"dataset": d.Name, "query": q})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("/estimate with %v returned %d (%s), want 400", q, resp.StatusCode, data)
		}
	}
	// Estimating with an untrained (but registered) model name is a 404.
	resp, _ := postJSON(t, ts, "/estimate", map[string]any{
		"dataset": d.Name, "model": "MSCN", "query": map[string]any{"tables": []int{0}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("untrained model estimate returned %d, want 404", resp.StatusCode)
	}
	// Oversized batch.
	tooMany := make([]map[string]any, maxBatchQueries+1)
	for i := range tooMany {
		tooMany[i] = map[string]any{"tables": []int{0}}
	}
	resp, _ = postJSON(t, ts, "/estimate", map[string]any{"dataset": d.Name, "queries": tooMany})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch returned %d, want 400", resp.StatusCode)
	}
}

// TestServeEstimateTrainRace hammers /estimate batch traffic while /train
// republishes the model snapshot; with -race this exercises the atomic
// zooState swap and the per-model guard under real HTTP concurrency.
func TestServeEstimateTrainRace(t *testing.T) {
	adv, _ := testAdvisor(t, 10)
	ts := httptest.NewServer(newServer(adv, nil))
	defer ts.Close()
	d := serveDataset(t, 1, 99)
	if resp, data := postJSON(t, ts, "/datasets", datasetBody(d)); resp.StatusCode != http.StatusOK {
		t.Fatalf("onboard failed: %d %s", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, ts, "/train", map[string]any{
		"dataset": d.Name, "model": "Postgres", "queries": 30, "sample_rows": 80,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("initial train failed: %d %s", resp.StatusCode, data)
	}

	lo, hi := d.Tables[0].Col(0).MinMax()
	var queries []map[string]any
	for i := 0; i < 8; i++ {
		queries = append(queries, map[string]any{
			"tables": []int{0},
			"preds":  []map[string]any{{"table": 0, "col": 0, "lo": lo, "hi": lo + (hi-lo)*int64(i+1)/8}},
		})
	}
	body, err := json.Marshal(map[string]any{"dataset": d.Name, "queries": queries})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/estimate returned %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	// Republishing trains: LW-XGB is cheap and becomes the new active
	// model mid-traffic; in-flight estimates keep their snapshot.
	for i := 0; i < 3; i++ {
		resp, data := postJSON(t, ts, "/train", map[string]any{
			"dataset": d.Name, "model": "LW-XGB", "queries": 30, "sample_rows": 80, "seed": i,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("train republish %d failed: %d %s", i, resp.StatusCode, data)
		}
	}
	wg.Wait()
}

// TestServeReonboardSchemaMismatchSkipsArtifacts pins the reload guard:
// artifacts trained on a structurally different version of a dataset must
// not be served after the dataset is re-onboarded with a new schema.
func TestServeReonboardSchemaMismatchSkipsArtifacts(t *testing.T) {
	adv, _ := testAdvisor(t, 10)
	store, err := ce.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(adv, store))
	defer ts.Close()

	d := serveDataset(t, 1, 55)
	if resp, data := postJSON(t, ts, "/datasets", datasetBody(d)); resp.StatusCode != http.StatusOK {
		t.Fatalf("onboard failed: %d %s", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, ts, "/train", map[string]any{
		"dataset": d.Name, "model": "Postgres", "queries": 30, "sample_rows": 80,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("train failed: %d %s", resp.StatusCode, data)
	}

	// Re-onboard under the same name with a different shape (2 tables).
	d2 := serveDataset(t, 2, 56)
	d2.Name = d.Name
	resp, data := postJSON(t, ts, "/datasets", datasetBody(d2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-onboard failed: %d %s", resp.StatusCode, data)
	}
	var dr datasetResponse
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.StoredModels) != 0 {
		t.Fatalf("schema-mismatched artifacts reloaded: %v", dr.StoredModels)
	}
	// The stale model must not serve: no trained model for the new data.
	resp, _ = postJSON(t, ts, "/estimate", map[string]any{
		"dataset": d.Name, "query": map[string]any{"tables": []int{1}}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("estimate against stale model returned %d, want 409", resp.StatusCode)
	}

	// Re-onboarding the original shape brings the artifact back.
	resp, data = postJSON(t, ts, "/datasets", datasetBody(d))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore onboard failed: %d %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.StoredModels) != 1 || dr.StoredModels[0] != "Postgres" {
		t.Fatalf("matching artifact not reloaded: %v", dr.StoredModels)
	}
}

// TestServeTrainHonorsExplicitZeroWa pins the wa plumbing: an explicit
// wa=0 (pure efficiency weighting) must drive the recommendation /train
// acts on, not be silently rewritten to the default.
func TestServeTrainHonorsExplicitZeroWa(t *testing.T) {
	adv, _ := testAdvisor(t, 12)
	ts := httptest.NewServer(newServer(adv, nil))
	defer ts.Close()
	d := serveDataset(t, 1, 61)
	if resp, data := postJSON(t, ts, "/datasets", datasetBody(d)); resp.StatusCode != http.StatusOK {
		t.Fatalf("onboard failed: %d %s", resp.StatusCode, data)
	}

	_, data := postJSON(t, ts, "/recommend", map[string]any{"dataset": d.Name, "wa": 0})
	var rec recommendResponse
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts, "/train", map[string]any{
		"dataset": d.Name, "wa": 0, "queries": 40, "sample_rows": 100,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/train wa=0 returned %d: %s", resp.StatusCode, data)
	}
	var tr trainResponse
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Recommended || tr.Model != rec.ModelName {
		t.Fatalf("wa=0 trained %q, recommendation under wa=0 was %q (%+v)", tr.Model, rec.ModelName, tr)
	}
}

// TestServeTrainReleasesJoinIndex pins that a tenant holds no join index
// between requests. Only /train's staging reads it, so the handler drops
// it once staging returns: after a query-driven staging (workload
// labeling), a data-driven one (join sample and subset sizes), and one
// that ran out its deadline alike. These servers keep no manifest, so the
// rows stay resident; with one, the first /train that publishes releases
// the rows too, and the next /train reads them back from the record and
// trains the same model.
func TestServeTrainReleasesJoinIndex(t *testing.T) {
	adv, _ := testAdvisor(t, 8)
	d := serveDataset(t, 3, 47)
	for _, tc := range []struct {
		model    string
		deadline time.Duration
		status   int
	}{
		{"LW-XGB", 0, http.StatusOK},
		{"BayesCard", 0, http.StatusOK},
		{"BayesCard", time.Nanosecond, http.StatusServiceUnavailable},
	} {
		s := newServerOpts(adv, nil, serveOptions{TrainDeadline: tc.deadline})
		ts := httptest.NewServer(s)
		onboard(t, ts, d)
		tn := s.fleet.tenant(d.Name)
		ix := engine.IndexFor(tn.rows)
		resp, data := postJSON(t, ts, "/train", map[string]any{
			"dataset": d.Name, "model": tc.model, "queries": 40, "sample_rows": 100,
		})
		ts.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("/train %s (deadline %v) returned %d, want %d: %s", tc.model, tc.deadline, resp.StatusCode, tc.status, data)
		}
		if tc.status != http.StatusOK && !bytes.Contains(data, []byte("input staging")) {
			t.Fatalf("/train %s did not run out its deadline in staging: %s", tc.model, data)
		}
		if engine.IndexFor(tn.rows) == ix {
			t.Fatalf("/train %s (deadline %v) left the tenant's join index resident", tc.model, tc.deadline)
		}
		if s.fleet.tenant(d.Name).rows == nil {
			t.Fatalf("/train %s (deadline %v) released the rows of a tenant with no manifest", tc.model, tc.deadline)
		}
	}

	dir := t.TempDir()
	store, err := ce.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := serveWithOpts(t, store, serveOptions{ManifestPath: filepath.Join(dir, "tenants.manifest")})
	onboard(t, ts, d)
	if s.fleet.tenant(d.Name).rows == nil {
		t.Fatal("an untrained tenant holds no rows for its first /train")
	}
	queries := rangeQueryBodies(d, 6)
	var artifacts [2][]byte
	var estimates [2][]float64
	for i := range artifacts {
		resp, data := postJSON(t, ts, "/train", map[string]any{
			"dataset": d.Name, "model": "LW-XGB", "queries": 40, "sample_rows": 100,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/train %d returned %d: %s", i, resp.StatusCode, data)
		}
		var tr trainResponse
		if err := json.Unmarshal(data, &tr); err != nil {
			t.Fatal(err)
		}
		if artifacts[i], err = os.ReadFile(tr.Artifact); err != nil {
			t.Fatal(err)
		}
		if tn := s.fleet.tenant(d.Name); tn.rows != nil {
			t.Fatalf("after /train %d the tenant still holds its rows", i)
		}
		estimates[i] = batchEstimates(t, ts, d.Name, queries)
	}
	if !bytes.Equal(artifacts[0], artifacts[1]) {
		t.Fatal("the /train that read the rows back wrote another artifact")
	}
	if !slices.Equal(estimates[0], estimates[1]) {
		t.Fatalf("estimates after retraining from the record %v, want %v", estimates[1], estimates[0])
	}
}
