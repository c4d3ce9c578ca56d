package main

// Tests for where /train finds a tenant's rows: resident until the
// generation's first /train publishes over a durable manifest record,
// read back from that record afterwards, and never taken from another
// generation's or another tenant's record.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/ce"
	"repro/internal/dataset"
)

// manifestServer serves over a fresh artifact store and tenant manifest,
// returning the manifest directory too.
func manifestServer(t *testing.T) (*server, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	store, err := ce.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "tenants.manifest")
	s, ts := serveWithOpts(t, store, serveOptions{ManifestPath: manifest})
	return s, ts, manifest
}

// trainStatus posts a small /train of model on ds.
func trainStatus(t *testing.T, ts *httptest.Server, ds, model string) (int, []byte) {
	t.Helper()
	resp, data := postJSON(t, ts, "/train", map[string]any{
		"dataset": ds, "model": model, "queries": 30, "sample_rows": 80,
	})
	return resp.StatusCode, data
}

// mirrored returns a copy of d with the same schema and other data: its
// first table's last column (neither key nor FK source in serveDataset's
// datasets) reflected within its range.
func mirrored(d *dataset.Dataset) *dataset.Dataset {
	nd := &dataset.Dataset{Name: d.Name, FKs: d.FKs}
	for ti, t := range d.Tables {
		nt := &dataset.Table{Name: t.Name, PKCol: t.PKCol}
		for ci, c := range t.Cols {
			data := c.Data
			if ti == 0 && ci == len(t.Cols)-1 {
				lo, hi := c.MinMax()
				data = make([]int64, len(c.Data))
				for i, v := range c.Data {
					data[i] = lo + hi - v
				}
			}
			nt.Cols = append(nt.Cols, dataset.NewColumn(c.Name, data))
		}
		nd.Tables = append(nd.Tables, nt)
	}
	return nd
}

// referenceEstimates trains model on d in a server of its own and returns
// its estimates of queries.
func referenceEstimates(t *testing.T, d *dataset.Dataset, model string, queries []map[string]any) []float64 {
	t.Helper()
	_, ts := serveWithOpts(t, nil, serveOptions{})
	onboardAndTrain(t, ts, d, model)
	return batchEstimates(t, ts, d.Name, queries)
}

// TestServeTrainRecordFaults: once a tenant's rows are released, a
// record that is torn, quarantined, deleted, another tenant's or another
// generation's fails /train with a clear 500, and the trained model
// keeps serving.
func TestServeTrainRecordFaults(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(t *testing.T, m *tenantManifest, record string)
		want  string
	}{
		{"torn", func(t *testing.T, _ *tenantManifest, record string) {
			raw, err := os.ReadFile(record)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(record, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}, "corrupt envelope"},
		{"flipped", func(t *testing.T, _ *tenantManifest, record string) {
			raw, err := os.ReadFile(record)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-3] ^= 0x10
			if err := os.WriteFile(record, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "corrupt envelope"},
		{"quarantined", func(t *testing.T, _ *tenantManifest, record string) {
			if err := os.Rename(record, record+quarantineExt); err != nil {
				t.Fatal(err)
			}
		}, "no such file"},
		{"deleted", func(t *testing.T, _ *tenantManifest, record string) {
			if err := os.Remove(record); err != nil {
				t.Fatal(err)
			}
		}, "no such file"},
		{"other tenant", func(t *testing.T, m *tenantManifest, record string) {
			var buf bytes.Buffer
			if err := encodeTenantRecord(&buf, "other", []byte("{}")); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(record, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}, `names \"other\"`},
		{"other generation", func(t *testing.T, m *tenantManifest, record string) {
			other := mirrored(serveDataset(t, 1, 71))
			body, err := json.Marshal(datasetBody(other))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.put(other.Name, body); err != nil {
				t.Fatal(err)
			}
		}, "another generation's payload"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts, manifest := manifestServer(t)
			d := serveDataset(t, 1, 71)
			onboardAndTrain(t, ts, d, "Postgres")
			if s.fleet.tenant(d.Name).rows != nil {
				t.Fatal("a trained tenant over a durable record still holds its rows")
			}
			queries := rangeQueryBodies(d, 4)
			before := batchEstimates(t, ts, d.Name, queries)
			tc.fault(t, s.manifest, filepath.Join(manifest, ce.EscapeName(d.Name)))
			status, data := trainStatus(t, ts, d.Name, "LW-XGB")
			if status != http.StatusInternalServerError ||
				!bytes.Contains(data, []byte("reading its rows back from the tenant manifest")) ||
				!bytes.Contains(data, []byte(tc.want)) {
				t.Fatalf("/train over a %s record returned %d %s, want 500 naming %q", tc.name, status, data, tc.want)
			}
			if after := batchEstimates(t, ts, d.Name, queries); !slices.Equal(after, before) {
				t.Fatalf("estimates after the failed /train %v, want %v", after, before)
			}
		})
	}
}

// TestServeReonboardBetweenTrains: a re-onboarding with the same schema
// between two /trains brings its rows back resident, and both the /train
// that uses them and the next, which reads the new record back, train on
// the new data.
func TestServeReonboardBetweenTrains(t *testing.T) {
	s, ts, _ := manifestServer(t)
	d := serveDataset(t, 1, 83)
	onboardAndTrain(t, ts, d, "LW-XGB")
	nd := mirrored(d)
	queries := rangeQueryBodies(d, 6)
	old := batchEstimates(t, ts, d.Name, queries)
	want := referenceEstimates(t, nd, "LW-XGB", queries)
	if slices.Equal(old, want) {
		t.Fatal("the mirrored data trains the same model; the test cannot tell them apart")
	}
	onboard(t, ts, nd)
	if s.fleet.tenant(d.Name).rows == nil {
		t.Fatal("a re-onboarded tenant holds no rows for its first /train")
	}
	for i := 0; i < 2; i++ {
		if status, data := trainStatus(t, ts, d.Name, "LW-XGB"); status != http.StatusOK {
			t.Fatalf("/train %d after re-onboarding returned %d: %s", i, status, data)
		}
		if s.fleet.tenant(d.Name).rows != nil {
			t.Fatalf("after /train %d the tenant still holds its rows", i)
		}
		if got := batchEstimates(t, ts, d.Name, queries); !slices.Equal(got, want) {
			t.Fatalf("/train %d after re-onboarding estimates %v, want the new data's %v", i, got, want)
		}
	}
}

// TestServeOnboardReusesBodyBuffer: a /datasets body is read into the
// buffer the previous onboarding kept, and neither tenant's rows nor its
// manifest record depend on the buffer afterwards: each trains, first
// from its resident rows and then from its record, to the model a server
// of its own trains.
func TestServeOnboardReusesBodyBuffer(t *testing.T) {
	s, ts, _ := manifestServer(t)
	a := serveDataset(t, 3, 101)
	a.Name = "a"
	b := serveDataset(t, 1, 102)
	b.Name = "b"
	onboard(t, ts, a)
	if len(s.bodies.buf[:1]) == 0 {
		t.Fatal("onboarding kept no read buffer")
	}
	kept := &s.bodies.buf[:1][0]
	onboard(t, ts, b)
	if &s.bodies.buf[:1][0] != kept {
		t.Fatal("the second onboarding did not read into the kept buffer")
	}
	for _, d := range []*dataset.Dataset{a, b} {
		queries := rangeQueryBodies(d, 4)
		want := referenceEstimates(t, d, "LW-XGB", queries)
		for i := 0; i < 2; i++ {
			if status, data := trainStatus(t, ts, d.Name, "LW-XGB"); status != http.StatusOK {
				t.Fatalf("/train %d of %s returned %d: %s", i, d.Name, status, data)
			}
			if got := batchEstimates(t, ts, d.Name, queries); !slices.Equal(got, want) {
				t.Fatalf("/train %d of %s estimates %v, want %v", i, d.Name, got, want)
			}
		}
	}
}

// TestServeReplicaAndRecoveredTenantsHoldNoRows: a replica's fan-in never
// trains, and a recovered tenant's record is durable, so neither keeps
// rows; the recovered primary still trains, from its record.
func TestServeReplicaAndRecoveredTenantsHoldNoRows(t *testing.T) {
	adv, _ := testAdvisor(t, 10)
	sh0, err := newSharder(0, 3, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	key := keyWithReplicas(t, sh0, 1, 2)
	d := serveDataset(t, 1, 91)
	d.Name = key
	for i, wantRows := range []bool{false, true, false} {
		sh, err := newSharder(i, 3, 2, "")
		if err != nil {
			t.Fatal(err)
		}
		s := newServerOpts(adv, nil, serveOptions{Shard: sh})
		ts := httptest.NewServer(s)
		resp, data := postJSONHeaders(t, ts, "/datasets", datasetBody(d), map[string]string{headerReplicate: "1"})
		ts.Close()
		if i == 0 {
			if resp.StatusCode != http.StatusMisdirectedRequest {
				t.Fatalf("non-member accepted the fan-in: %d %s", resp.StatusCode, data)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d onboarding: %d %s", i, resp.StatusCode, data)
		}
		if got := s.fleet.tenant(key).rows != nil; got != wantRows {
			t.Fatalf("shard %d holds rows: %v, want %v", i, got, wantRows)
		}
	}

	dir := t.TempDir()
	manifest := filepath.Join(dir, "tenants.manifest")
	store, err := ce.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := serveWithOpts(t, store, serveOptions{ManifestPath: manifest})
	d = serveDataset(t, 1, 92)
	onboardAndTrain(t, ts1, d, "LW-XGB")
	queries := rangeQueryBodies(d, 4)
	want := batchEstimates(t, ts1, d.Name, queries)
	ts1.Close()
	s2, ts2 := serveWithOpts(t, store, serveOptions{ManifestPath: manifest})
	if tn := s2.fleet.tenant(d.Name); tn == nil || tn.rows != nil || !tn.durable {
		t.Fatalf("recovered tenant %+v, want one with no rows over a durable record", tn)
	}
	if status, data := trainStatus(t, ts2, d.Name, "LW-XGB"); status != http.StatusOK {
		t.Fatalf("/train of a recovered tenant returned %d: %s", status, data)
	}
	if got := batchEstimates(t, ts2, d.Name, queries); !slices.Equal(got, want) {
		t.Fatalf("recovered tenant retrained to %v, want %v", got, want)
	}
}

// TestServeNoManifestKeepsRows: without a manifest the rows are the only
// copy, so a trained tenant keeps them and retrains from them.
func TestServeNoManifestKeepsRows(t *testing.T) {
	store, err := ce.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := serveWithOpts(t, store, serveOptions{})
	d := serveDataset(t, 1, 95)
	for i := 0; i < 2; i++ {
		if i == 0 {
			onboard(t, ts, d)
		}
		if status, data := trainStatus(t, ts, d.Name, "LW-XGB"); status != http.StatusOK {
			t.Fatalf("/train %d returned %d: %s", i, status, data)
		}
		if tn := s.fleet.tenant(d.Name); tn.rows == nil || tn.durable {
			t.Fatalf("after /train %d: rows %v, durable %v; want rows and no record", i, tn.rows != nil, tn.durable)
		}
	}
}

// TestServeRowSourceConcurrent runs two /train loops, a re-onboarding
// loop and an /estimate loop on one tenant. A /train may conflict with a
// re-onboarding (409) but never fails otherwise, an /estimate answers or
// asks for a retry, and once the loops end a /train trains on the last
// onboarded data.
func TestServeRowSourceConcurrent(t *testing.T) {
	_, ts, _ := manifestServer(t)
	d := serveDataset(t, 1, 97)
	gens := []*dataset.Dataset{d, mirrored(d)}
	onboardAndTrain(t, ts, d, "Postgres")
	queries := rangeQueryBodies(d, 4)

	var wg sync.WaitGroup
	run := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if err := fn(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for _, model := range []string{"LW-XGB", "Postgres"} {
		run(func(int) error {
			status, data, err := tryPostJSON(ts, "/train", map[string]any{
				"dataset": d.Name, "model": model, "queries": 30, "sample_rows": 80,
			})
			if err == nil && status != http.StatusOK && status != http.StatusConflict {
				err = fmt.Errorf("/train %s returned %d: %s", model, status, data)
			}
			return err
		})
	}
	run(func(i int) error {
		status, data, err := tryPostJSON(ts, "/datasets", datasetBody(gens[(i+1)%2]))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("re-onboarding returned %d: %s", status, data)
		}
		return err
	})
	run(func(int) error {
		status, data, err := tryPostJSON(ts, "/estimate", map[string]any{"dataset": d.Name, "queries": queries})
		switch {
		case err != nil, status == http.StatusOK, status == http.StatusConflict:
		case status == http.StatusServiceUnavailable && bytes.Contains(data, []byte("mid-request")):
		default:
			err = fmt.Errorf("/estimate returned %d: %s", status, data)
		}
		return err
	})
	wg.Wait()
	if t.Failed() {
		return
	}
	// The re-onboarding loop ended on gens[0]; train until a /train lands
	// after it and check the model against that data.
	if status, data := trainStatus(t, ts, d.Name, "LW-XGB"); status != http.StatusOK {
		t.Fatalf("final /train returned %d: %s", status, data)
	}
	want := referenceEstimates(t, gens[0], "LW-XGB", queries)
	resp, data := postJSON(t, ts, "/estimate", map[string]any{"dataset": d.Name, "model": "LW-XGB", "queries": queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final /estimate returned %d: %s", resp.StatusCode, data)
	}
	var er estimateResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(er.Estimates, want) {
		t.Fatalf("final model estimates %v, want the last onboarded data's %v", er.Estimates, want)
	}
}
