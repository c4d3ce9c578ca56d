package main

// Tests for fleet fault tolerance: read failover across the replica set,
// the non-mutating forward contract, JSON 502 when every option is
// exhausted (a lagging replica's 404 included), breaker readmission on
// live reads, tenant-manifest round-trips, and restart recovery.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/ce"
	"repro/internal/resilience"
)

// snapshot reads every record in the manifest directory, by name.
func (m *tenantManifest) snapshot() map[string][]byte {
	out := map[string][]byte{}
	m.load(func(name string, payload []byte) { out[name] = payload })
	return out
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.manifest")
	m, err := newTenantManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.put("a", []byte(`{"gen":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := m.put("b", []byte(`{"gen":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := m.put("a", []byte(`{"gen":2}`)); err != nil { // replace
		t.Fatal(err)
	}

	m2, err := newTenantManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	got := m2.snapshot()
	if len(got) != 2 || string(got["a"]) != `{"gen":2}` || string(got["b"]) != `{"gen":1}` {
		t.Fatalf("reloaded entries = %q", got)
	}

	// A flipped payload byte in one tenant's record is detected by the
	// CRC: that record alone is quarantined and the other still loads.
	rec := filepath.Join(path, "a")
	raw, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(rec, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m3, err := newTenantManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	got = map[string][]byte{}
	if err := m3.load(func(name string, payload []byte) { got[name] = payload }); err == nil {
		t.Fatal("corrupt record loaded without complaint")
	}
	if len(got) != 1 || string(got["b"]) != `{"gen":1}` {
		t.Fatalf("after corrupting a's record, loaded %q, want just b", got)
	}
	if _, err := os.Stat(rec + quarantineExt); err != nil {
		t.Fatalf("corrupt record not quarantined: %v", err)
	}
	// The quarantined tenant re-onboards normally.
	if err := m3.put("a", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	m4, err := newTenantManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := m4.snapshot(); len(got) != 2 || string(got["a"]) != `{}` || string(got["b"]) != `{"gen":1}` {
		t.Fatalf("post-quarantine manifest = %q, want a and b", got)
	}
}

// TestManifestReonboardWritesOneRecord pins the O(1)-per-onboarding
// property: re-onboarding tenant a leaves b's record byte-identical and
// unrewritten (same inode, same mtime).
func TestManifestReonboardWritesOneRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.manifest")
	m, err := newTenantManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if err := m.put(name, []byte(`{"gen":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	bPath := filepath.Join(path, "b")
	before, err := os.Stat(bPath)
	if err != nil {
		t.Fatal(err)
	}
	beforeRaw, err := os.ReadFile(bPath)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let a rewrite show up in the mtime
	if err := m.put("a", []byte(`{"gen":2}`)); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(bPath)
	if err != nil {
		t.Fatal(err)
	}
	afterRaw, err := os.ReadFile(bPath)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) || !bytes.Equal(beforeRaw, afterRaw) {
		t.Fatalf("re-onboarding a rewrote b's record (same file %v, mtime %v -> %v)",
			os.SameFile(before, after), before.ModTime(), after.ModTime())
	}
	if got := m.snapshot(); string(got["a"]) != `{"gen":2}` {
		t.Fatalf("a's record = %q, want gen 2", got["a"])
	}
}

// TestManifestConcurrentPuts: concurrent onboardings of distinct and
// shared tenants all land, each record whole.
func TestManifestConcurrentPuts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.manifest")
	m, err := newTenantManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				name := fmt.Sprintf("t%d", (g+i)%12)
				if err := m.put(name, []byte(`{"name":"`+name+`"}`)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	got := m.snapshot()
	if len(got) != 12 {
		t.Fatalf("%d records after concurrent puts, want 12", len(got))
	}
	for name, payload := range got {
		if string(payload) != `{"name":"`+name+`"}` {
			t.Fatalf("record %s = %q", name, payload)
		}
	}
}

func TestManifestSaveFailpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.manifest")
	m, err := newTenantManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := resilience.SetFailpoint("serve.manifest.save", "error"); err != nil {
		t.Fatal(err)
	}
	defer resilience.ClearFailpoints()
	payload := []byte(`{"gen":1}`)
	if err := m.put("a", payload); !errors.Is(err, resilience.ErrInjected) {
		t.Fatalf("put under failpoint: %v, want injected fault", err)
	}
	// The entry is kept in memory (serving continues; durability degrades)
	// and lands on disk with the next successful save, as it was put: the
	// caller may reuse its buffer.
	copy(payload, `{"gen":2}`)
	resilience.ClearFailpoints()
	if err := m.put("b", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	m2, err := newTenantManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.snapshot(); len(got) != 2 || string(got["a"]) != `{"gen":1}` {
		t.Fatalf("after failpoint round: %q, want a as put and b", got)
	}
}

// TestServeRestartRecovery is the crash-recovery contract: a server built
// over the same manifest and artifact store as a dead one resumes serving
// the dead one's tenants — bit-identical estimates — with zero client
// onboarding.
func TestServeRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "tenants.manifest")
	store1, err := ce.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := serveWithOpts(t, store1, serveOptions{ManifestPath: manifest})
	d := serveDataset(t, 1, 310)
	onboardAndTrain(t, ts1, d, "Postgres")
	q := rangeQueryBodies(d, 1)[0]
	var before estimateResponse
	if resp, data := postJSON(t, ts1, "/estimate", map[string]any{
		"dataset": d.Name, "query": q}); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-restart estimate: %d %s", resp.StatusCode, data)
	} else if err := json.Unmarshal(data, &before); err != nil {
		t.Fatal(err)
	}
	ts1.Close() // the "crash"

	store2, err := ce.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := serveWithOpts(t, store2, serveOptions{ManifestPath: manifest})
	// No /datasets, no /train: the manifest replay plus stored artifacts
	// must be enough.
	resp, data := postJSON(t, ts2, "/estimate", map[string]any{"dataset": d.Name, "query": q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart estimate: %d %s", resp.StatusCode, data)
	}
	var after estimateResponse
	if err := json.Unmarshal(data, &after); err != nil {
		t.Fatal(err)
	}
	if after.Estimate != before.Estimate || after.Model != before.Model {
		t.Fatalf("post-restart estimate %v (model %s) != pre-restart %v (model %s)",
			after.Estimate, after.Model, before.Estimate, before.Model)
	}
}

// TestServeRestartQuarantinesManifestFile: a file at the manifest path
// holds no records, so the server moves it to path+".corrupt" and starts
// with an empty record directory; a tenant onboarded afterwards is
// recovered on restart with bit-identical estimates.
func TestServeRestartQuarantinesManifestFile(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "tenants.manifest")
	junk := []byte("CETENv1\nnot a record directory")
	if err := os.WriteFile(manifest, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	store1, err := ce.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := serveWithOpts(t, store1, serveOptions{ManifestPath: manifest})
	if got, err := os.ReadFile(manifest + ".corrupt"); err != nil || !bytes.Equal(got, junk) {
		t.Fatalf("quarantined file = %q (%v), want %q", got, err, junk)
	}
	if fi, err := os.Stat(manifest); err != nil || !fi.IsDir() {
		t.Fatalf("manifest is not a record directory (%v)", err)
	}
	d := serveDataset(t, 1, 320)
	d.Name = "beta/γ"
	onboardAndTrain(t, ts1, d, "Postgres")
	q := rangeQueryBodies(d, 1)[0]
	var before estimateResponse
	if resp, data := postJSON(t, ts1, "/estimate", map[string]any{
		"dataset": d.Name, "query": q}); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-restart estimate: %d %s", resp.StatusCode, data)
	} else if err := json.Unmarshal(data, &before); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	store2, err := ce.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := serveWithOpts(t, store2, serveOptions{ManifestPath: manifest})
	resp, data := postJSON(t, ts2, "/estimate", map[string]any{"dataset": d.Name, "query": q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart estimate: %d %s", resp.StatusCode, data)
	}
	var after estimateResponse
	if err := json.Unmarshal(data, &after); err != nil {
		t.Fatal(err)
	}
	if after.Estimate != before.Estimate {
		t.Fatalf("post-restart estimate %v, want %v", after.Estimate, before.Estimate)
	}
}

// fleetFor builds n live shards sharing one artifact store, with peer
// URLs wired for fleet-proxy forwarding. wrap, when non-nil, intercepts
// each shard's handler (index, inner) — tests use it to observe inbound
// requests.
func fleetFor(t *testing.T, n, replicas int, wrap func(int, http.Handler) http.Handler) []*httptest.Server {
	t.Helper()
	adv, _ := testAdvisor(t, 10)
	storeDir := t.TempDir()
	servers := make([]*httptest.Server, n)
	peerList := ""
	for i := range servers {
		servers[i] = httptest.NewUnstartedServer(nil)
		if i > 0 {
			peerList += ","
		}
		peerList += "http://" + servers[i].Listener.Addr().String()
	}
	for i, ts := range servers {
		sh, err := newSharder(i, n, replicas, peerList)
		if err != nil {
			t.Fatal(err)
		}
		store, err := ce.NewStore(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		var h http.Handler = newServerOpts(adv, store, serveOptions{Shard: sh})
		if wrap != nil {
			h = wrap(i, h)
		}
		ts.Config.Handler = h
		ts.Start()
		t.Cleanup(ts.Close)
	}
	return servers
}

// keyWithReplicas finds a dataset name whose replica set is exactly the
// wanted shard sequence.
func keyWithReplicas(t *testing.T, sh *sharder, want ...int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("ds-%d", i)
		set := sh.replicasOf(k)
		match := len(set) == len(want)
		for j := range want {
			match = match && set[j] == want[j]
		}
		if match {
			return k
		}
	}
	t.Fatalf("no key with replica set %v", want)
	return ""
}

// TestServeForwardDoesNotMutateInbound is the regression for the proxy
// header bug: forwarding must clone the outbound request, never stamp
// X-Shard-Forwarded (or any routing header) onto the inbound one.
func TestServeForwardDoesNotMutateInbound(t *testing.T) {
	sawForwarded := make([]bool, 2)
	var mutated []string
	servers := fleetFor(t, 2, 1, func(i int, inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			had := r.Header.Get("X-Shard-Forwarded") != ""
			if had {
				sawForwarded[i] = true
			}
			inner.ServeHTTP(w, r)
			if !had && r.Header.Get("X-Shard-Forwarded") != "" {
				mutated = append(mutated, fmt.Sprintf("shard %d: %s %s", i, r.Method, r.URL.Path))
			}
		})
	})
	sh0, _ := newSharder(0, 2, 1, "")
	d := serveDataset(t, 1, 210)
	d.Name = ownedKey(t, sh0, 1) // primary: shard 1; front door: shard 0

	hdr := map[string]string{"X-Shard-Key": d.Name}
	if resp, data := postJSONHeaders(t, servers[0], "/datasets", datasetBody(d), hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded onboard: %d %s", resp.StatusCode, data)
	}
	if resp, data := postJSONHeaders(t, servers[0], "/train", map[string]any{
		"dataset": d.Name, "model": "Postgres", "queries": 30, "sample_rows": 80,
	}, hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded train: %d %s", resp.StatusCode, data)
	}
	q := rangeQueryBodies(d, 1)[0]
	if resp, data := postJSONHeaders(t, servers[0], "/estimate", map[string]any{
		"dataset": d.Name, "query": q}, hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded estimate: %d %s", resp.StatusCode, data)
	}
	if !sawForwarded[1] {
		t.Fatal("shard 1 never saw a forwarded request — forwarding path untested")
	}
	if len(mutated) > 0 {
		t.Fatalf("proxy mutated inbound requests: %v", mutated)
	}
}

// TestServeForwardBodyReadErrors pins the fleet proxy's body-read
// mapping to decodeOK's: a forwarded body past the size cap answers 413,
// and any other read failure (a client that went away) answers 400.
func TestServeForwardBodyReadErrors(t *testing.T) {
	servers := fleetFor(t, 2, 1, nil)
	sh0, _ := newSharder(0, 2, 1, "")
	key := ownedKey(t, sh0, 1) // shard 0 neither owns nor backs it
	front := servers[0].Config.Handler
	send := func(path string, body io.Reader) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, path, body)
		r.Header.Set("X-Shard-Key", key)
		w := httptest.NewRecorder()
		front.ServeHTTP(w, r)
		return w
	}
	for _, path := range []string{"/train", "/estimate"} {
		if w := send(path, iotest.ErrReader(errors.New("client went away"))); w.Code != http.StatusBadRequest {
			t.Fatalf("%s with a failing body reader: %d %s, want 400", path, w.Code, w.Body)
		}
	}
	huge := bytes.Repeat([]byte(" "), maxBodyBytes+1)
	if w := send("/train", bytes.NewReader(huge)); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized forwarded body: %d %s, want 413", w.Code, w.Body)
	}
}

// TestServeReadFailover kills a primary and checks reads fail over to the
// replica (serving the primary's trained model via lazy stub discovery
// over the shared store), then kills the replica too and checks the
// forwarder answers a JSON 502 rather than hanging or panicking.
func TestServeReadFailover(t *testing.T) {
	servers := fleetFor(t, 3, 2, nil)
	sh0, _ := newSharder(0, 3, 2, "")
	// A dataset whose replica set is {1, 2}: shard 0 always fronts,
	// never serves.
	key := keyWithReplicas(t, sh0, 1, 2)
	d := serveDataset(t, 1, 210)
	d.Name = key
	hdr := map[string]string{"X-Shard-Key": key}
	if resp, data := postJSONHeaders(t, servers[0], "/datasets", datasetBody(d), hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("onboard via front: %d %s", resp.StatusCode, data)
	}
	if resp, data := postJSONHeaders(t, servers[0], "/train", map[string]any{
		"dataset": key, "model": "Postgres", "queries": 30, "sample_rows": 80,
	}, hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("train via front: %d %s", resp.StatusCode, data)
	}
	q := rangeQueryBodies(d, 1)[0]
	est := map[string]any{"dataset": key, "model": "Postgres", "query": q}

	servers[1].Close() // primary down
	resp, data := postJSONHeaders(t, servers[0], "/estimate", est, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate with primary down: %d %s — want replica failover", resp.StatusCode, data)
	}

	// /healthz on the front shard reports the fleet table.
	hresp, err := http.Get(servers[0].URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Fleet struct {
			Peers []peerHealthInfo `json:"peers"`
		} `json:"fleet"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if len(health.Fleet.Peers) != 3 {
		t.Fatalf("fleet table lists %d peers, want 3", len(health.Fleet.Peers))
	}

	servers[2].Close() // replica down too: nothing can serve
	resp, data = postJSONHeaders(t, servers[0], "/estimate", est, hdr)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("estimate with whole replica set down: %d %s — want 502", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("502 content-type %q, want JSON", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
		t.Fatalf("502 body %q is not the JSON error form (%v)", data, err)
	}
}

// TestServeReplicaReadWriteMatrix pins the role matrix on a live replica:
// reads serve, direct writes 421, replicate-marked writes serve.
func TestServeReplicaReadWriteMatrix(t *testing.T) {
	servers := fleetFor(t, 3, 2, nil)
	sh0, _ := newSharder(0, 3, 2, "")
	key := keyWithReplicas(t, sh0, 1, 2)
	d := serveDataset(t, 1, 210)
	d.Name = key
	hdr := map[string]string{"X-Shard-Key": key}
	if resp, data := postJSONHeaders(t, servers[0], "/datasets", datasetBody(d), hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("onboard: %d %s", resp.StatusCode, data)
	}

	// Replica (shard 2) serves reads directly...
	if resp, data := postJSONHeaders(t, servers[2], "/recommend", map[string]any{
		"dataset": key, "wa": 0.5}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("read on replica: %d %s", resp.StatusCode, data)
	}
	// ...421s direct writes (it is not the primary; no routing header, so
	// no forwarding either)...
	if resp, _ := postJSONHeaders(t, servers[2], "/train", map[string]any{
		"dataset": key, "model": "Postgres"}, nil); resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("direct write on replica: %d, want 421", resp.StatusCode)
	}
	// ...and a non-member 421s reads without the routing header.
	if resp, _ := postJSONHeaders(t, servers[0], "/recommend", map[string]any{
		"dataset": key, "wa": 0.5}, nil); resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("direct read on non-member: %d, want 421", resp.StatusCode)
	}
}

// TestServeRestartRecoversDotDotTenant: a tenant named ".." stays inside
// -model-dir — its artifacts and its manifest record alike — and a
// restarted server recovers it from that record with bit-identical
// estimates.
func TestServeRestartRecoversDotDotTenant(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "models")
	manifest := filepath.Join(dir, "tenants.manifest")
	d := serveDataset(t, 1, 311)
	d.Name = ".."
	q := rangeQueryBodies(d, 1)[0]
	var want estimateResponse
	for restart := 0; restart <= 1; restart++ {
		store, err := ce.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		_, ts := serveWithOpts(t, store, serveOptions{ManifestPath: manifest})
		if restart == 0 {
			onboardAndTrain(t, ts, d, "Postgres")
		}
		resp, data := postJSON(t, ts, "/estimate", map[string]any{"dataset": d.Name, "query": q})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("restart %d: estimate: %d %s", restart, resp.StatusCode, data)
		}
		var got estimateResponse
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if restart == 0 {
			want = got
		} else if got.Estimate != want.Estimate || got.Model != want.Model {
			t.Fatalf("post-restart estimate %v (model %s) != pre-restart %v (model %s)",
				got.Estimate, got.Model, want.Estimate, want.Model)
		}
		ts.Close()
		if files, err := os.ReadDir(parent); err != nil || len(files) != 1 {
			t.Fatalf("restart %d: -model-dir's parent holds %v (%v), want just -model-dir", restart, files, err)
		}
		if _, err := os.Stat(filepath.Join(manifest, ce.EscapeName(d.Name))); err != nil {
			t.Fatalf("restart %d: no manifest record for %q: %v", restart, d.Name, err)
		}
	}
}

// skewClock is a breaker clock that a test moves past a cooldown while
// handler goroutines read it.
type skewClock struct{ skew atomic.Int64 }

func (c *skewClock) now() time.Time          { return time.Now().Add(time.Duration(c.skew.Load())) }
func (c *skewClock) advance(d time.Duration) { c.skew.Add(int64(d)) }

// fleetWithFront is fleetFor whose shard 0 — the front door in these
// tests — runs its peer breakers on clk and is returned for inspection.
func fleetWithFront(t *testing.T, n, replicas int, clk *skewClock, wrap func(int, http.Handler) http.Handler) ([]*httptest.Server, *server) {
	t.Helper()
	var front *server
	servers := fleetFor(t, n, replicas, func(i int, inner http.Handler) http.Handler {
		if i == 0 {
			front = inner.(*server)
			for p := range front.peers.breakers {
				front.peers.breakers[p] = resilience.NewBreaker(resilience.BreakerConfig{Now: clk.now})
			}
		}
		if wrap != nil {
			return wrap(i, inner)
		}
		return inner
	})
	return servers, front
}

// frontTenant onboards a dataset whose replica set is {1, 2} through
// shard 0's front door, trains Postgres on it, and returns an /estimate
// body and the routing headers for it.
func frontTenant(t *testing.T, servers []*httptest.Server, seed int64) (map[string]any, map[string]string) {
	t.Helper()
	sh0, _ := newSharder(0, 3, 2, "")
	d := serveDataset(t, 1, seed)
	d.Name = keyWithReplicas(t, sh0, 1, 2)
	hdr := map[string]string{"X-Shard-Key": d.Name}
	if resp, data := postJSONHeaders(t, servers[0], "/datasets", datasetBody(d), hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("onboard via front: %d %s", resp.StatusCode, data)
	}
	if resp, data := postJSONHeaders(t, servers[0], "/train", map[string]any{
		"dataset": d.Name, "model": "Postgres", "queries": 30, "sample_rows": 80,
	}, hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("train via front: %d %s", resp.StatusCode, data)
	}
	return map[string]any{"dataset": d.Name, "model": "Postgres", "query": rangeQueryBodies(d, 1)[0]}, hdr
}

// want502 fails unless a forward answered the JSON 502.
func want502(t *testing.T, what string, resp *http.Response, data []byte) {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if resp.StatusCode != http.StatusBadGateway || resp.Header.Get("Content-Type") != "application/json" ||
		json.Unmarshal(data, &e) != nil || e.Error == "" {
		t.Fatalf("%s: %d %s — want the JSON 502", what, resp.StatusCode, data)
	}
}

// fleetTable reads the /healthz fleet table of ts.
func fleetTable(t *testing.T, ts *httptest.Server) []peerHealthInfo {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Fleet struct {
			Peers []peerHealthInfo `json:"peers"`
		} `json:"fleet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	return health.Fleet.Peers
}

// TestServeLaggingReplicaReadIsUnavailable: with the primary down, a
// forwarded read that reaches only a replica which missed the onboarding
// fan-in answers 502 (unavailable), not that replica's 404 — the tenant
// exists, it just cannot be served right now. A dataset that no member
// knows still answers 404.
func TestServeLaggingReplicaReadIsUnavailable(t *testing.T) {
	servers := fleetFor(t, 3, 2, func(i int, inner http.Handler) http.Handler {
		if i != 2 {
			return inner
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get(headerReplicate) != "" {
				writeError(w, http.StatusServiceUnavailable, "refusing replica fan-in")
				return
			}
			inner.ServeHTTP(w, r)
		})
	})
	est, hdr := frontTenant(t, servers, 212)

	sh0, _ := newSharder(0, 3, 2, "")
	unknown := keyWithReplicas(t, sh0, 2, 1)
	resp, data := postJSONHeaders(t, servers[0], "/estimate", map[string]any{
		"dataset": unknown, "query": est["query"]}, map[string]string{"X-Shard-Key": unknown})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("estimate for a dataset no member knows: %d %s, want 404", resp.StatusCode, data)
	}

	servers[1].Close() // primary down; replica 2 never got the tenant
	resp, data = postJSONHeaders(t, servers[0], "/estimate", est, hdr)
	want502(t, "estimate with the primary down and the replica lagging", resp, data)
}

// TestServeReadTriesEachMemberOnce pins the read failover budget: a
// forwarded read tries every replica-set member exactly once. Both
// members drop the connection (a transport failure — a 503 would be an
// answer, passed through), so the read answers 502 after one forward to
// each, with no repeats.
func TestServeReadTriesEachMemberOnce(t *testing.T) {
	var forwards [3]atomic.Int32
	servers := fleetFor(t, 3, 2, func(i int, inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/estimate" || r.Header.Get("X-Shard-Forwarded") == "" {
				inner.ServeHTTP(w, r)
				return
			}
			forwards[i].Add(1)
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("shard %d: hijack: %v", i, err)
				return
			}
			conn.Close()
		})
	})
	sh0, _ := newSharder(0, 3, 2, "")
	key := keyWithReplicas(t, sh0, 1, 2) // shard 0 fronts, never serves
	resp, data := postJSONHeaders(t, servers[0], "/estimate", map[string]any{
		"dataset": key, "query": map[string]any{}}, map[string]string{"X-Shard-Key": key})
	want502(t, "estimate with every member dropping the connection", resp, data)
	for i := 1; i <= 2; i++ {
		if got := forwards[i].Load(); got != 1 {
			t.Errorf("shard %d saw %d forwarded estimates, want exactly 1", i, got)
		}
	}
}

// TestServeOnlyKeyedRequestsForward pins the fleet's one forwarding
// path, the shard router, which only keyed requests take. Shard 2, a
// replica that refused the onboarding fan-in, answers header-less reads
// for the tenant with its own 404 and forwards nothing. A keyed /estimate
// it fronts forwards the client's bytes unchanged to the primary, and
// answers with the primary's estimate.
func TestServeOnlyKeyedRequestsForward(t *testing.T) {
	type arrival struct {
		shard int
		body  []byte
	}
	var mu sync.Mutex
	var fromShard2 []arrival
	servers := fleetFor(t, 3, 2, func(i int, inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == 2 && r.Header.Get(headerReplicate) != "" {
				writeError(w, http.StatusServiceUnavailable, "refusing replica fan-in")
				return
			}
			if i != 2 && r.Header.Get("X-Shard-Forwarded") == "2" {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					t.Errorf("shard %d reading a forwarded body: %v", i, err)
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
				mu.Lock()
				fromShard2 = append(fromShard2, arrival{i, body})
				mu.Unlock()
			}
			inner.ServeHTTP(w, r)
		})
	})
	est, hdr := frontTenant(t, servers, 215)
	arrivals := func() []arrival {
		mu.Lock()
		defer mu.Unlock()
		return append([]arrival(nil), fromShard2...)
	}

	rec := map[string]any{"dataset": est["dataset"], "wa": 0.5}
	for _, c := range []struct {
		path string
		body map[string]any
	}{{"/estimate", est}, {"/recommend", rec}} {
		if resp, data := postJSONHeaders(t, servers[2], c.path, c.body, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("header-less %s on the lagging replica: %d %s, want its own 404", c.path, resp.StatusCode, data)
		}
	}
	if got := arrivals(); len(got) != 0 {
		t.Fatalf("header-less reads forwarded %d requests from shard 2, want 0", len(got))
	}

	resp, data := postJSONHeaders(t, servers[1], "/estimate", est, nil)
	var want estimateResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &want) != nil {
		t.Fatalf("estimate on the primary: %d %s", resp.StatusCode, data)
	}
	// Indented, so a re-encoded body would not match byte for byte.
	raw, err := json.MarshalIndent(est, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, servers[2].URL+"/estimate", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Shard-Key", hdr["X-Shard-Key"])
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err = io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var got estimateResponse
	if hresp.StatusCode != http.StatusOK || json.Unmarshal(data, &got) != nil {
		t.Fatalf("keyed estimate fronted by the lagging replica: %d %s, want 200", hresp.StatusCode, data)
	}
	if got.Estimate != want.Estimate || got.Model != want.Model {
		t.Fatalf("keyed estimate %v (model %s), primary answers %v (model %s)", got.Estimate, got.Model, want.Estimate, want.Model)
	}
	a := arrivals()
	if len(a) != 1 || a[0].shard != 1 || !bytes.Equal(a[0].body, raw) {
		t.Fatalf("shard 2 forwarded %d requests (%+v), want one to shard 1 carrying the client's bytes %q", len(a), a, raw)
	}
}

// TestServeBreakerReadmitsPrimaryOnLiveRead: once the cooldown of the
// front shard's open breaker for a primary has elapsed, the next
// forwarded /recommend goes to that primary — ahead of the replica — and
// its success closes the breaker. No other request has to probe it.
func TestServeBreakerReadmitsPrimaryOnLiveRead(t *testing.T) {
	var primaryReads atomic.Int64
	clk := &skewClock{}
	servers, front := fleetWithFront(t, 3, 2, clk, func(i int, inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == 1 && r.URL.Path == "/recommend" {
				primaryReads.Add(1)
			}
			inner.ServeHTTP(w, r)
		})
	})
	est, hdr := frontTenant(t, servers, 213)
	rec := map[string]any{"dataset": est["dataset"], "wa": 0.5}

	b := front.peers.breakers[1]
	for b.State() != resilience.BreakerOpen {
		b.Record(errors.New("injected: primary unreachable"))
	}
	if resp, data := postJSONHeaders(t, servers[0], "/recommend", rec, hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend mid-cooldown: %d %s", resp.StatusCode, data)
	}
	if n := primaryReads.Load(); n != 0 {
		t.Fatalf("primary got %d reads while its breaker was open mid-cooldown", n)
	}

	clk.advance(3 * time.Second) // past the default 2s cooldown
	if resp, data := postJSONHeaders(t, servers[0], "/recommend", rec, hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend after cooldown: %d %s", resp.StatusCode, data)
	}
	if n := primaryReads.Load(); n != 1 {
		t.Fatalf("primary got %d reads after the cooldown, want the next read", n)
	}
	if got := b.State(); got != resilience.BreakerClosed {
		t.Fatalf("primary's breaker is %v after a successful live read, want closed", got)
	}
}

// TestServePeerForwardFailpoint arms serve.peer.forward: forwarded reads
// answer the JSON 502 and the front shard's /healthz fleet table shows
// the replica set's breakers open. Once the failpoint is cleared and the
// cooldown has elapsed, reads answer 200 again.
func TestServePeerForwardFailpoint(t *testing.T) {
	clk := &skewClock{}
	servers, _ := fleetWithFront(t, 3, 2, clk, nil)
	est, hdr := frontTenant(t, servers, 214)

	if err := resilience.SetFailpoint("serve.peer.forward", "error"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(resilience.ClearFailpoints)
	for i := 0; i < 6; i++ {
		resp, data := postJSONHeaders(t, servers[0], "/estimate", est, hdr)
		want502(t, fmt.Sprintf("estimate %d under the failpoint", i), resp, data)
	}
	table := fleetTable(t, servers[0])
	if len(table) != 3 || !table[0].Self || table[0].Breaker != "closed" {
		t.Fatalf("fleet table %+v, want 3 rows with a closed self row", table)
	}
	for _, p := range []int{1, 2} {
		if table[p].Breaker != "open" || table[p].LastErr == "" {
			t.Fatalf("fleet row %d = %+v, want an open breaker with its last error", p, table[p])
		}
	}

	resilience.ClearFailpoints()
	clk.advance(3 * time.Second)
	if resp, data := postJSONHeaders(t, servers[0], "/estimate", est, hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate after clearing the failpoint and the cooldown: %d %s", resp.StatusCode, data)
	}
}
