// Command autoce-serve exposes a trained advisor as an HTTP/JSON model
// lifecycle service — the paper's cloud-vendor scenario (Section I) as an
// actual server, closed into a loop: onboard a dataset, get a
// recommendation, train the recommended estimator through the ce registry,
// and serve cardinality estimates from it. It loads a gob advisor written
// by `autoce -save` (or core.Advisor.SaveFile) and serves:
//
//	POST /recommend  {"v": [[...]], "e": [[...]], "wa": 0.9, "k": 2}
//	                 or {"dataset": "db1", "wa": 0.9}
//	                 -> the selected model, its averaged score vector, and
//	                    the RCS neighbors consulted
//	POST /drift      {"v": [[...]], "e": [[...]]}
//	                 -> whether the graph lies outside the trained
//	                    distribution, with distance and threshold
//	POST /adapt      {"name": "...", "v": ..., "e": ..., "sa": [...],
//	                  "se": [...], "epochs": 2}
//	                 -> online-adapts the advisor with a freshly labeled
//	                    sample (Section V-E) and reports the new RCS size
//	POST /datasets   {"name": "db1", "tables": [{"name": "t0", "pk": 0,
//	                  "cols": [{"name": "c0", "data": [1,2,3]}]}],
//	                  "fks": [{"from_table":1,"from_col":0,
//	                           "to_table":0,"to_col":0}]}
//	                 -> onboards (or replaces) a dataset for training and
//	                    estimation; reloads its stored model artifacts
//	POST /train      {"dataset": "db1", "model": "MSCN"} or
//	                 {"dataset": "db1", "wa": 0.9} (train the recommended
//	                 model) -> trains through the registry, persists the
//	                 artifact (with -model-dir), and atomically publishes
//	                 the model for /estimate
//	POST /estimate   {"dataset": "db1", "query": {...}} or
//	                 {"dataset": "db1", "queries": [{...}, ...]}
//	                 -> cardinality estimates from the trained model's
//	                    batched hot path
//	GET  /models     -> the estimator registry (name/kind/candidate), the
//	                    trained models per dataset with their cache
//	                    residency (loaded/evicted/quarantined), and the
//	                    model cache's budget utilization
//	GET  /healthz    -> liveness plus RCS/dataset/model counts, model
//	                    cache and artifact-store stats, shard identity
//	GET  /readyz     -> readiness: 200 while accepting traffic, 503 once
//	                    shutdown begins (load-balancer drain signal)
//
// The graph payload is the feature graph of internal/feature: "v" is the
// n×VertexDim vertex matrix, "e" the n×n weighted adjacency matrix. Query
// payloads use dataset-level table/column indexes with closed-interval
// range predicates.
//
// Requests are served from lock-free snapshots: the advisor's
// core.Snapshot, and one atomically-published snapshot per tenant
// dataset — republishing one tenant (retrain, re-onboard) never swaps
// another tenant's view. Any number of /recommend, /drift, and /estimate
// calls proceed concurrently; /adapt, /datasets, and /train mutate in
// the background of those reads and atomically publish successor
// snapshots. Shutdown is graceful: SIGINT/SIGTERM flip /readyz to 503,
// stop the listener, and drain in-flight requests.
//
// # Multi-tenancy
//
// Two mechanisms make "thousands of tenant datasets" the design point
// (see README "Multi-tenant serving"):
//
//   - A budgeted model cache (-model-budget) pages trained models
//     between memory and the -model-dir artifact store, LRU-first;
//     evicted models cold-load transparently and bit-identically on the
//     next estimate (cache.go).
//   - Rendezvous shard routing (-shard-index, -shard-count,
//     -shard-peers) splits the tenant space across a fleet, each dataset
//     mapping to a replica set of -replicas shards: the rendezvous
//     primary takes writes, every member serves reads (shard.go).
//
// # Fleet fault tolerance
//
// Per dataset, each endpoint's behavior by shard role (421 is
// Misdirected Request, naming the primary in X-Shard-Want/X-Shard-Peer;
// "forward" applies when -shard-peers is configured and the request
// carries X-Shard-Key but not X-Shard-Forwarded — forwarded requests
// never forward again):
//
//	endpoint             primary              replica               any other shard
//	/estimate,           serves               serves (lazy stub     forwards across the
//	/recommend                                from the shared       replica set, each
//	                                          -model-dir store);    member once, else 421
//	                                          forwards a keyed
//	                                          read for a tenant
//	                                          it lacks
//	/drift               serves               serves                forwards (failover), else 421
//	/datasets            serves, records to   421 unless marked     forwards once to the
//	                     manifest, fans out   X-Shard-Replicate     primary, else 421
//	                     to replica set       (the primary fan-out)
//	/train               serves (replicas     421                   forwards once to the
//	                     pick the artifact                          primary, else 421
//	                     up lazily)
//
// Forwarding runs through one circuit breaker per peer, the proxy's only
// health signal: a crashed shard costs one failure window, not a timeout
// per request, and once the cooldown has elapsed the next live read
// probes it back in. Reads fail over across the replica set, trying each
// member once with no backoff, and a 404 is final only when every
// replica-set member answered it; writes are forwarded exactly once and
// never replayed, and only the primary's onboarding fan-out retries with
// backoff. A forward that exhausts every option answers a JSON 502.
//
// Each shard also records every dataset payload it accepts in a tenant
// manifest (-manifest, defaulting into -model-dir): a directory with one
// CRC-enveloped, fsynced record per tenant (manifest.go), so onboarding
// rewrites one tenant's record, not the fleet's. On restart the shard
// replays the records through onboarding and resumes serving from stored
// artifacts with zero client action.
//
// # Resilience
//
// Every endpoint runs under a deadline and an admission class (the table
// in resilience.go lists both). Cheap snapshot reads and expensive
// mutators admit through disjoint semaphores, so saturating /train or
// /datasets never blocks /estimate: overload sheds with 503 +
// Retry-After (429 for a full train queue) while estimates keep flowing
// from the published snapshot. Handler panics are recovered (500, server
// stays up), and a panic inside model inference quarantines that one
// served model (503 for it alone) until it is retrained. Model artifacts
// are checksummed on disk; a truncated or bit-flipped artifact is
// quarantined to .corrupt and skipped on reload instead of being served.
// Fault injection for all of the above is armed via AUTOCE_FAILPOINTS
// (see internal/resilience).
//
// Usage:
//
//	autoce -train 40 -save advisor.gob
//	autoce-serve -advisor advisor.gob -addr :8080 -model-dir ./models
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ce"
	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/resilience"
	"repro/internal/testbed"
)

func main() {
	advisorPath := flag.String("advisor", "", "path to a gob advisor written by core.Advisor.SaveFile (required)")
	addr := flag.String("addr", ":8080", "listen address")
	modelDir := flag.String("model-dir", "", "directory for trained-model artifacts; /train persists into it and /datasets reloads from it (empty = in-memory only)")
	modelBudget := flag.Int("model-budget", 0, "max trained models resident in memory across all tenants; beyond it the LRU pages models out to -model-dir (0 = unlimited)")
	shardIndex := flag.Int("shard-index", 0, "this instance's shard number in a sharded fleet (see -shard-count)")
	shardCount := flag.Int("shard-count", 0, "total shards in the fleet; datasets are routed by rendezvous hash, others answer 421 (0/1 = unsharded)")
	shardPeers := flag.String("shard-peers", "", "comma-separated base URLs of all shards (including this one); enables fleet-proxy forwarding of X-Shard-Key requests")
	replicas := flag.Int("replicas", 2, "replica-set size per dataset: the rendezvous primary takes writes, runners-up also serve reads (clamped to -shard-count)")
	peerTimeout := flag.Duration("peer-timeout", 0, "per-attempt timeout for forwarded reads in the fleet proxy (0 = default 5s)")
	manifestPath := flag.String("manifest", "", "tenant manifest for restart recovery: a directory of per-tenant records, fsynced on write (default: <model-dir>/shard-<i>.manifest, or tenants.manifest unsharded; \"none\" disables)")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file (useful with -addr :0)")
	flag.Parse()
	if *advisorPath == "" {
		fmt.Fprintln(os.Stderr, "autoce-serve: -advisor is required")
		flag.Usage()
		os.Exit(2)
	}
	shard, err := newSharder(*shardIndex, *shardCount, *replicas, *shardPeers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "autoce-serve: %v\n", err)
		os.Exit(2)
	}
	manifest := *manifestPath
	switch {
	case manifest == "none":
		manifest = ""
	case manifest == "" && *modelDir != "":
		// Default next to the artifacts the recovered tenants serve from.
		if shard != nil {
			manifest = filepath.Join(*modelDir, fmt.Sprintf("shard-%d.manifest", shard.index))
		} else {
			manifest = filepath.Join(*modelDir, "tenants.manifest")
		}
	}

	adv, err := core.LoadFile(*advisorPath)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded advisor from %s (%d labeled datasets in the RCS, k=%d)",
		*advisorPath, adv.NumSamples(), adv.Serving().K())

	var store *ce.Store
	if *modelDir != "" {
		store, err = ce.NewStore(*modelDir)
		if err != nil {
			log.Fatal(err)
		}
		if entries, err := store.List(); err == nil {
			log.Printf("model store %s holds %d artifacts", *modelDir, len(entries))
		}
	}

	if fps := resilience.ActiveFailpoints(); len(fps) > 0 {
		log.Printf("WARNING: fault injection armed via %s: %v", resilience.FailpointEnv, fps)
	}

	app := newServerOpts(adv, store, serveOptions{
		ModelBudget:  *modelBudget,
		Shard:        shard,
		PeerTimeout:  *peerTimeout,
		ManifestPath: manifest,
	})
	srv := &http.Server{
		Handler:           app,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if *addrFile != "" {
		// Published after binding, so a harness spawning this process on
		// ":0" learns the kernel-assigned port.
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	errCh := make(chan error, 1)
	//autoce:ignore barego -- the accept loop runs until shutdown; its error reaches errCh
	go func() { errCh <- srv.Serve(ln) }()
	if shard != nil {
		log.Printf("serving on %s (shard %d of %d)", ln.Addr(), shard.index, shard.count)
	} else {
		log.Printf("serving on %s", ln.Addr())
	}

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	app.ready.Store(false) // /readyz goes 503: drain signal for load balancers
	log.Print("shutting down (draining in-flight requests)...")
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancelShutdown()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	log.Print("bye")
}

// Transport timeouts of the listening http.Server and the shutdown grace
// period. Per-endpoint deadlines (serveOptions) govern handler time; these
// only bound the connection around it.
const (
	readHeaderTimeout = 5 * time.Second  // slow-loris bound
	readTimeout       = 2 * time.Minute  // full-request read; covers a 64 MiB /datasets upload
	writeTimeout      = 5 * time.Minute  // backstop behind the per-endpoint deadlines
	idleTimeout       = 2 * time.Minute  // keep-alive connections
	shutdownTimeout   = 10 * time.Second // grace period for in-flight requests
)

// server holds the shared advisor, the artifact store, and the
// multi-tenant serving state behind the HTTP handlers.
type server struct {
	adv   *core.Advisor
	store *ce.Store // nil: in-memory only

	// fleet holds one atomically swapped snapshot per tenant dataset;
	// cache is the budgeted paging layer deciding which trained models
	// stay decoded in memory (see models.go and cache.go); shard, when
	// non-nil, scopes this instance to its rendezvous replica sets
	// (shard.go).
	fleet *fleet
	cache *modelCache
	shard *sharder
	// peers is the fleet proxy — per-peer breakers and failover — when
	// shard peers are configured (proxy.go); manifest is the durable
	// record of onboarded datasets replayed on restart (manifest.go).
	// Either may be nil.
	peers    *peerSet
	manifest *tenantManifest
	// bodies keeps a /datasets read buffer for reuse.
	bodies bodyBuffer

	// adm is the two-class admission controller; opts carries the
	// per-endpoint deadlines (see resilience.go).
	adm  *resilience.Admission
	opts serveOptions
	// ready gates /readyz: true from construction until shutdown begins.
	ready atomic.Bool

	handler http.Handler
}

// ServeHTTP serves the wired mux (recovery middleware outermost).
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// newServer wires the endpoint handlers with the default resilience
// policy (split out of main so the httptest suite can drive the exact
// production routing).
func newServer(adv *core.Advisor, store *ce.Store) http.Handler {
	return newServerOpts(adv, store, serveOptions{})
}

// newServerOpts is newServer with an explicit resilience policy; tests
// shrink deadlines and class sizes through it.
func newServerOpts(adv *core.Advisor, store *ce.Store, opts serveOptions) *server {
	s := &server{adv: adv, store: store, opts: opts.withDefaults()}
	s.adm = resilience.NewAdmission(s.opts.Admission)
	s.fleet = newFleet()
	s.cache = newModelCache(store, s.opts.ModelBudget)
	s.shard = s.opts.Shard
	if s.shard != nil && s.shard.peers != nil {
		s.peers = newPeerSet(s.shard, s.opts)
	}
	if s.opts.ManifestPath != "" {
		var err error
		s.manifest, err = newTenantManifest(s.opts.ManifestPath)
		if err != nil {
			// Corrupt manifests are quarantined inside newTenantManifest;
			// either way the returned manifest is usable and serving starts.
			log.Printf("WARNING: %v", err)
		}
		s.recoverTenants()
	}
	s.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/recommend", s.cheap(s.opts.QuickDeadline, s.handleRecommend))
	mux.HandleFunc("/drift", s.cheap(s.opts.QuickDeadline, s.handleDrift))
	mux.HandleFunc("/adapt", s.heavy(s.opts.OnboardDeadline, s.handleAdapt))
	// /datasets admits itself: it leaves the heavy class before its
	// replica fan-out.
	mux.HandleFunc("/datasets", withDeadline(s.opts.OnboardDeadline, s.handleDatasets))
	mux.HandleFunc("/train", withDeadline(s.opts.TrainDeadline, s.handleTrain))
	// /estimate admits itself: the weight is the decoded batch size.
	mux.HandleFunc("/estimate", withDeadline(s.opts.EstimateDeadline, s.handleEstimate))
	mux.HandleFunc("/models", s.handleModels)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	s.handler = recovered(s.shardRoute(mux))
	return s
}

// graphPayload is the JSON form of a feature graph.
type graphPayload struct {
	Name string      `json:"name"`
	V    [][]float64 `json:"v"`
	E    [][]float64 `json:"e"`
}

// toGraph validates shapes and converts the payload.
func (p *graphPayload) toGraph() (*feature.Graph, error) {
	n := len(p.V)
	if n == 0 {
		return nil, errors.New("graph has no vertices (empty \"v\")")
	}
	dim := len(p.V[0])
	if dim == 0 {
		return nil, errors.New("vertex features are empty")
	}
	for i, row := range p.V {
		if len(row) != dim {
			return nil, fmt.Errorf("vertex %d has %d features, want %d", i, len(row), dim)
		}
	}
	if len(p.E) != n {
		return nil, fmt.Errorf("adjacency has %d rows for %d vertices", len(p.E), n)
	}
	for i, row := range p.E {
		if len(row) != n {
			return nil, fmt.Errorf("adjacency row %d has %d entries, want %d", i, len(row), n)
		}
	}
	return &feature.Graph{Name: p.Name, V: p.V, E: p.E}, nil
}

type recommendRequest struct {
	graphPayload
	// Dataset names an onboarded dataset; its extracted feature graph is
	// used instead of an inline v/e payload.
	Dataset string  `json:"dataset"`
	Wa      float64 `json:"wa"`
	K       int     `json:"k"` // 0 means the advisor's trained default
}

type neighborInfo struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
}

type recommendResponse struct {
	Model     int            `json:"model"`
	ModelName string         `json:"model_name,omitempty"`
	Scores    []float64      `json:"scores"`
	Neighbors []neighborInfo `json:"neighbors"`
	Wa        float64        `json:"wa"`
	K         int            `json:"k"`
}

func (s *server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req recommendRequest
	if _, ok := decodePost(w, r, &req, nil); !ok {
		return
	}
	if req.Wa < 0 || req.Wa > 1 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("wa %g outside [0,1]", req.Wa))
		return
	}
	if req.K < 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("k %d is negative", req.K))
		return
	}
	// One snapshot for both the recommendation and the neighbor names, so
	// the indexes resolve consistently even mid-/adapt.
	snap := s.adv.Serving()
	var g *feature.Graph
	if req.Dataset != "" {
		if len(req.V) != 0 || len(req.E) != 0 {
			writeError(w, http.StatusBadRequest, "provide either \"dataset\" or an inline graph, not both")
			return
		}
		if !s.shardReadOK(w, req.Dataset) {
			return
		}
		tn := s.fleet.tenant(req.Dataset)
		if tn == nil {
			writeError(w, http.StatusNotFound, fmt.Sprintf("dataset %q is not onboarded", req.Dataset))
			return
		}
		g = tn.graph
	} else {
		g = graphFor(w, &req.graphPayload, snap.InDim())
		if g == nil {
			return
		}
	}
	k := req.K
	if k == 0 {
		k = snap.K()
	}
	rec := snap.RecommendK(g, req.Wa, k)
	resp := recommendResponse{Model: rec.Model, Scores: rec.Scores, Wa: req.Wa, K: k}
	// rec.Model indexes the candidate set (the advisor's label space);
	// translate to the registry name rather than indexing ModelNames.
	if name, ok := testbed.CandidateModelName(rec.Model); ok {
		resp.ModelName = name
	}
	for _, ni := range rec.Neighbors {
		resp.Neighbors = append(resp.Neighbors, neighborInfo{Index: ni, Name: snap.SampleAt(ni).Name})
	}
	writeJSON(w, http.StatusOK, resp)
}

type driftResponse struct {
	Drift     bool    `json:"drift"`
	Distance  float64 `json:"distance"`
	Threshold float64 `json:"threshold"`
}

func (s *server) handleDrift(w http.ResponseWriter, r *http.Request) {
	var req graphPayload
	if _, ok := decodePost(w, r, &req, nil); !ok {
		return
	}
	snap := s.adv.Serving()
	g := graphFor(w, &req, snap.InDim())
	if g == nil {
		return
	}
	dist := snap.NearestDistance(g)
	writeJSON(w, http.StatusOK, driftResponse{
		Drift:     dist > snap.DriftThreshold(),
		Distance:  dist,
		Threshold: snap.DriftThreshold(),
	})
}

type adaptRequest struct {
	graphPayload
	Sa     []float64 `json:"sa"`
	Se     []float64 `json:"se"`
	Epochs int       `json:"epochs"` // 0 means 2, the drift example's budget
}

type adaptResponse struct {
	RCSSize        int     `json:"rcs_size"`
	DriftThreshold float64 `json:"drift_threshold"`
}

func (s *server) handleAdapt(w http.ResponseWriter, r *http.Request) {
	var req adaptRequest
	if _, ok := decodePost(w, r, &req, nil); !ok {
		return
	}
	snap := s.adv.Serving()
	g := graphFor(w, &req.graphPayload, snap.InDim())
	if g == nil {
		return
	}
	dim := len(snap.SampleAt(0).Sa)
	if len(req.Sa) != dim || len(req.Se) != dim {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("labels have %d/%d scores, advisor's models need %d", len(req.Sa), len(req.Se), dim))
		return
	}
	if req.Epochs < 0 || req.Epochs > maxAdaptEpochs {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("epochs %d outside [0, %d]", req.Epochs, maxAdaptEpochs))
		return
	}
	epochs := req.Epochs
	if epochs == 0 {
		epochs = 2
	}
	name := req.Name
	if name == "" {
		name = "adapted"
	}
	s.adv.OnlineAdapt(&core.Sample{Name: name, Graph: g, Sa: req.Sa, Se: req.Se}, epochs)
	//autoce:ignore snapshotonce -- deliberate re-load: OnlineAdapt republishes, and the response must describe the post-adapt snapshot
	adapted := s.adv.Serving()
	writeJSON(w, http.StatusOK, adaptResponse{
		RCSSize:        adapted.NumSamples(),
		DriftThreshold: adapted.DriftThreshold(),
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	tenants := s.fleet.snapshot()
	trained := 0
	for _, tn := range tenants {
		trained += len(tn.models)
	}
	resp := map[string]any{
		"ok":             true,
		"rcs_size":       s.adv.NumSamples(),
		"datasets":       len(tenants),
		"trained_models": trained,
		"model_cache":    s.cache.stats(),
	}
	if s.store != nil {
		resp["model_store"] = s.store.Stats()
	}
	if s.shard != nil {
		resp["shard"] = map[string]any{
			"index": s.shard.index, "count": s.shard.count,
			"replicas": s.shard.replicas,
		}
	}
	if s.peers != nil {
		resp["fleet"] = s.peers.healthTable()
	}
	writeJSON(w, http.StatusOK, resp)
}

// graphFor validates and converts a graph payload against the advisor's
// expected feature dimension — a mismatched graph would otherwise blow up
// deep inside the encoder's matrix kernels. It writes the 400 itself and
// returns nil on failure.
func graphFor(w http.ResponseWriter, p *graphPayload, inDim int) *feature.Graph {
	g, err := p.toGraph()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil
	}
	if len(g.V[0]) != inDim {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("vertex features have dimension %d, advisor's encoder expects %d", len(g.V[0]), inDim))
		return nil
	}
	return g
}

// maxBodyBytes caps request bodies. The largest legitimate payload is a
// /datasets onboarding request: columnar JSON for up to the cell cap
// enforced in models.go (maxDatasetCells, 4M values), which at typical
// value widths runs to a few tens of megabytes; 64 MiB covers that with
// headroom while keeping one oversized POST from ballooning the decoder.
// Feature-graph payloads (/recommend, /adapt) stay far smaller.
const maxBodyBytes = 64 << 20

// decodePost enforces the POST method, reads the body once under the
// size cap, and decodes it with decodeBody. It writes the error response
// itself and reports whether the handler should proceed; the body is
// returned for handlers that persist or forward it. A body over the cap
// answers 413 even when its first JSON value ends before the cap.
// buf is passed on to readBody.
func decodePost(w http.ResponseWriter, r *http.Request, dst any, buf []byte) ([]byte, bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return nil, false
	}
	body, err := readBody(w, r, buf)
	if err == nil {
		err = decodeBody(body, dst)
	}
	return body, decodeOK(w, err)
}

// readBody reads r's body once, under maxBodyBytes, into buf. A non-nil
// buf comes from bodyBuffer.take, sized up front from the declared
// Content-Length, so a large onboarding body is not regrown and copied on
// its way in. Only a caller already admitted for that much memory may
// pass one: a buffer sized from the header commits memory on headers
// alone. With a nil buf, a body that declares at most smallBodyBytes is
// read into a buffer of its declared length, and any other grows only as
// bytes arrive. Either way the buffer holds one byte more than the
// expected length, so the read that meets the body's end needs no
// regrowth.
func readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	if buf == nil {
		size := int64(bytes.MinRead)
		if r.ContentLength > 0 && r.ContentLength <= smallBodyBytes {
			size = r.ContentLength + 1
		}
		buf = make([]byte, 0, size)
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, len(buf))
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// smallBodyBytes bounds the declared length readBody trusts without a
// sized buffer: a request that lies about its length commits at most this
// much. It covers a 64-query /estimate body several times over.
const smallBodyBytes = 64 << 10

// bodyBuffer keeps one /datasets read buffer from one onboarding to the
// next. After the rows it decodes to, an onboarding body is the write
// path's largest allocation, and it is garbage once the manifest holds
// it; with rows released after /train the live heap is small, so a fresh
// buffer per onboarding both runs the GC more often and faults its pages
// in anew. A buffer past maxKeptBody is not kept, so one outsized upload
// does not stay resident.
type bodyBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const maxKeptBody = 8 << 20

// take returns an empty buffer for a body that declares n bytes: the kept
// one when it holds n+1 bytes, else a new one that does. With n unknown
// or past maxBodyBytes it returns the kept buffer, or nil for readBody's
// own sizing.
func (b *bodyBuffer) take(n int64) []byte {
	b.mu.Lock()
	buf := b.buf
	b.buf = nil
	b.mu.Unlock()
	if n > 0 && n <= maxBodyBytes && int64(cap(buf)) <= n {
		return make([]byte, 0, n+1)
	}
	return buf[:0]
}

// give keeps buf for the next take, unless a larger buffer is kept. The
// caller must hold no reference into buf afterwards.
func (b *bodyBuffer) give(buf []byte) {
	if cap(buf) > maxKeptBody {
		return
	}
	b.mu.Lock()
	if cap(buf) > cap(b.buf) {
		b.buf = buf
	}
	b.mu.Unlock()
}

// decodeBody decodes a request body into dst. A canonical /datasets or
// /estimate body takes the reflection-free scanner (canonical.go); any
// other body decodes the first JSON value strictly, rejecting unknown
// fields and ignoring anything after that value. Live requests and
// manifest replay both decode through it, so a recorded body replays
// exactly as it was accepted.
func decodeBody(body []byte, dst any) error {
	if scanCanonical(body, dst) {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// decodeOK answers a failed body read or decode — 413 past the size cap,
// 400 otherwise — and reports whether err was nil.
func decodeOK(w http.ResponseWriter, err error) bool {
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", int64(maxBodyBytes)))
		return false
	}
	writeError(w, http.StatusBadRequest, "malformed JSON payload: "+err.Error())
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("encoding response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
