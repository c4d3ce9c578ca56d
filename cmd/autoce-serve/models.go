package main

// The model-lifecycle half of the serving front-end: dataset onboarding,
// registry-driven training, and batched estimation served from per-tenant
// snapshots. This closes the loop the advisor opens — /recommend names a
// model, /train fits that model on the onboarded dataset through the ce
// registry, and /estimate answers cardinality queries from it.
//
// Concurrency is per tenant: every onboarded dataset owns a tenantHandle
// whose immutable snapshot readers load from an atomic pointer without
// blocking, and whose mutators (/datasets replace, /train publish)
// serialize on that handle's lock alone. Republishing one tenant swaps one
// pointer; every other tenant's snapshot — by pointer identity — is
// untouched, so a busy tenant's retrain loop cannot add even a cache-line
// of contention to its neighbors. Model residency (which trained models
// are decoded in memory versus paged out to the artifact store) is the
// modelCache's business (cache.go); snapshots hold servedModel handles
// that survive eviction.

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ce"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/resilience"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// Onboarding and training limits: generous for real use, tight enough
// that one malformed request cannot stall the server.
const (
	maxDatasetNameLen = 128
	// maxDatasetTables bounds the join graph: training a data-driven model
	// enumerates connected table subsets (up to 2^n exact engine join
	// counts), so the table count — not just the cell count — must stay
	// small enough that one /train cannot pin the server (2^8 masks is
	// trivial; the paper's schemas use at most 5 tables).
	maxDatasetTables = 8
	maxDatasetCells  = 4 << 20 // total values across all tables
	maxTrainQueries  = 2000
	maxAdaptEpochs   = 30 // core.DefaultConfig's Epochs; /adapt's DML pass ignores its deadline
	maxSampleRows    = 20000
	maxBatchQueries  = 10000
	defaultWa        = 0.9
)

// schemaSignature fingerprints a dataset's structure — table/column
// counts, primary keys, and FK edges. Artifacts record it at training
// time; a reloaded model is only served when the onboarded dataset still
// matches, so a re-onboarded dataset with a different shape can never be
// routed into a model indexed for the old one.
func schemaSignature(d *dataset.Dataset) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t%d", len(d.Tables))
	for _, t := range d.Tables {
		fmt.Fprintf(&b, ";c%d,pk%d", t.NumCols(), t.PKCol)
	}
	for _, fk := range d.FKs {
		fmt.Fprintf(&b, ";f%d.%d>%d.%d", fk.FromTable, fk.FromCol, fk.ToTable, fk.ToCol)
	}
	return b.String()
}

// schemaOf returns d's schema: names, PK columns and FKs, with no column
// data. schemaSignature, Query.Validate and the /train read-back check
// read nothing else.
func schemaOf(d *dataset.Dataset) *dataset.Dataset {
	sd := &dataset.Dataset{Name: d.Name, FKs: d.FKs, Tables: make([]*dataset.Table, len(d.Tables))}
	for i, t := range d.Tables {
		st := &dataset.Table{Name: t.Name, PKCol: t.PKCol, Cols: make([]*dataset.Column, len(t.Cols))}
		for j, c := range t.Cols {
			st.Cols[j] = &dataset.Column{Name: c.Name}
		}
		sd.Tables[i] = st
	}
	return sd
}

// sameSchema reports whether d has the names, PK columns and FKs of the
// schema sd.
func sameSchema(d, sd *dataset.Dataset) bool {
	if d.Name != sd.Name || len(d.Tables) != len(sd.Tables) || !slices.Equal(d.FKs, sd.FKs) {
		return false
	}
	for i, t := range d.Tables {
		st := sd.Tables[i]
		if t.Name != st.Name || t.PKCol != st.PKCol || len(t.Cols) != len(st.Cols) {
			return false
		}
		for j, c := range t.Cols {
			if c.Name != st.Cols[j].Name {
				return false
			}
		}
	}
	return true
}

// tenant is one onboarded dataset with its feature graph and trained
// models. All fields are immutable once published; updates clone.
//
// d is the dataset's schema alone: table and column names, the PK
// column and the FKs, with no column data. Every read path validates and
// fingerprints against it. Clones share it and every onboarding builds a
// new one, so its pointer identifies the tenant's generation.
//
// rows holds the decoded data only while this shard may still train on it
// and has no durable copy: from onboarding until the generation's first
// /train publishes, and past that only when the manifest does not hold
// the generation's payload on disk. Replicas (which never /train) and
// tenants recovered from the manifest keep none; without a manifest the
// rows are the only copy and stay. A /train that finds rows nil reads the
// record back (server.trainRows).
type tenant struct {
	d       *dataset.Dataset
	rows    *dataset.Dataset
	record  recordSum // the /datasets payload this generation was decoded from
	durable bool      // the manifest holds that payload on disk
	graph   *feature.Graph
	models  map[string]*servedModel
	active  string // most recently trained model name
}

func (t *tenant) clone() *tenant {
	nt := &tenant{d: t.d, rows: t.rows, record: t.record, durable: t.durable,
		graph: t.graph, active: t.active,
		models: make(map[string]*servedModel, len(t.models))}
	for k, v := range t.models {
		nt.models[k] = v
	}
	return nt
}

// tenantHandle is one tenant's serving slot: an atomically swapped
// immutable snapshot plus the mutator lock serializing republishes of
// this tenant only. A republish swaps this handle's pointer and no
// other's — the isolation the multi-tenant fleet is built on.
type tenantHandle struct {
	name string
	mu   sync.Mutex // serializes mutators (onboard-replace, train publish)
	snap atomic.Pointer[tenant]
}

// fleet maps dataset names to their handles. The map only grows (there is
// no offboarding endpoint) and a slot is never replaced once created, so
// a loaded handle stays valid for the process lifetime.
type fleet struct {
	mu sync.RWMutex
	m  map[string]*tenantHandle
}

func newFleet() *fleet { return &fleet{m: map[string]*tenantHandle{}} }

// tenant returns name's current serving snapshot, or nil if the dataset
// was never onboarded (or its first onboarding has not published yet).
func (f *fleet) tenant(name string) *tenant {
	f.mu.RLock()
	h := f.m[name]
	f.mu.RUnlock()
	if h == nil {
		return nil
	}
	return h.snap.Load()
}

// settle waits out a republish of name in progress. Mutators mark a
// served model superseded under the handle lock before they store its
// successor snapshot, so a snapshot loaded after settle returns is at
// least that successor.
func (f *fleet) settle(name string) {
	f.mu.RLock()
	h := f.m[name]
	f.mu.RUnlock()
	if h != nil {
		h.mu.Lock() // empty critical section: a barrier, not a guard
		h.mu.Unlock()
	}
}

// getOrCreate returns name's handle, creating the empty slot on first
// onboard.
func (f *fleet) getOrCreate(name string) *tenantHandle {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := f.m[name]
	if h == nil {
		h = &tenantHandle{name: name}
		f.m[name] = h
	}
	return h
}

// snapshot returns every published tenant keyed by name — a point-in-time
// read for listing endpoints; per-tenant pointers stay live-updating.
func (f *fleet) snapshot() map[string]*tenant {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make(map[string]*tenant, len(f.m))
	for name, h := range f.m {
		if tn := h.snap.Load(); tn != nil {
			out[name] = tn
		}
	}
	return out
}

// ---------------------------------------------------------------- onboard

type columnPayload struct {
	Name string  `json:"name"`
	Data []int64 `json:"data"`
}

type tablePayload struct {
	Name string          `json:"name"`
	PK   *int            `json:"pk"` // column index; absent = no primary key
	Cols []columnPayload `json:"cols"`
}

type fkPayload struct {
	FromTable int `json:"from_table"`
	FromCol   int `json:"from_col"`
	ToTable   int `json:"to_table"`
	ToCol     int `json:"to_col"`
}

type datasetRequest struct {
	Name   string         `json:"name"`
	Tables []tablePayload `json:"tables"`
	FKs    []fkPayload    `json:"fks"`
}

type datasetResponse struct {
	Dataset      string   `json:"dataset"`
	Tables       int      `json:"tables"`
	Rows         int      `json:"rows"`
	VertexDim    int      `json:"vertex_dim"`
	StoredModels []string `json:"stored_models,omitempty"`
}

// toDataset validates the payload and builds the in-memory dataset.
func (p *datasetRequest) toDataset() (*dataset.Dataset, error) {
	if p.Name == "" {
		return nil, fmt.Errorf("dataset name is required")
	}
	if len(p.Name) > maxDatasetNameLen {
		return nil, fmt.Errorf("dataset name exceeds %d bytes", maxDatasetNameLen)
	}
	if len(p.Tables) == 0 {
		return nil, fmt.Errorf("dataset has no tables")
	}
	if len(p.Tables) > maxDatasetTables {
		return nil, fmt.Errorf("dataset has %d tables, limit %d", len(p.Tables), maxDatasetTables)
	}
	cells := 0
	d := &dataset.Dataset{Name: p.Name}
	for ti, tp := range p.Tables {
		if len(tp.Cols) == 0 {
			return nil, fmt.Errorf("table %d has no columns", ti)
		}
		name := tp.Name
		if name == "" {
			name = fmt.Sprintf("t%d", ti)
		}
		t := &dataset.Table{Name: name, PKCol: -1}
		if tp.PK != nil {
			t.PKCol = *tp.PK
		}
		for ci, cp := range tp.Cols {
			if len(cp.Data) == 0 {
				return nil, fmt.Errorf("table %d column %d is empty", ti, ci)
			}
			cells += len(cp.Data)
			if cells > maxDatasetCells {
				return nil, fmt.Errorf("dataset exceeds %d total values", maxDatasetCells)
			}
			cname := cp.Name
			if cname == "" {
				cname = fmt.Sprintf("c%d", ci)
			}
			t.Cols = append(t.Cols, dataset.NewColumn(cname, cp.Data))
		}
		d.Tables = append(d.Tables, t)
	}
	for _, fk := range p.FKs {
		d.FKs = append(d.FKs, dataset.ForeignKey{
			FromTable: fk.FromTable, FromCol: fk.FromCol,
			ToTable: fk.ToTable, ToCol: fk.ToCol,
		})
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if !hasPredicableColumn(d) {
		return nil, fmt.Errorf("dataset has no predicable column: every non-key, non-FK column is constant, so no training workload can be generated")
	}
	return d, nil
}

// hasPredicableColumn reports whether some table has a column the workload
// generator can place a range predicate on (not a primary key, not an FK
// source, spanning more than one value) — the condition for workload
// generation to terminate.
func hasPredicableColumn(d *dataset.Dataset) bool {
	fkCols := map[[2]int]bool{}
	for _, fk := range d.FKs {
		fkCols[[2]int{fk.FromTable, fk.FromCol}] = true
	}
	for ti, t := range d.Tables {
		for ci, c := range t.Cols {
			if ci == t.PKCol || fkCols[[2]int{ti, ci}] {
				continue
			}
			if lo, hi := c.MinMax(); hi > lo {
				return true
			}
		}
	}
	return false
}

// handleDatasets onboards (or replaces) a dataset: validate, extract the
// feature graph, register any stored artifacts as cold-loadable models,
// publish the new tenant snapshot, record it in the tenant manifest, and
// (as primary) fan the request body out to the dataset's replica set.
func (s *server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	name, body, resp := s.onboardHeavy(w, r)
	if resp == nil {
		return
	}
	sent := s.replicate(r, name, body)
	writeJSON(w, http.StatusOK, resp)
	// Decoding copies what it keeps and the manifest copies what it
	// holds, so only a fan-out may still read the body: a client's
	// transport can write a request body after its response arrived.
	if !sent {
		s.bodies.give(body)
	}
}

// onboardHeavy is handleDatasets up to the replica fan-out, run inside
// the heavy admission class. The slot is released before the fan-out,
// which only waits on peers: a primary holding its slot while its
// replicas' slots are held by onboardings waiting on their own replicas
// convoys the fleet into shedding its replication. It answers failures
// itself and returns a nil response for them.
func (s *server) onboardHeavy(w http.ResponseWriter, r *http.Request) (string, []byte, *datasetResponse) {
	release, err := s.adm.AdmitHeavy()
	if err != nil {
		writeOverload(w, err)
		return "", nil, nil
	}
	defer release()
	// The heavy slot bounds how many onboarding bodies are read at once,
	// so this one may size its buffer from the declared length.
	var req datasetRequest
	body, ok := decodePost(w, r, &req, s.bodies.take(r.ContentLength))
	if !ok {
		return "", nil, nil
	}
	if !s.shardWriteOK(w, r, req.Name) {
		return "", nil, nil
	}
	// Failpoint "serve.onboard" injects an onboarding failure after decode
	// and before any state changes (the soak harness exercises it; panic
	// mode lands in the recovery middleware).
	if err := resilience.Failpoint("serve.onboard"); err != nil {
		writeError(w, http.StatusInternalServerError, "onboarding: "+err.Error())
		return "", nil, nil
	}
	resp, status, err := s.onboard(&req, body, false)
	if err != nil {
		writeError(w, status, err.Error())
		return "", nil, nil
	}
	return req.Name, body, resp
}

// replicate is the fan-out tail of a successful onboarding: when this
// shard is the dataset's primary, it sends the same request body to the
// rest of the replica set so they can serve reads, and reports whether it
// sent it anywhere. Replication fan-ins (requests already carrying
// X-Shard-Replicate) are never re-fanned.
func (s *server) replicate(r *http.Request, name string, body []byte) (sent bool) {
	if s.peers == nil || s.shard == nil || r.Header.Get(headerReplicate) != "" || !s.shard.owns(name) {
		return false
	}
	for _, peer := range s.shard.replicasOf(name) {
		if peer == s.shard.index {
			continue
		}
		sent = true
		if err := s.peers.replicate(r.Context(), peer, name, body); err != nil {
			// Best-effort: the replica serves 404s for this tenant until a
			// later onboarding reaches it; reads fail over to the primary.
			log.Printf("onboarding %q: replicating to shard %d failed: %v", name, peer, err)
		}
	}
	return sent
}

// onboard is the core of dataset onboarding, shared by the HTTP handler
// and manifest replay at startup; body is the payload req was decoded
// from. A live onboarding writes body to the manifest, under the tenant's
// handle lock so that the record on disk is always the payload of the
// generation published last; replay passes recorded, since its record is
// already on disk. It returns the HTTP status to pair with a non-nil
// error.
func (s *server) onboard(req *datasetRequest, body []byte, recorded bool) (*datasetResponse, int, error) {
	d, err := req.toDataset()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	g, err := feature.Extract(d, feature.DefaultConfig())
	// Feature extraction is the statistics view's only reader.
	dataset.InvalidateStats(d)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("extracting features: %w", err)
	}
	// One snapshot for the whole request: a concurrent republish between
	// the dimension check and the response would otherwise validate against
	// one encoder and report another's dimension.
	serving := s.adv.Serving()
	if inDim := serving.InDim(); len(g.V) > 0 && len(g.V[0]) != inDim {
		return nil, http.StatusBadRequest, fmt.Errorf(
			"dataset features have dimension %d, advisor's encoder expects %d", len(g.V[0]), inDim)
	}
	tn := &tenant{d: schemaOf(d), durable: recorded, graph: g, models: map[string]*servedModel{}}
	if s.manifest != nil {
		tn.record = sumOf(body)
	}
	// Only a primary trains, and a recovered tenant's record is durable.
	if !recorded && (s.shard == nil || s.shard.owns(d.Name)) {
		tn.rows = d
	}
	// Register persisted artifacts for this dataset name as cold-loadable
	// stubs, so a restarted server resumes serving estimates once the data
	// is back. Only the artifact wrapper is read here (schema fingerprint,
	// integrity, size) — the model itself decodes on first estimate, which
	// keeps onboarding hundreds of tenants cheap and lets the model cache,
	// not the onboarding path, decide what is resident. Artifacts whose
	// recorded schema does not match the onboarded dataset are skipped:
	// they were trained on a structurally different version of the data
	// and would index it wrongly.
	var stored []string
	if s.store != nil {
		schema := schemaSignature(d)
		entries, err := s.store.List()
		var newest time.Time
		if err == nil {
			for _, e := range entries {
				if e.Dataset != d.Name {
					continue
				}
				spec, ok := ce.Lookup(e.Model)
				if !ok {
					continue
				}
				artSchema, size, err := s.store.Info(e.Dataset, e.Model)
				if err != nil {
					// Corrupt or unreadable: the tenant onboards without
					// this model rather than failing.
					log.Printf("skipping unreadable artifact for (%s, %s): %v", e.Dataset, e.Model, err)
					continue
				}
				if artSchema != schema {
					continue
				}
				tn.models[e.Model] = newStubModel(spec, d.Name, schema, size)
				stored = append(stored, e.Model)
				// active tracks the most recently trained model, as it
				// does on the live /train path; artifact mtime is the
				// training order a restart can recover.
				if fi, err := os.Stat(e.Path); err == nil && (tn.active == "" || fi.ModTime().After(newest)) {
					newest = fi.ModTime()
					tn.active = e.Model
				}
			}
		}
		sort.Strings(stored)
		if tn.active == "" && len(stored) > 0 {
			tn.active = stored[0]
		}
	}

	h := s.fleet.getOrCreate(d.Name)
	h.mu.Lock()
	if !recorded && s.manifest != nil {
		// Best-effort: a failed write degrades restart durability, not
		// serving, and the tenant keeps its rows.
		if err := s.manifest.put(d.Name, body); err != nil {
			log.Printf("onboarding %q: manifest write failed (restart recovery degraded): %v", d.Name, err)
		} else {
			tn.durable = true
		}
	}
	if old := h.snap.Load(); old != nil {
		// Previously trained models describe the old data and are dropped
		// with it (stored artifacts above were re-registered explicitly).
		// forget, not evict: the old models' state must not be written
		// back over artifacts the new tenant generation now owns.
		for _, sm := range old.models {
			s.cache.forget(sm)
		}
	}
	h.snap.Store(tn)
	h.mu.Unlock()

	return &datasetResponse{
		Dataset: d.Name, Tables: d.NumTables(), Rows: d.TotalRows(),
		VertexDim: serving.InDim(), StoredModels: stored,
	}, http.StatusOK, nil
}

// recoverTenants replays the tenant manifest through the onboarding core:
// every dataset this shard still backs is re-onboarded (re-registering
// its stored artifacts as cold-loadable stubs), so a restarted shard
// resumes serving estimates with zero client action. Entries the shard no
// longer backs (a topology change between runs) are skipped but kept in
// the manifest. Records are read one at a time, so replay holds one
// tenant's payload at once. Failures are logged, not fatal: one bad
// record must not keep the rest of the fleet's tenants down.
func (s *server) recoverTenants() {
	recorded, recovered := 0, 0
	err := s.manifest.load(func(name string, payload []byte) {
		recorded++
		if s.shard != nil && !s.shard.backs(name) {
			return
		}
		var req datasetRequest
		if err := decodeBody(payload, &req); err != nil {
			log.Printf("manifest recovery: decoding %q: %v", name, err)
			return
		}
		if _, _, err := s.onboard(&req, payload, true); err != nil {
			log.Printf("manifest recovery: onboarding %q: %v", name, err)
			return
		}
		recovered++
	})
	if err != nil {
		log.Printf("WARNING: manifest recovery: %v", err)
	}
	if recorded > 0 {
		log.Printf("manifest recovery: re-onboarded %d of %d recorded tenants", recovered, recorded)
	}
}

// ------------------------------------------------------------------ train

type trainRequest struct {
	Dataset string `json:"dataset"`
	// Model names the registry model to train; empty means "train the
	// model the advisor recommends for this dataset under wa".
	Model      string   `json:"model"`
	Wa         *float64 `json:"wa"`          // recommendation weight when Model == "" (default 0.9; explicit 0 is honored)
	Queries    int      `json:"queries"`     // labeled workload size (default 160)
	SampleRows int      `json:"sample_rows"` // join-sample cap (default 800)
	Fast       *bool    `json:"fast"`        // reduced training budget (default true)
	Seed       int64    `json:"seed"`
}

type trainResponse struct {
	Dataset     string  `json:"dataset"`
	Model       string  `json:"model"`
	Recommended bool    `json:"recommended"` // model came from the advisor
	Wa          float64 `json:"wa,omitempty"`
	TrainMillis int64   `json:"train_millis"`
	Artifact    string  `json:"artifact,omitempty"`
}

func (s *server) handleTrain(w http.ResponseWriter, r *http.Request) {
	var req trainRequest
	if _, ok := decodePost(w, r, &req, nil); !ok {
		return
	}
	if !s.shardPrimaryOK(w, req.Dataset) {
		return
	}
	tn := s.fleet.tenant(req.Dataset)
	if tn == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("dataset %q is not onboarded (POST /datasets first)", req.Dataset))
		return
	}
	if req.Queries < 0 || req.Queries > maxTrainQueries {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("queries %d outside [0, %d]", req.Queries, maxTrainQueries))
		return
	}
	if req.SampleRows < 0 || req.SampleRows > maxSampleRows {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("sample_rows %d outside [0, %d]", req.SampleRows, maxSampleRows))
		return
	}
	if req.Wa != nil && (*req.Wa < 0 || *req.Wa > 1) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("wa %g outside [0,1]", *req.Wa))
		return
	}

	name := req.Model
	recommended := false
	wa := defaultWa
	if req.Wa != nil {
		wa = *req.Wa
	}
	if name == "" {
		rec := s.adv.Serving().Recommend(tn.graph, wa)
		// rec.Model indexes the candidate set (the advisor's label space),
		// not the registry; translate before looking the model up.
		n, ok := testbed.CandidateModelName(rec.Model)
		if !ok {
			writeError(w, http.StatusInternalServerError, "advisor returned no usable recommendation")
			return
		}
		name = n
		recommended = true
	}
	spec, ok := ce.Lookup(name)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("model %q is not registered (see GET /models)", name))
		return
	}
	if spec.Kind == ce.Composite {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("model %q is composite; train its members instead", name))
		return
	}

	cfg := testbed.Config{NumQueries: 160, SampleRows: 800, Fast: true, Seed: req.Seed}
	if req.Queries > 0 {
		cfg.NumQueries = req.Queries
	}
	if req.SampleRows > 0 {
		cfg.SampleRows = req.SampleRows
	}
	if req.Fast != nil {
		cfg.Fast = *req.Fast
	}

	// Bounded single-flight training: at most one Fit runs at a time, at
	// most TrainQueue requests wait for the slot (429 beyond that), and
	// the wait itself is bounded by the request deadline.
	release, err := s.adm.AdmitTrain(r.Context())
	if err != nil {
		writeOverload(w, err)
		return
	}

	t0 := time.Now()
	ctx := r.Context()
	rows, err := s.trainRows(tn)
	if err != nil {
		release()
		// A re-onboarding writes its record before it publishes, under
		// the handle lock: wait that out, then tell a replaced record (the
		// same conflict as a replacement during training) from a lost one.
		s.fleet.settle(req.Dataset)
		if cur := s.fleet.tenant(req.Dataset); cur == nil || cur.d != tn.d {
			writeReplaced(w, req.Dataset)
			return
		}
		writeError(w, http.StatusInternalServerError, fmt.Sprintf(
			"dataset %q: reading its rows back from the tenant manifest: %v; re-onboard it (POST /datasets)", req.Dataset, err))
		return
	}
	in, err := testbed.NewTrainInputForCtx(ctx, rows, cfg, spec.Kind)
	// Only staging reads the join index (workload labeling, the join
	// sample, the subset sizes); Fit and every read endpoint do not. Drop
	// it, whether staging finished or not, so resident rows are only
	// data; the next /train rebuilds what it reads.
	engine.InvalidateIndex(rows)
	if err != nil {
		release()
		if errors.Is(err, engine.ErrJoinTooLarge) {
			// The tenant's schema joins to more rows than the sampler
			// materializes; retrying cannot help.
			writeError(w, http.StatusBadRequest, fmt.Sprintf("dataset %q: %v", req.Dataset, err))
			return
		}
		writeDeadline(w, "training (input staging)", err)
		return
	}
	m := spec.New(ce.Config{Fast: cfg.Fast, Seed: cfg.Seed})
	// Fit runs in its own goroutine behind a panic fence, so the handler
	// can answer the deadline without waiting for the trainer's next
	// cancellation checkpoint; the abandoned goroutine observes in.Ctx at
	// its epoch boundaries and winds down on its own.
	done := make(chan error, 1)
	//autoce:ignore barego -- Fit runs behind resilience.Guard so the handler can answer the deadline first
	go func() { done <- resilience.Guard("train:"+name, func() error { return m.Fit(in) }) }()
	select {
	case err := <-done:
		release()
		var pe *resilience.PanicError
		switch {
		case errors.As(err, &pe):
			log.Printf("training %s panicked: %v\n%s", name, pe.Value, pe.Stack)
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("training %s: internal error", name))
			return
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			writeDeadline(w, "training "+name, err)
			return
		case err != nil:
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("training %s: %v", name, err))
			return
		}
	case <-ctx.Done():
		// Keep the single-flight slot held until the abandoned trainer
		// actually reaches a checkpoint and stops — the next train must
		// not start while this one is still burning CPU.
		//autoce:ignore barego -- waits out the abandoned trainer after its request has returned
		go func() { <-done; release() }()
		writeDeadline(w, "training "+name, context.Cause(ctx))
		return
	}
	elapsed := time.Since(t0)

	resp := trainResponse{
		Dataset: req.Dataset, Model: name, Recommended: recommended,
		TrainMillis: elapsed.Milliseconds(),
	}
	if recommended {
		resp.Wa = wa
	}

	// Publish under this tenant's handle lock — no other tenant observes
	// anything. The model was trained against the generation captured in
	// tn; if the dataset was replaced mid-training (same name, different
	// data — tenant clones share the schema pointer d, replacements do
	// not), both publishing the stale model and persisting its artifact
	// would leak a model indexed for data the tenant no longer holds, so
	// conflict instead. The artifact write happens under the same lock as
	// the generation check: a replacement cannot slip between validation
	// and persistence.
	h := s.fleet.getOrCreate(req.Dataset)
	h.mu.Lock()
	cur := h.snap.Load()
	if cur == nil || cur.d != tn.d {
		h.mu.Unlock()
		writeReplaced(w, req.Dataset)
		return
	}
	// Forget the superseded model before writing the new artifact, so a
	// cold load of it cannot page in its successor's artifact.
	old := cur.models[name]
	if old != nil {
		s.cache.forget(old)
	}
	var size int64
	if s.store != nil {
		path, err := s.store.Save(req.Dataset, schemaSignature(tn.d), m)
		if err != nil {
			if old != nil {
				s.cache.unforget(old) // the old model resumes serving
			}
			h.mu.Unlock()
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("persisting %s: %v", name, err))
			return
		}
		resp.Artifact = path
		if fi, err := os.Stat(path); err == nil {
			size = fi.Size()
		}
	}
	sm := newServedModel(spec, m, req.Dataset, schemaSignature(tn.d))
	s.cache.install(sm, size)
	nt := cur.clone()
	nt.models[name] = sm
	nt.active = name
	if nt.durable {
		nt.rows = nil // the next /train reads the record back
	}
	h.snap.Store(nt)
	h.mu.Unlock()

	writeJSON(w, http.StatusOK, resp)
}

// writeReplaced answers a /train whose tenant was re-onboarded while it
// ran.
func writeReplaced(w http.ResponseWriter, ds string) {
	writeError(w, http.StatusConflict, fmt.Sprintf("dataset %q was replaced during training; re-train against the new data", ds))
}

// trainRows returns the rows /train stages tn from: the resident ones,
// or else the tenant's manifest record, decoded by onboarding's strict
// path (decodeTenantRecord, decodeBody, toDataset). The record must hold
// this generation's payload, by length and CRC-32C, and decode to its
// schema; a missing, torn or quarantined record, or one a re-onboarding
// has since replaced, is an error, so /train never stages another
// generation's or another tenant's rows.
func (s *server) trainRows(tn *tenant) (*dataset.Dataset, error) {
	if tn.rows != nil {
		return tn.rows, nil
	}
	if !tn.durable || s.manifest == nil {
		return nil, errors.New("this shard holds neither its rows nor a manifest record of them")
	}
	payload, err := s.manifest.read(tn.d.Name)
	if err != nil {
		return nil, err
	}
	if sumOf(payload) != tn.record {
		return nil, errors.New("the record holds another generation's payload")
	}
	var req datasetRequest
	if err := decodeBody(payload, &req); err != nil {
		return nil, fmt.Errorf("decoding the record: %w", err)
	}
	d, err := req.toDataset()
	if err != nil {
		return nil, fmt.Errorf("decoding the record: %w", err)
	}
	if !sameSchema(d, tn.d) {
		return nil, errors.New("the record decodes to another schema")
	}
	return d, nil
}

// --------------------------------------------------------------- estimate

type queryPayload struct {
	Tables []int         `json:"tables"`
	Joins  []joinPayload `json:"joins"`
	Preds  []predPayload `json:"preds"`
}

type joinPayload struct {
	LeftTable  int `json:"left_table"`
	LeftCol    int `json:"left_col"`
	RightTable int `json:"right_table"`
	RightCol   int `json:"right_col"`
}

type predPayload struct {
	Table int   `json:"table"`
	Col   int   `json:"col"`
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
}

// toQueries converts payloads into queries validated against d, or
// returns the error of the first payload that is null or invalid. The
// queries share one backing array each for themselves, their joins and
// their predicates, so a batch costs the same few allocations whatever
// its size.
func toQueries(d *dataset.Dataset, payloads []*queryPayload) ([]*workload.Query, error) {
	var nj, np int
	for _, p := range payloads {
		if p != nil {
			nj, np = nj+len(p.Joins), np+len(p.Preds)
		}
	}
	qv := make([]workload.Query, len(payloads))
	qs := make([]*workload.Query, len(payloads))
	joins := make([]engine.Join, 0, nj)
	preds := make([]engine.Predicate, 0, np)
	for i, p := range payloads {
		if p == nil {
			return nil, fmt.Errorf("query %d is null", i)
		}
		q := &qv[i]
		q.Tables, q.TrueCard = p.Tables, -1
		if len(p.Joins) > 0 {
			for _, j := range p.Joins {
				joins = append(joins, engine.Join{
					LeftTable: j.LeftTable, LeftCol: j.LeftCol,
					RightTable: j.RightTable, RightCol: j.RightCol,
				})
			}
			q.Joins = joins[len(joins)-len(p.Joins) : len(joins) : len(joins)]
		}
		if len(p.Preds) > 0 {
			for _, pr := range p.Preds {
				preds = append(preds, engine.Predicate{Table: pr.Table, Col: pr.Col, Lo: pr.Lo, Hi: pr.Hi})
			}
			q.Preds = preds[len(preds)-len(p.Preds) : len(preds) : len(preds)]
		}
		if len(q.Tables) == 0 {
			return nil, fmt.Errorf("query %d: query lists no tables", i)
		}
		if err := q.Validate(d); err != nil {
			return nil, fmt.Errorf("query %d: %v", i, err)
		}
		qs[i] = q
	}
	return qs, nil
}

type estimateRequest struct {
	Dataset string `json:"dataset"`
	// Model selects among the dataset's trained models; empty uses the
	// most recently trained one.
	Model   string          `json:"model"`
	Query   *queryPayload   `json:"query"`
	Queries []*queryPayload `json:"queries"`
}

type estimateResponse struct {
	Dataset   string    `json:"dataset"`
	Model     string    `json:"model"`
	Estimate  float64   `json:"estimate,omitempty"` // single-query form
	Estimates []float64 `json:"estimates"`
}

func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req estimateRequest
	if _, ok := decodePost(w, r, &req, nil); !ok {
		return
	}
	if !s.shardReadOK(w, req.Dataset) {
		return
	}
	if s.estimateSnapshot(w, r, &req, true) {
		// The resolved model was retrained or re-onboarded before its
		// estimate ran: wait for that republish to land, then resolve the
		// snapshot that replaced it and try once more, validating the
		// queries against its dataset.
		s.fleet.settle(req.Dataset)
		s.estimateSnapshot(w, r, &req, false)
	}
}

// estimateSnapshot resolves req's tenant snapshot and served model once,
// validates the queries against that snapshot's dataset, estimates them
// and answers. The one exception: when the model was superseded
// mid-request and retry is set, it answers nothing and reports true, so
// the caller can run it again against the current snapshot.
func (s *server) estimateSnapshot(w http.ResponseWriter, r *http.Request, req *estimateRequest, retry bool) (superseded bool) {
	tn := s.fleet.tenant(req.Dataset)
	if tn == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("dataset %q is not onboarded", req.Dataset))
		return false
	}
	if (req.Query == nil) == (len(req.Queries) == 0) {
		writeError(w, http.StatusBadRequest, "provide exactly one of \"query\" or \"queries\"")
		return false
	}
	name := req.Model
	if name == "" {
		name = tn.active
	}
	if name == "" {
		writeError(w, http.StatusConflict, fmt.Sprintf("dataset %q has no trained model (POST /train first)", req.Dataset))
		return false
	}
	sm, ok := tn.models[name]
	if !ok {
		// Replica path: the model may have been trained by the primary
		// after this shard onboarded the tenant. Probe the shared artifact
		// store and register a cold-loadable stub on the fly.
		if sm = s.discoverStored(req.Dataset, name); sm == nil {
			writeError(w, http.StatusNotFound, fmt.Sprintf("no trained %q model for dataset %q", name, req.Dataset))
			return false
		}
	}

	payloads := req.Queries
	if req.Query != nil {
		payloads = []*queryPayload{req.Query}
	}
	if len(payloads) > maxBatchQueries {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d exceeds %d queries", len(payloads), maxBatchQueries))
		return false
	}
	qs, err := toQueries(tn.d, payloads)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return false
	}

	// Admit into the cheap class at batch weight, so one huge batch
	// competes fairly with many small ones (AdmitCheap clamps oversized
	// weights to the class capacity).
	release, err := s.adm.AdmitCheap(r.Context(), int64(len(qs)))
	if err != nil {
		writeOverload(w, err)
		return false
	}
	ests, err := sm.estimate(r.Context(), s.cache, qs)
	release()
	switch {
	case errors.Is(err, errModelQuarantined):
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("model %q for dataset %q is quarantined after an inference panic; POST /train to restore it", name, req.Dataset))
		return false
	case errors.Is(err, errModelSuperseded) && retry:
		return true
	case errors.Is(err, errModelSuperseded):
		w.Header().Set("Retry-After", "0")
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("model %q for dataset %q was retrained mid-request; retry against the new model", name, req.Dataset))
		return false
	case err != nil:
		writeDeadline(w, "estimate", err)
		return false
	}
	resp := estimateResponse{Dataset: req.Dataset, Model: name, Estimates: ests}
	if req.Query != nil {
		resp.Estimate = ests[0]
	}
	writeEstimate(w, &resp)
	return false
}

// discoverStored registers a cold-loadable stub for an artifact another
// shard (the primary) wrote to the shared store after this shard
// onboarded the tenant — the lazy path by which trained models reach
// replicas without any fan-out. Returns nil when no matching, schema-
// compatible artifact exists. Only the artifact wrapper is read; the
// model decodes through the model cache on first estimate, exactly like
// a restart's cold load.
func (s *server) discoverStored(dsName, model string) *servedModel {
	if s.store == nil {
		return nil
	}
	spec, ok := ce.Lookup(model)
	if !ok || spec.Kind == ce.Composite {
		return nil
	}
	h := s.fleet.getOrCreate(dsName)
	h.mu.Lock()
	defer h.mu.Unlock()
	tn := h.snap.Load()
	if tn == nil {
		return nil
	}
	if sm := tn.models[model]; sm != nil {
		return sm // another request discovered it first
	}
	schema := schemaSignature(tn.d)
	artSchema, size, err := s.store.Info(dsName, model)
	if err != nil || artSchema != schema {
		return nil
	}
	sm := newStubModel(spec, dsName, schema, size)
	nt := tn.clone()
	nt.models[model] = sm
	if nt.active == "" {
		nt.active = model
	}
	h.snap.Store(nt)
	return sm
}

// ----------------------------------------------------------------- models

type modelInfo struct {
	Name      string `json:"name"`
	Kind      string `json:"kind"`
	Candidate bool   `json:"candidate"`
}

type trainedInfo struct {
	Dataset string `json:"dataset"`
	Model   string `json:"model"`
	Active  bool   `json:"active"`
	// Residency is the paging state: "loaded" (decoded in memory),
	// "evicted" (cold-loadable from the artifact store on next estimate),
	// or "quarantined" (failing fast until retrained).
	Residency string `json:"residency"`
	SizeBytes int64  `json:"size_bytes,omitempty"` // artifact byte cost
}

type modelsResponse struct {
	Models  []modelInfo   `json:"models"`
	Trained []trainedInfo `json:"trained"`
	// Cache reports the model cache's budget utilization and paging
	// counters.
	Cache cacheStats `json:"cache"`
}

// handleModels lists the registry, the trained models per dataset with
// their cache residency, and the cache's budget utilization.
func (s *server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	resp := modelsResponse{Trained: []trainedInfo{}, Cache: s.cache.stats()}
	for _, spec := range ce.Specs() {
		resp.Models = append(resp.Models, modelInfo{
			Name: spec.Name, Kind: spec.Kind.String(), Candidate: spec.Candidate,
		})
	}
	tenants := s.fleet.snapshot()
	var dsNames []string
	for name := range tenants {
		dsNames = append(dsNames, name)
	}
	sort.Strings(dsNames)
	for _, dn := range dsNames {
		tn := tenants[dn]
		var mNames []string
		for mn := range tn.models {
			mNames = append(mNames, mn)
		}
		sort.Strings(mNames)
		for _, mn := range mNames {
			sm := tn.models[mn]
			resident, size := s.cache.residency(sm)
			res := "loaded"
			switch {
			case sm.quarantined.Load():
				res = "quarantined"
			case !resident:
				res = "evicted"
			}
			resp.Trained = append(resp.Trained, trainedInfo{
				Dataset: dn, Model: mn, Active: mn == tn.active,
				Residency: res, SizeBytes: size,
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
