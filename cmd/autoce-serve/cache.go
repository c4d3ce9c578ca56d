package main

// The budgeted model cache: the paging layer between the per-tenant
// serving snapshots and the ce.Store artifact directory. The fleet design
// point is thousands of onboarded tenant datasets whose trained models do
// not all fit in memory; the cache keeps a bounded working set resident
// (LRU, capped by model count) and pages the rest through the store:
//
//   - Train installs the fresh model as resident (its artifact was just
//     persisted, so it is immediately evictable).
//   - Onboarding registers stored artifacts as cold-loadable stubs via
//     Store.Info — schema-checked and size-costed without paying the gob
//     decode — so onboarding N tenants is O(N) stat-sized, not O(N)
//     model-decode-sized.
//   - The first estimate against an evicted model cold-loads it
//     transparently (single-flight per model; concurrent estimators wait
//     for one load rather than thundering the store).
//   - Eviction drops the least-recently-used unpinned model. Inference
//     never changes a model (sampling models draw a fresh stream per
//     query), so the stored artifact is always current and the cold load
//     that follows answers bit for bit as the evicted model did.
//   - Quarantine flags live outside the residency state: an evicted
//     quarantined model stays quarantined (the flag is on the servedModel,
//     which snapshots share).
//
// Without a store the cache never evicts (there is nowhere to page to);
// without a budget it is an accounting layer only.

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"repro/internal/ce"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// servedModel is one trained (dataset, model) pair published in a tenant's
// serving snapshot. Its identity and guards are immutable; its residency
// state (model, size, pins, elem, gone) is owned by the modelCache and
// guarded by the cache's mutex.
type servedModel struct {
	spec   ce.Spec
	tenant string // dataset name: the store key this model pages under
	schema string // schema fingerprint of the dataset it was trained on
	// quarantined marks a model whose inference panicked. Snapshot clones
	// share servedModel pointers, so the flag survives republishes of
	// other models — and eviction/cold-load cycles — and clears only when
	// this (dataset, model) pair is retrained, which replaces the
	// servedModel wholesale.
	quarantined atomic.Bool
	// loadMu single-flights cold loads of this model.
	loadMu sync.Mutex

	// Residency, guarded by the owning modelCache's mu.
	model ce.Model      // nil while evicted
	size  int64         // artifact bytes, reported as resident_bytes and /models size_bytes
	pins  int           // in-flight estimates; evictable only at 0
	elem  *list.Element // LRU position; nil while evicted
	gone  bool          // superseded by retrain/re-onboard; never resurrect
}

func newServedModel(spec ce.Spec, m ce.Model, tenantName, schema string) *servedModel {
	return &servedModel{spec: spec, model: m, tenant: tenantName, schema: schema}
}

// newStubModel registers a stored artifact as cold-loadable without
// decoding it: the model pointer stays nil until the first estimate pages
// it in.
func newStubModel(spec ce.Spec, tenantName, schema string, size int64) *servedModel {
	sm := newServedModel(spec, nil, tenantName, schema)
	sm.size = size
	return sm
}

// errModelQuarantined reports inference against a model whose earlier
// inference panicked; only retraining clears it.
var errModelQuarantined = errors.New("model is quarantined after an inference panic; retrain it")

// errModelSuperseded reports that the model resolved from a snapshot was
// replaced (retrain or re-onboard) before its estimate ran; the caller
// should re-resolve the current snapshot and retry.
var errModelSuperseded = errors.New("model was superseded mid-request; retry")

// estimate runs the batched hot path against the (possibly cold-loaded)
// model, fenced: a panic inside this model's inference is
// converted to an error and quarantines the model — subsequent estimates
// against it fail fast with 503 while every other served model keeps
// answering. The context bounds the batch (chunked, cooperative).
func (sm *servedModel) estimate(ctx context.Context, cache *modelCache, qs []*workload.Query) ([]float64, error) {
	if sm.quarantined.Load() {
		return nil, errModelQuarantined
	}
	m, err := cache.acquire(sm)
	if err != nil {
		return nil, err
	}
	defer cache.release(sm)
	var out []float64
	err = resilience.Guard("estimate:"+sm.spec.Name, func() error {
		var err error
		out, err = ce.EstimateBatchContext(ctx, m, qs)
		return err
	})
	var pe *resilience.PanicError
	if errors.As(err, &pe) {
		sm.quarantined.Store(true)
		log.Printf("quarantining model %s/%s after inference panic: %v\n%s", sm.tenant, sm.spec.Name, pe.Value, pe.Stack)
		return nil, errModelQuarantined
	}
	return out, err
}

// modelCache is the LRU paging layer. All residency mutations happen under
// mu; no store I/O does (cold loads run outside it, and eviction only
// drops the decoded model).
type modelCache struct {
	store     *ce.Store // nil: nothing to page to; the cache never evicts
	maxModels int       // 0 = unlimited

	mu    sync.Mutex
	lru   *list.List // of *servedModel; front = most recently used
	count int
	bytes int64

	coldLoads atomic.Int64
	evictions atomic.Int64
}

func newModelCache(store *ce.Store, maxModels int) *modelCache {
	return &modelCache{store: store, maxModels: maxModels, lru: list.New()}
}

// acquire returns sm's model, resident and pinned against eviction
// (release must follow), cold-loading from the store if it was paged out.
func (c *modelCache) acquire(sm *servedModel) (ce.Model, error) {
	c.mu.Lock()
	if sm.gone {
		c.mu.Unlock()
		return nil, errModelSuperseded
	}
	if sm.model != nil {
		sm.pins++
		if sm.elem != nil {
			c.lru.MoveToFront(sm.elem)
		}
		m := sm.model
		c.mu.Unlock()
		return m, nil
	}
	c.mu.Unlock()
	return c.coldLoad(sm)
}

// coldLoad pages sm in from the store, single-flighted per model: the
// first caller decodes, the rest inherit the resident model.
func (c *modelCache) coldLoad(sm *servedModel) (ce.Model, error) {
	sm.loadMu.Lock()
	defer sm.loadMu.Unlock()
	// Re-check residency: a concurrent caller may have finished the load
	// while this one waited for loadMu.
	c.mu.Lock()
	if sm.gone {
		c.mu.Unlock()
		return nil, errModelSuperseded
	}
	if sm.model != nil {
		sm.pins++
		if sm.elem != nil {
			c.lru.MoveToFront(sm.elem)
		}
		m := sm.model
		c.mu.Unlock()
		return m, nil
	}
	c.mu.Unlock()

	if c.store == nil {
		return nil, fmt.Errorf("model %s for dataset %s is not resident and no artifact store is configured", sm.spec.Name, sm.tenant)
	}
	m, schema, err := c.store.Load(sm.tenant, sm.spec.Name)
	if err != nil {
		return nil, fmt.Errorf("cold-loading %s/%s: %w", sm.tenant, sm.spec.Name, err)
	}
	if schema != sm.schema {
		// The artifact was rewritten (another process, an operator) for a
		// structurally different dataset; serving it would index the
		// tenant's data wrongly.
		return nil, fmt.Errorf("artifact for %s/%s records schema %q, tenant expects %q", sm.tenant, sm.spec.Name, schema, sm.schema)
	}
	c.coldLoads.Add(1)

	c.mu.Lock()
	if sm.gone {
		c.mu.Unlock()
		return nil, errModelSuperseded
	}
	sm.model = m
	sm.pins++
	c.count++
	c.bytes += sm.size
	sm.elem = c.lru.PushFront(sm)
	c.evictLocked()
	c.mu.Unlock()
	return m, nil
}

// release unpins sm after an estimate.
func (c *modelCache) release(sm *servedModel) {
	c.mu.Lock()
	sm.pins--
	if sm.gone && sm.pins == 0 {
		sm.model = nil
	}
	// The release may have made an over-budget cache evictable again.
	c.evictLocked()
	c.mu.Unlock()
}

// install publishes a freshly trained model as resident. size is the
// persisted artifact's byte cost (0 when no store is configured — the
// model is then unevictable anyway).
func (c *modelCache) install(sm *servedModel, size int64) {
	c.mu.Lock()
	sm.size = size
	c.count++
	c.bytes += size
	sm.elem = c.lru.PushFront(sm)
	c.evictLocked()
	c.mu.Unlock()
}

// forget removes a superseded model from the cache: its artifact slot now
// belongs to a successor.
func (c *modelCache) forget(sm *servedModel) {
	c.mu.Lock()
	sm.gone = true
	if sm.elem != nil {
		c.lru.Remove(sm.elem)
		sm.elem = nil
		c.count--
		c.bytes -= sm.size
	}
	if sm.pins == 0 {
		sm.model = nil
	}
	c.mu.Unlock()
}

// unforget reverses a forget that turned out to be premature (the
// successor's artifact write failed): the old model resumes serving.
func (c *modelCache) unforget(sm *servedModel) {
	c.mu.Lock()
	sm.gone = false
	if sm.model != nil && sm.elem == nil {
		c.count++
		c.bytes += sm.size
		sm.elem = c.lru.PushFront(sm)
		c.evictLocked()
	}
	c.mu.Unlock()
}

// evictLocked pages out least-recently-used unpinned models until the
// cache is back under budget. Called with c.mu held.
func (c *modelCache) evictLocked() {
	if c.store == nil || c.maxModels <= 0 {
		return
	}
	for c.count > c.maxModels {
		var victim *servedModel
		for e := c.lru.Back(); e != nil; e = e.Prev() {
			sm := e.Value.(*servedModel)
			if sm.pins == 0 {
				victim = sm
				break
			}
		}
		if victim == nil {
			return // everything pinned; the next release retries
		}
		c.lru.Remove(victim.elem)
		victim.elem = nil
		victim.model = nil
		c.count--
		c.bytes -= victim.size
		c.evictions.Add(1)
	}
}

// residency reports whether sm currently holds a decoded model, and its
// artifact byte cost.
func (c *modelCache) residency(sm *servedModel) (resident bool, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return sm.model != nil, sm.size
}

// cacheStats is a point-in-time view of the paging layer for /models and
// /healthz.
type cacheStats struct {
	BudgetModels   int   `json:"budget_models,omitempty"`
	ResidentModels int   `json:"resident_models"`
	ResidentBytes  int64 `json:"resident_bytes"`
	ColdLoads      int64 `json:"cold_loads"`
	Evictions      int64 `json:"evictions"`
}

func (c *modelCache) stats() cacheStats {
	c.mu.Lock()
	count, bytes := c.count, c.bytes
	c.mu.Unlock()
	return cacheStats{
		BudgetModels:   c.maxModels,
		ResidentModels: count,
		ResidentBytes:  bytes,
		ColdLoads:      c.coldLoads.Load(),
		Evictions:      c.evictions.Load(),
	}
}
