package ce

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/workload"
)

// Kind classifies how an estimator trains, mirroring the paper's taxonomy
// (Section II): query-driven models learn from labeled queries, data-driven
// models from a sample of the full join, hybrid models from both, and
// composite models are assembled from other trained estimators (the
// ensemble baseline).
type Kind int

// The training taxonomy.
const (
	QueryDriven Kind = iota
	DataDriven
	Hybrid
	Composite
)

// Valid reports whether k is one of the defined kinds.
func (k Kind) Valid() bool { return k >= QueryDriven && k <= Composite }

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case QueryDriven:
		return "query-driven"
	case DataDriven:
		return "data-driven"
	case Hybrid:
		return "hybrid"
	case Composite:
		return "composite"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config carries the run-level knobs shared by the whole zoo. Each model
// package derives its own configuration from it (training budget under
// Fast, its historical per-model seed offset), so one value configures any
// registered estimator.
type Config struct {
	// Fast shrinks the neural models' training budget, the regime used by
	// unit tests and the quick experiment scale.
	Fast bool
	// Seed is the run seed; models derive their private RNG seeds from it.
	Seed int64
}

// TrainInput bundles everything any model kind consumes; a model's Spec
// Kind declares which fields it reads. All fields are shared read-only
// state: distinct models may Fit concurrently from one TrainInput.
type TrainInput struct {
	// Dataset is the dataset being modeled (all kinds).
	Dataset *dataset.Dataset
	// Sample is a row sample of the full join (data-driven and hybrid).
	Sample *engine.JoinSample
	// Queries are labeled training queries (query-driven and hybrid;
	// calibration workload for composite models).
	Queries []*workload.Query
	// Sizes is the precomputed connected-subset join-size table shared
	// across the data-driven models; when nil, models that need it compute
	// their own.
	Sizes *SubsetSizes
	// Members are the trained estimators a composite model combines.
	Members []Estimator
	// Ctx, when non-nil, bounds the training run. Long-running Fit
	// implementations poll Canceled at their outer loops (per epoch, per
	// boosting round) and return its error to abandon training
	// cooperatively; a nil Ctx trains to completion as before.
	Ctx context.Context
}

// Canceled returns the context error when the TrainInput carries a
// canceled or expired context, nil otherwise. Fit implementations call it
// at iteration boundaries — cheap enough for per-epoch granularity, and a
// no-op for inputs without a context.
func (in *TrainInput) Canceled() error {
	if in.Ctx == nil {
		return nil
	}
	return context.Cause(in.Ctx)
}

// Estimator is a trained cardinality estimator: the serving surface.
type Estimator interface {
	// Name returns the model's registry name (e.g. "MSCN").
	Name() string
	// Estimate returns the estimated cardinality of q (always >= 1).
	Estimate(q *workload.Query) float64
	// EstimateBatch estimates a batch of queries, returning one estimate
	// per query in order. Implementations produce bit-identical values to
	// per-query Estimate calls, running the batch in parallel or as one
	// vectorized pass (the serving hot path). Estimate and EstimateBatch
	// are safe for concurrent use, and an estimate is a pure function of
	// the trained model and the query.
	EstimateBatch(qs []*workload.Query) []float64
}

// Model is the unified lifecycle interface of the zoo: one Fit for every
// training mode, replacing the historical TrainData/TrainQueries/TrainBoth
// triple and its dispatch type-switch.
type Model interface {
	Estimator
	// Fit trains the model from in. Which TrainInput fields are consumed is
	// declared by the model's registered Kind.
	Fit(in *TrainInput) error
}

// Spec describes one registered estimator.
type Spec struct {
	// Rank fixes the model's position in the registry (ascending). The
	// paper's nine baselines occupy ranks 0-8 in the Section VII-A order;
	// new estimators pick any unused rank.
	Rank int
	// Name is the unique display name.
	Name string
	// Kind declares the training mode (which TrainInput fields Fit reads).
	Kind Kind
	// Candidate marks members of the paper's candidate set M — the models
	// the advisor selects among. Non-candidates (Postgres, Ensemble) are
	// measured for the figure/table comparisons only.
	Candidate bool
	// Concurrent once marked the models whose Estimate was safe for
	// concurrent use; every model's is now, and nothing in this module
	// reads the field.
	//
	// Deprecated: it keeps its historical values (false for NeuroCard,
	// UAE and Ensemble) only for the perfbench module, which still
	// branches on it, and goes once perfbench compares every model's
	// answers.
	Concurrent bool
	// New constructs an untrained instance configured for c.
	New func(c Config) Model
}

// registry is the process-wide model zoo, populated by the model packages'
// init functions (import repro/internal/ce/zoo to register the full set).
var registry struct {
	sync.RWMutex
	specs []Spec
}

// Register adds a spec to the registry, keeping specs ordered by Rank. It
// panics on an empty name, an invalid kind, a nil constructor, or a
// duplicate name or rank — registration happens at init time, where a
// panic is an immediate, attributable build error.
func Register(s Spec) {
	if s.Name == "" {
		panic("ce: Register with empty name")
	}
	if !s.Kind.Valid() {
		panic(fmt.Sprintf("ce: Register %q with invalid kind %d", s.Name, int(s.Kind)))
	}
	if s.New == nil {
		panic(fmt.Sprintf("ce: Register %q with nil constructor", s.Name))
	}
	registry.Lock()
	defer registry.Unlock()
	for _, e := range registry.specs {
		if e.Name == s.Name {
			panic(fmt.Sprintf("ce: duplicate registration of %q", s.Name))
		}
		if e.Rank == s.Rank {
			panic(fmt.Sprintf("ce: %q and %q both registered at rank %d", e.Name, s.Name, s.Rank))
		}
	}
	registry.specs = append(registry.specs, s)
	sort.SliceStable(registry.specs, func(i, j int) bool {
		return registry.specs[i].Rank < registry.specs[j].Rank
	})
}

// Specs returns the registered specs in rank order (a copy).
func Specs() []Spec {
	registry.RLock()
	defer registry.RUnlock()
	return append([]Spec(nil), registry.specs...)
}

// NumModels returns the registry size.
func NumModels() int {
	registry.RLock()
	defer registry.RUnlock()
	return len(registry.specs)
}

// Names returns the registry names in rank order.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, len(registry.specs))
	for i, s := range registry.specs {
		out[i] = s.Name
	}
	return out
}

// Lookup returns the spec registered under name.
func Lookup(name string) (Spec, bool) {
	registry.RLock()
	defer registry.RUnlock()
	for _, s := range registry.specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Index returns the registry index (rank order) of name, or -1.
func Index(name string) int {
	registry.RLock()
	defer registry.RUnlock()
	for i, s := range registry.specs {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// CandidateIndexes returns the registry indexes of the candidate set M in
// rank order.
func CandidateIndexes() []int {
	registry.RLock()
	defer registry.RUnlock()
	var out []int
	for i, s := range registry.specs {
		if s.Candidate {
			out = append(out, i)
		}
	}
	return out
}

// NumCandidates returns |M|, the candidate-set size.
func NumCandidates() int { return len(CandidateIndexes()) }

// CandidatePos returns the position of registry index ri inside the
// candidate set — the advisor's label/score space — or -1 when ri is not
// a candidate. While the candidates occupy the registry prefix the two
// index spaces coincide; consumers translating between them through this
// helper stay correct if a non-prefix candidate is ever registered.
func CandidatePos(ri int) int {
	for pos, ci := range CandidateIndexes() {
		if ci == ri {
			return pos
		}
	}
	return -1
}

// CandidateIndexesOfKind returns the registry indexes of candidate models
// of kind k, in rank order — the sets the rule-based selection baseline and
// the CEB (query-driven only) experiment derive from the registry.
func CandidateIndexesOfKind(k Kind) []int {
	registry.RLock()
	defer registry.RUnlock()
	var out []int
	for i, s := range registry.specs {
		if s.Candidate && s.Kind == k {
			out = append(out, i)
		}
	}
	return out
}

// NewModels instantiates the full registry (rank order) for one run
// configuration. Composite models come back untrained like every other
// entry; they are fitted after their members (see testbed.Prepared.Finish).
func NewModels(c Config) []Model {
	specs := Specs()
	out := make([]Model, len(specs))
	for i, s := range specs {
		out[i] = s.New(c)
	}
	return out
}

// NewCandidates instantiates the candidate set M (rank order) for one run
// configuration: the models the advisor learns to select among, without
// the comparison-only baselines.
func NewCandidates(c Config) []Model {
	var out []Model
	for _, s := range Specs() {
		if s.Candidate {
			out = append(out, s.New(c))
		}
	}
	return out
}
