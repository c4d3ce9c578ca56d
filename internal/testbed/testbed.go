// Package testbed implements the paper's unified cardinality-estimation
// testbed (Section IV-B): it labels a dataset by training a model set on
// a workload with true cardinalities acquired from the execution engine,
// measuring mean Q-error and mean inference latency on the testing
// queries via the batched estimation path, and normalizing the
// measurements over the run's candidates into score vectors (Eq. 2-4) —
// the labels that AutoCE's graph encoder learns from.
//
// There is one labeling path, Prepare/PrepareCandidates/PrepareModels →
// TrainModel (or TrainAll) → Finish, and every run is defined by three
// things:
//
//   - the model set: the full registry (Prepare), the candidate set M
//     (PrepareCandidates, what the advisor paths label) or any caller's
//     []ce.Model (PrepareModels) — a newly emerged estimator only has to
//     implement ce.Model to be labeled, registering it joins the zoo;
//   - the workload: generated and oracle-labeled (Prepare,
//     PrepareCandidates) or supplied, such as the CEB template workload
//     of Table III (PrepareModels);
//   - the candidate rule: a model is a candidate unless the registry
//     lists it with Candidate: false, and a model the registry does not
//     list is a candidate being onboarded. Sa/Se normalize over the
//     candidates, and composite models combine them.
//
// Finish measures the non-composite models first and fits the composites
// only afterwards, because a composite's calibration runs its members'
// estimators and so advances the RNG streams of sampling-based members
// (NeuroCard, UAE). A model's measurement therefore depends only on its
// own Fit, seeded from the run configuration, and the testing queries: a
// candidate is labeled the same in a candidate-only run as in a
// full-registry run with the same seed.
//
// The model zoo itself lives in the ce registry (populated by the blank
// zoo import below); the testbed derives model order, names, kinds and the
// candidate set from it rather than hard-coding them.
package testbed

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ce"
	_ "repro/internal/ce/zoo" // register the paper's nine baselines
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Registry-derived model facts, fixed at init (the zoo import above runs
// first). The first seven registry entries are the paper's candidate set M
// (three query-driven, three data-driven, one hybrid); Postgres and
// Ensemble complete the nine baselines of Section VII-A — they are
// measured (Perfs) for the Figure 9 and Table V comparisons but are not
// selection candidates.
var (
	// ModelNames lists the registry names in registry (rank) order.
	ModelNames = ce.Names()
	// NumModels is the registry size.
	NumModels = ce.NumModels()
	// NumCandidates is |M|, the candidate-set size.
	NumCandidates = ce.NumCandidates()
)

// Candidates returns the registry indexes of the candidate set M.
func Candidates() []int { return ce.CandidateIndexes() }

// ModelIndex returns the registry index of a model name, or -1.
func ModelIndex(name string) int { return ce.Index(name) }

// CandidateModelName maps a candidate-set index — the position inside the
// advisor's Sa/Se label vectors and Recommendation.Scores — to the
// registry model name. While the candidate set occupies the registry
// prefix the two index spaces coincide, but a registered non-prefix
// candidate would silently shift them apart, so consumers of advisor
// output must translate through this (or Candidates()) rather than
// indexing ModelNames directly.
func CandidateModelName(i int) (string, bool) {
	cands := Candidates()
	if i < 0 || i >= len(cands) {
		return "", false
	}
	return ModelNames[cands[i]], true
}

// CandidateModelLabel is CandidateModelName with a "?" fallback, for
// display code (reports, examples).
func CandidateModelLabel(i int) string {
	name, ok := CandidateModelName(i)
	if !ok {
		return "?"
	}
	return name
}

// QueryDrivenSet reports which candidate registry entries are query-
// driven; the Table III (CEB) experiment restricts itself to these, as the
// paper does.
func QueryDrivenSet() []int { return ce.CandidateIndexesOfKind(ce.QueryDriven) }

// Config controls one labeling run.
type Config struct {
	// NumQueries is the total workload size; TrainFrac of it trains the
	// query-driven models and the rest measures all models.
	NumQueries int
	TrainFrac  float64
	// SampleRows caps the join sample for data-driven training.
	SampleRows int
	// Fast shrinks the neural models' training budget; used by unit tests
	// and the quick experiment scale.
	Fast bool
	Seed int64
}

// DefaultConfig returns the labeling configuration used by the experiment
// harness: a scaled-down version of the paper's 10,000-query workloads,
// as this repository's tables are about 100x smaller than the paper's.
func DefaultConfig(seed int64) Config {
	return Config{NumQueries: 220, TrainFrac: 0.55, SampleRows: 1200, Seed: seed}
}

// zooConfig maps a labeling run onto the registry's shared configuration.
func (cfg Config) zooConfig() ce.Config { return ce.Config{Fast: cfg.Fast, Seed: cfg.Seed} }

// Label is the testbed's output for one dataset. Perfs holds the raw
// measurements of every model of the run, in model order (on the
// registry: all NumModels entries); Sa and Se are the normalized
// accuracy/efficiency scores over the run's candidates (on the registry:
// the NumCandidates entries of M), the label vectors the advisor learns
// from.
type Label struct {
	DatasetName string
	Perfs       []metrics.Perf
	Sa, Se      []float64
}

// ScoreVector combines the normalized candidate scores for an accuracy
// weight wa (Eq. 2); the result is the paper's label vector y_i for that
// weight, one entry per candidate.
func (l *Label) ScoreVector(wa float64) []float64 {
	return metrics.CombineScores(l.Sa, l.Se, wa)
}

// BestModel returns the index of the optimal candidate under weight wa.
func (l *Label) BestModel(wa float64) int {
	return metrics.ArgMax(l.ScoreVector(wa))
}

// FullScoreVector normalizes over every measured model — on a
// full-registry label, Postgres and the ensemble included — the scale
// used when Figure 9 reports D-error for the non-candidate baselines.
func (l *Label) FullScoreVector(wa float64) []float64 {
	sa, se := metrics.NormalizeScores(l.Perfs)
	return metrics.CombineScores(sa, se, wa)
}

// Result bundles everything a labeling run produced, so callers (the
// sampling baseline, the E2E experiment) can reuse the trained models and
// workload.
type Result struct {
	Label  *Label
	Models []ce.Model
	Train  []*workload.Query
	Test   []*workload.Query
}

// Prepared is a labeling run staged between phases: the workload has been
// split, the training inputs its models consume drawn, and the untrained
// models instantiated. Model training jobs (TrainModel) are independent of
// each other — every model owns its RNG, seeded from the run
// configuration, and only reads the shared TrainInput — so a corpus driver
// can fan (dataset, model) pairs over a worker pool and still produce
// exactly the labels of the serial path.
type Prepared struct {
	D      *dataset.Dataset
	Cfg    Config
	Train  []*workload.Query
	Test   []*workload.Query
	Models []ce.Model

	// kinds[i] is the training kind of Models[i]; candidates lists the
	// Models indexes of the run's candidates in model order. Both are
	// fixed at staging, so callers may wrap Models afterwards.
	kinds      []ce.Kind
	candidates []int
	input      *ce.TrainInput
}

// Prepare stages a labeling run of the full registry on d: it generates
// the workload with true cardinalities acquired from the engine's batched
// oracle (shared per-dataset join index, one evaluator per worker; see
// workload.Label) and hands it to PrepareModels.
func Prepare(d *dataset.Dataset, cfg Config) (*Prepared, error) {
	return PrepareModels(d, cfg, generateWorkload(d, cfg), ce.NewModels(cfg.zooConfig()))
}

// PrepareCandidates is Prepare for the candidate set M alone: the same
// generated, oracle-labeled workload, and only the models the advisor
// selects among, in rank order. Postgres and the ensemble, which only the
// Figure 9 and Table V comparisons read, are neither fitted nor measured.
// A candidate's Perfs entry, and Sa/Se, are bit for bit those of a
// Prepare run with the same d and cfg (see Finish); Se is measured latency
// and equal in distribution only.
func PrepareCandidates(d *dataset.Dataset, cfg Config) (*Prepared, error) {
	return PrepareModels(d, cfg, generateWorkload(d, cfg), ce.NewCandidates(cfg.zooConfig()))
}

// generateWorkload draws cfg's workload on d and labels it with true
// cardinalities.
func generateWorkload(d *dataset.Dataset, cfg Config) []*workload.Query {
	return workload.Generate(d, workload.DefaultConfig(cfg.NumQueries, cfg.Seed))
}

// PrepareModels stages a labeling run of models on the labeled workload
// qs: it splits qs into training and testing queries and, when a model of
// the run reads them, draws the join sample and enumerates the subset
// sizes. The models slice defines the order of Perfs; every entry must be
// untrained, and at least two must be candidates (see the package doc).
func PrepareModels(d *dataset.Dataset, cfg Config, qs []*workload.Query, models []ce.Model) (*Prepared, error) {
	p := &Prepared{D: d, Cfg: cfg, Models: models, kinds: make([]ce.Kind, len(models))}
	needData := false
	for i, m := range models {
		kind, candidate := ce.Hybrid, true // an unregistered model's Fit decides what it reads
		if s, ok := ce.Lookup(m.Name()); ok {
			kind, candidate = s.Kind, s.Candidate
		}
		p.kinds[i] = kind
		if candidate {
			p.candidates = append(p.candidates, i)
		}
		needData = needData || readsData(kind)
	}
	if len(p.candidates) < 2 {
		return nil, fmt.Errorf("testbed: need at least two candidate models, got %d", len(p.candidates))
	}
	p.Train, p.Test = workload.Split(qs, cfg.TrainFrac, cfg.Seed+1)
	if len(p.Train) == 0 || len(p.Test) == 0 {
		return nil, fmt.Errorf("testbed: degenerate workload split (%d train, %d test)", len(p.Train), len(p.Test))
	}
	p.input = &ce.TrainInput{Dataset: d, Queries: p.Train}
	if needData {
		if err := stageData(context.Background(), p.input, cfg); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// readsData reports whether a model of kind k reads the data half of a
// TrainInput, the join sample and the subset sizes.
func readsData(k ce.Kind) bool { return k == ce.DataDriven || k == ce.Hybrid }

// stageData fills in the data half of in: the join sample, drawn with seed
// cfg.Seed+2, and the subset sizes shared across the data-driven models
// instead of each recomputing them. It checks ctx before starting, and the
// subset-size enumeration — whose cost grows exponentially with table
// count — also cancels mid-loop.
func stageData(ctx context.Context, in *ce.TrainInput, cfg Config) error {
	if err := context.Cause(ctx); err != nil {
		return err
	}
	in.Sample = engine.SampleJoin(in.Dataset, cfg.SampleRows, rand.New(rand.NewSource(cfg.Seed+2)))
	sizes, err := ce.ComputeSubsetSizesCtx(ctx, in.Dataset)
	if err != nil {
		return err
	}
	in.Sizes = sizes
	return nil
}

// NumModels returns the size of the run's model set, the number of
// TrainModel jobs.
func (p *Prepared) NumModels() int { return len(p.Models) }

// TrainModel trains model i through the unified lifecycle. Jobs are
// mutually independent and touch only read-only shared state, so distinct
// indexes may run concurrently (also across Prepared instances).
// Composite models (the ensemble) have no independent training phase;
// Finish fits them on the trained candidates.
func (p *Prepared) TrainModel(i int) error {
	if p.kinds[i] == ce.Composite {
		return nil
	}
	if err := p.Models[i].Fit(p.input); err != nil {
		return fmt.Errorf("testbed: training %s on %s: %w", p.Models[i].Name(), p.D.Name, err)
	}
	return nil
}

// Finish measures every model of the run on the testing queries through
// the batched estimation path and normalizes the candidates' scores into
// the label. The non-composite models are measured first, in model order;
// then each composite is fitted on the trained candidates and measured.
// Its calibration advances the RNG streams of sampling-based members, so
// it must not run before they are measured: that keeps a candidate's
// label the same whether or not the run includes the composites (see the
// package doc). Perfs keeps model order.
func (p *Prepared) Finish() (*Result, error) {
	models := p.Models
	// Truths are assembled outside the timed region, so LatencyMean
	// measures estimation alone. Measurement rides EstimateBatch — the
	// serving hot path — deliberately: Se scores efficiency as served,
	// so models whose batch path parallelizes or vectorizes are credited
	// for it (on a single-core box this coincides with the historical
	// per-query loop; estimates themselves are bit-identical either way).
	truths := make([]float64, len(p.Test))
	for qi, q := range p.Test {
		truths[qi] = float64(q.TrueCard)
	}
	label := &Label{DatasetName: p.D.Name, Perfs: make([]metrics.Perf, len(models))}
	measure := func(i int) {
		//autoce:ignore detpath -- measured inference latency IS the Se efficiency signal (paper Eq. 4); only the Sa/Se normalization is pinned deterministic
		t0 := time.Now()
		ests := models[i].EstimateBatch(p.Test)
		elapsed := time.Since(t0)
		label.Perfs[i] = metrics.Perf{
			QErrorMean:  metrics.MeanQError(ests, truths),
			LatencyMean: elapsed.Seconds() / float64(len(p.Test)),
		}
	}
	for i, kind := range p.kinds {
		if kind != ce.Composite {
			measure(i)
		}
	}

	// Calibrate composites on a cloned (not aliased) bounded slice of the
	// training queries to keep labeling cost bounded.
	calib := append([]*workload.Query(nil), p.Train[:min(len(p.Train), 40)]...)
	members := make([]ce.Estimator, 0, len(p.candidates))
	for _, ci := range p.candidates {
		members = append(members, models[ci])
	}
	for i, kind := range p.kinds {
		if kind != ce.Composite {
			continue
		}
		err := models[i].Fit(&ce.TrainInput{Dataset: p.D, Members: members, Queries: calib})
		if err != nil {
			return nil, fmt.Errorf("testbed: assembling %s on %s: %w", models[i].Name(), p.D.Name, err)
		}
		measure(i)
	}

	perfs := make([]metrics.Perf, len(p.candidates))
	for j, ci := range p.candidates {
		perfs[j] = label.Perfs[ci]
	}
	label.Sa, label.Se = metrics.NormalizeScores(perfs)
	return &Result{Label: label, Models: models, Train: p.Train, Test: p.Test}, nil
}

// Run labels one dataset serially: it trains all models and measures them
// on the testing queries.
func Run(d *dataset.Dataset, cfg Config) (*Result, error) {
	p, err := Prepare(d, cfg)
	if err != nil {
		return nil, err
	}
	return p.Run()
}

// Run trains the staged models serially and finishes the run.
func (p *Prepared) Run() (*Result, error) {
	for i := 0; i < p.NumModels(); i++ {
		if err := p.TrainModel(i); err != nil {
			return nil, err
		}
	}
	return p.Finish()
}

// LabelOnly runs the testbed and returns just the label.
func LabelOnly(d *dataset.Dataset, cfg Config) (*Label, error) {
	res, err := Run(d, cfg)
	if err != nil {
		return nil, err
	}
	return res.Label, nil
}

// NewTrainInputFor stages a standalone training input for one model of
// the given kind, building only the input halves that kind reads:
// query-driven models read no join sample or subset sizes (skipping the
// exact subset-size enumeration), and data-driven models read no labeled
// workload (skipping oracle labeling). It is the serving path's onramp —
// the /train endpoint feeds the result to a single registry model's Fit —
// and generally the cheapest way to train one model outside a labeling
// run; all of the workload trains.
func NewTrainInputFor(d *dataset.Dataset, cfg Config, kind ce.Kind) *ce.TrainInput {
	in, _ := NewTrainInputForCtx(context.Background(), d, cfg, kind)
	return in
}

// NewTrainInputForCtx is NewTrainInputFor under a deadline: each staging
// phase (workload labeling, join sampling, subset-size enumeration)
// checks ctx before starting, and the subset-size enumeration — the
// phase whose cost grows exponentially with table count — additionally
// cancels mid-loop. The returned TrainInput carries ctx onward so Fit
// implementations observe the same deadline at their epoch checkpoints.
func NewTrainInputForCtx(ctx context.Context, d *dataset.Dataset, cfg Config, kind ce.Kind) (*ce.TrainInput, error) {
	in := &ce.TrainInput{Dataset: d, Ctx: ctx}
	if kind != ce.DataDriven {
		if err := context.Cause(ctx); err != nil {
			return nil, err
		}
		in.Queries = generateWorkload(d, cfg)
	}
	if readsData(kind) {
		if err := stageData(ctx, in, cfg); err != nil {
			return nil, err
		}
	}
	return in, nil
}
