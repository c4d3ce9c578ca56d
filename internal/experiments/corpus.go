// Package experiments implements one regenerator per table and figure of
// the paper's evaluation (Section VII). Every experiment consumes a shared
// labeled corpus — synthetic datasets labeled by the CE testbed — and
// prints the same rows or series the paper reports. The cmd/autoce-exp
// binary dispatches to these functions; bench_test.go wraps them as
// testing.B benchmarks.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/testbed"
)

// Scale sets experiment sizes. The paper uses 1,000 training + 200 testing
// datasets with 10,000-query workloads; DefaultScale is the CPU-friendly
// regime `go run ./cmd/autoce-exp` regenerates the tables and figures at,
// and QuickScale keeps unit tests and benchmarks fast.
type Scale struct {
	TrainDatasets int
	TestDatasets  int
	Queries       int
	SampleRows    int
	Fast          bool
	AdvisorEpochs int
	Workers       int
	Seed          int64
}

// DefaultScale is the full experiment regime.
func DefaultScale() Scale {
	return Scale{
		TrainDatasets: 160,
		TestDatasets:  40,
		Queries:       200,
		SampleRows:    1000,
		Fast:          false,
		AdvisorEpochs: 30,
		Workers:       runtime.GOMAXPROCS(0),
		Seed:          1,
	}
}

// QuickScale is the smoke-test regime used by unit tests and benches.
func QuickScale() Scale {
	return Scale{
		TrainDatasets: 24,
		TestDatasets:  8,
		Queries:       60,
		SampleRows:    400,
		Fast:          true,
		AdvisorEpochs: 10,
		Workers:       runtime.GOMAXPROCS(0),
		Seed:          1,
	}
}

func (s Scale) genParams() datagen.Params {
	p := datagen.DefaultParams(0)
	if s.Fast {
		p.MinRows, p.MaxRows = 150, 400
	}
	return p
}

// TestbedConfig returns the labeling configuration this scale implies;
// exported for the examples and the end-to-end experiment.
func (s Scale) TestbedConfig(seed int64) testbed.Config {
	cfg := testbed.DefaultConfig(seed)
	cfg.NumQueries = s.Queries
	cfg.SampleRows = s.SampleRows
	cfg.Fast = s.Fast
	return cfg
}

// LabeledDataset couples a dataset with its feature graph and testbed
// label.
type LabeledDataset struct {
	D     *dataset.Dataset
	Graph *feature.Graph
	Label *testbed.Label
}

// Sample converts to the advisor's training representation.
func (ld *LabeledDataset) Sample() *core.Sample {
	return &core.Sample{Name: ld.D.Name, Graph: ld.Graph, Sa: ld.Label.Sa, Se: ld.Label.Se}
}

// TrainSample converts to the baseline selectors' representation.
func (ld *LabeledDataset) TrainSample() *advisor.TrainSample {
	return &advisor.TrainSample{
		Graph: ld.Graph, Sa: ld.Label.Sa, Se: ld.Label.Se,
		Tables: ld.D.NumTables(),
	}
}

// Target returns the selector input for this dataset.
func (ld *LabeledDataset) Target() advisor.Target {
	return advisor.Target{Dataset: ld.D, Graph: ld.Graph}
}

// Corpus is the shared labeled corpus.
type Corpus struct {
	Train, Test []*LabeledDataset
	FeatCfg     feature.Config
	Scale       Scale
}

// LabelDatasets labels a slice of datasets on the candidate set M
// (testbed.PrepareCandidates) and pairs them with feature graphs: each
// label's Perfs holds the NumCandidates candidates, bit for bit what a
// full-registry run measures for them, with Postgres and the ensemble
// neither fitted nor measured. It labels everything the advisor learns
// from — cmd/autoce, the examples, BuildCorpus's training half and the
// Figure 10/13 evaluation sets; BuildCorpus's test half keeps the full
// registry, because Figure 9 scores Postgres and the ensemble on it.
//
// It is the parallel Stage-1 corpus driver: labeling runs in three
// phases — workload generation + oracle labeling per dataset, then every
// (dataset, model) training job fanned over one global sc.Workers pool
// (testbed.TrainAll), then measurement and scoring per dataset —
// so training throughput scales with cores even when datasets outnumber or
// undercount the workers. Per-job RNG seeding is deterministic (each model
// derives its RNG from the run seed), so the labels are identical to the
// serial path; see TestParallelCorpusTrainingDeterministic.
func LabelDatasets(ds []*dataset.Dataset, sc Scale, featCfg feature.Config, seedBase int64) ([]*LabeledDataset, error) {
	return labelDatasets(ds, sc, featCfg, seedBase, testbed.PrepareCandidates)
}

// labelDatasets is LabelDatasets with the model set chosen by prepare
// (testbed.PrepareCandidates or testbed.Prepare).
func labelDatasets(ds []*dataset.Dataset, sc Scale, featCfg feature.Config, seedBase int64,
	prepare func(*dataset.Dataset, testbed.Config) (*testbed.Prepared, error)) ([]*LabeledDataset, error) {
	workers := maxInt(1, sc.Workers)

	// Phase 0: feature graphs, with per-table summary builds fanned over
	// the worker pool.
	graphs, err := feature.ExtractBatch(ds, featCfg, workers)
	if err != nil {
		return nil, fmt.Errorf("extracting features: %w", err)
	}
	for i := range ds {
		// Corpus datasets outlive labeling; their statistics need not.
		dataset.InvalidateStats(ds[i])
	}

	// Phase 1: workload + oracle truths + join sample + untrained models.
	preps := make([]*testbed.Prepared, len(ds))
	err = par.For(len(ds), workers, func(i int) error {
		// Corpus datasets outlive labeling; their join index need not.
		p, err := prepare(ds[i], sc.TestbedConfig(seedBase+int64(i)*97))
		engine.InvalidateIndex(ds[i])
		if err != nil {
			return fmt.Errorf("preparing %s: %w", ds[i].Name, err)
		}
		preps[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: the global (dataset, model) training pool. Each dataset is
	// measured, scored, and released (models, sample, workload) as soon
	// as its last training job drains, so peak memory tracks the
	// in-flight window rather than the corpus size.
	out := make([]*LabeledDataset, len(ds))
	finish := func(i int) error {
		res, err := preps[i].Finish()
		preps[i] = nil
		if err != nil {
			return fmt.Errorf("labeling %s: %w", ds[i].Name, err)
		}
		out[i] = &LabeledDataset{D: ds[i], Graph: graphs[i], Label: res.Label}
		return nil
	}
	if err := testbed.TrainAll(preps, workers, finish); err != nil {
		return nil, err
	}
	return out, nil
}

// BuildCorpus generates and labels the full synthetic corpus.
func BuildCorpus(sc Scale) (*Corpus, error) {
	featCfg := feature.DefaultConfig()
	trainDS, err := datagen.GenerateCorpus(sc.TrainDatasets, 5, sc.genParams(), sc.Seed)
	if err != nil {
		return nil, err
	}
	testDS, err := datagen.GenerateCorpus(sc.TestDatasets, 5, sc.genParams(), sc.Seed+100000)
	if err != nil {
		return nil, err
	}
	train, err := LabelDatasets(trainDS, sc, featCfg, sc.Seed*3+7)
	if err != nil {
		return nil, err
	}
	// Figure 9 scores Postgres and the ensemble on the test half.
	test, err := labelDatasets(testDS, sc, featCfg, sc.Seed*5+11, testbed.Prepare)
	if err != nil {
		return nil, err
	}
	return &Corpus{Train: train, Test: test, FeatCfg: featCfg, Scale: sc}, nil
}

// AdvisorConfig returns the core configuration matched to this corpus.
func (c *Corpus) AdvisorConfig() core.Config {
	cfg := core.DefaultConfig(c.FeatCfg.VertexDim())
	cfg.Epochs = c.Scale.AdvisorEpochs
	cfg.Seed = c.Scale.Seed + 17
	return cfg
}

// TrainSamples converts the training corpus for the advisor.
func (c *Corpus) TrainSamples() []*core.Sample {
	out := make([]*core.Sample, len(c.Train))
	for i, ld := range c.Train {
		out[i] = ld.Sample()
	}
	return out
}

// BaselineSamples converts the training corpus for the baselines.
func (c *Corpus) BaselineSamples() []*advisor.TrainSample {
	out := make([]*advisor.TrainSample, len(c.Train))
	for i, ld := range c.Train {
		out[i] = ld.TrainSample()
	}
	return out
}

// TrainAutoCE trains the full AutoCE advisor (DML plus one incremental-
// learning pass, the paper's complete training pipeline).
func (c *Corpus) TrainAutoCE() (*core.Advisor, error) {
	adv, err := core.Train(c.TrainSamples(), c.AdvisorConfig())
	if err != nil {
		return nil, err
	}
	il := core.DefaultILConfig()
	if c.Scale.Fast {
		il.Epochs = 4
	}
	adv.IncrementalLearn(il)
	return adv, nil
}

// SamplingLabels labels the candidates on a row-sample of every test
// dataset once; the sampling baseline then answers any weight from these
// labels. This avoids re-running the sampled testbed per weight while
// keeping its cost honest (one candidate-only sampled run per dataset).
func (c *Corpus) SamplingLabels(test []*LabeledDataset) ([]*testbed.Label, error) {
	out := make([]*testbed.Label, len(test))
	err := par.For(len(test), c.Scale.Workers, func(i int) error {
		sampled := advisor.SampleDataset(test[i].D, 0.25, c.Scale.Seed+int64(i))
		cfg := c.Scale.TestbedConfig(c.Scale.Seed + 31 + int64(i)*13)
		cfg.NumQueries = maxInt(30, c.Scale.Queries/3)
		p, err := testbed.PrepareCandidates(sampled, cfg)
		if err != nil {
			return err
		}
		res, err := p.Run()
		if err != nil {
			return err
		}
		out[i] = res.Label
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DErrorStats aggregates a D-error sample.
type DErrorStats struct {
	Mean, P50, P90, Max float64
}

// Stats computes aggregate statistics over D-error values.
func Stats(xs []float64) DErrorStats {
	if len(xs) == 0 {
		return DErrorStats{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return DErrorStats{
		Mean: metrics.Mean(s),
		P50:  metrics.Percentile(s, 50),
		P90:  metrics.Percentile(s, 90),
		Max:  s[len(s)-1],
	}
}

// EvalSelector computes the D-error of a choose function over the test
// datasets at weight wa; choices of -1 (selector failure) count as the
// worst model.
func EvalSelector(test []*LabeledDataset, wa float64, choose func(*LabeledDataset) int) []float64 {
	out := make([]float64, 0, len(test))
	for _, ld := range test {
		model := choose(ld)
		sv := ld.Label.ScoreVector(wa)
		if model < 0 || model >= len(sv) {
			// Failed selection: count as the worst model.
			model = argMin(sv)
		}
		out = append(out, metrics.DError(sv, model))
	}
	return out
}

// ChosenPerf returns the mean Q-error and mean latency of the chosen
// models over the test datasets (the Figure 8 breakdown panels).
func ChosenPerf(test []*LabeledDataset, choose func(*LabeledDataset) int) (qerr, lat float64) {
	var qs, ls []float64
	for _, ld := range test {
		model := choose(ld)
		if model < 0 || model >= len(ld.Label.Perfs) {
			model = argMin(ld.Label.ScoreVector(0.5))
		}
		qs = append(qs, ld.Label.Perfs[model].QErrorMean)
		ls = append(ls, ld.Label.Perfs[model].LatencyMean)
	}
	return metrics.Mean(qs), metrics.Mean(ls)
}

func argMin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// row formats a table row with a fixed label column.
func row(label string, cells ...string) string {
	return fmt.Sprintf("%-14s %s", label, strings.Join(cells, "  "))
}
