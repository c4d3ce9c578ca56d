package testbed

import (
	"testing"

	"repro/internal/ce"
	"repro/internal/dataset"
	"repro/internal/workload"
)

// The paper's extensibility claim (Section IV-B): "To incorporate a new
// cardinality estimation baseline into AutoCE, we deploy the baseline to
// the cardinality estimation testbed, which conducts the dataset labeling
// and produces the corresponding score vectors." A new estimator only has
// to implement ce.Model to be labeled through PrepareModels.

// rowCountModel is a deliberately naive "newly-emerged" estimator: it
// estimates every query as the product of the involved tables' row counts
// (no selectivity at all).
type rowCountModel struct {
	d *dataset.Dataset
}

func (m *rowCountModel) Name() string { return "RowCount" }

func (m *rowCountModel) Fit(in *ce.TrainInput) error {
	m.d = in.Dataset
	return nil
}

func (m *rowCountModel) Estimate(q *workload.Query) float64 {
	est := 1.0
	for _, ti := range q.Tables {
		est *= float64(m.d.Tables[ti].Rows())
	}
	return est
}

func (m *rowCountModel) EstimateBatch(qs []*workload.Query) []float64 {
	return ce.ParallelEstimates(m, qs)
}

// registryModels instantiates the named registry entries for cfg.
func registryModels(t *testing.T, cfg Config, names ...string) []ce.Model {
	t.Helper()
	var out []ce.Model
	for _, n := range names {
		s, ok := ce.Lookup(n)
		if !ok {
			t.Fatalf("model %q is not registered", n)
		}
		out = append(out, s.New(cfg.zooConfig()))
	}
	return out
}

// labelModels labels d with models on a generated workload.
func labelModels(t *testing.T, d *dataset.Dataset, cfg Config, models []ce.Model) *Label {
	t.Helper()
	qs := workload.Generate(d, workload.DefaultConfig(cfg.NumQueries, cfg.Seed))
	p, err := PrepareModels(d, cfg, qs, models)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Label
}

func TestPrepareModelsIncorporatesNewBaseline(t *testing.T) {
	d := fixture(t, 2, 7)
	cfg := fastCfg(7)
	l := labelModels(t, d, cfg, append(registryModels(t, cfg, "BayesCard"), &rowCountModel{}))
	if len(l.Perfs) != 2 || len(l.Sa) != 2 || len(l.Se) != 2 {
		t.Fatalf("label sized %d/%d/%d, want 2/2/2", len(l.Perfs), len(l.Sa), len(l.Se))
	}
	// BayesCard must beat the naive row-count model on accuracy, so
	// normalization puts it at 1.
	if l.Sa[0] != 1 || l.Sa[1] != 0 {
		t.Fatalf("accuracy scores %v; BayesCard should dominate the naive baseline", l.Sa)
	}
}

func TestPrepareModelsRejectsDegenerateInput(t *testing.T) {
	d := fixture(t, 1, 9)
	cfg := fastCfg(9)
	qs := workload.Generate(d, workload.DefaultConfig(cfg.NumQueries, cfg.Seed))
	for _, models := range [][]ce.Model{
		{&rowCountModel{}},
		// Postgres and Ensemble are registered non-candidates.
		append(registryModels(t, cfg, "Postgres", "Ensemble"), &rowCountModel{}),
	} {
		if _, err := PrepareModels(d, cfg, qs, models); err == nil {
			t.Fatalf("model set of %d with one candidate accepted", len(models))
		}
	}
	if _, err := PrepareModels(d, cfg, nil, []ce.Model{&rowCountModel{}, &rowCountModel{}}); err == nil {
		t.Fatal("empty workload accepted")
	}
}

func TestPrepareModelsOnboardsFLAT(t *testing.T) {
	// The paper's Section VIII highlights FLAT as a newly emerged
	// data-driven model; it is onboarded without registering it, beside a
	// registered non-candidate (Postgres) that is measured but not scored.
	d := fixture(t, 2, 10)
	cfg := fastCfg(10)
	models := []ce.Model{newFLAT(defaultFLATConfig()), registryModels(t, cfg, "Postgres")[0], &rowCountModel{}}
	l := labelModels(t, d, cfg, models)
	if len(l.Perfs) != 3 || len(l.Sa) != 2 {
		t.Fatalf("label sized %d perfs / %d scores, want 3/2 (Postgres is no candidate)", len(l.Perfs), len(l.Sa))
	}
	// FLAT must at least beat the naive row-count baseline on accuracy.
	if l.Perfs[0].QErrorMean >= l.Perfs[2].QErrorMean {
		t.Fatalf("FLAT Q-error %g no better than row-count %g", l.Perfs[0].QErrorMean, l.Perfs[2].QErrorMean)
	}
	if l.Sa[0] != 1 || l.Sa[1] != 0 {
		t.Fatalf("accuracy scores %v; FLAT should dominate the naive baseline", l.Sa)
	}
}

// TestPrepareModelsQueryDrivenSubset: labeling the query-driven subset on
// its own (Table III's model set) measures exactly what the same models
// measure inside a full-registry run with the same seed, and skips the
// data half of the training input.
func TestPrepareModelsQueryDrivenSubset(t *testing.T) {
	d := fixture(t, 3, 14)
	cfg := fastCfg(14)
	full, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, i := range QueryDrivenSet() {
		names = append(names, ModelNames[i])
	}
	qs := workload.Generate(d, workload.DefaultConfig(cfg.NumQueries, cfg.Seed))
	p, err := PrepareModels(d, cfg, qs, registryModels(t, cfg, names...))
	if err != nil {
		t.Fatal(err)
	}
	if p.input.Sample != nil || p.input.Sizes != nil {
		t.Fatal("a query-driven-only run staged the join sample or subset sizes")
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	for j, i := range QueryDrivenSet() {
		if got, want := res.Label.Perfs[j].QErrorMean, full.Label.Perfs[i].QErrorMean; got != want {
			t.Errorf("%s: subset Q-error %v, full-registry run %v", ModelNames[i], got, want)
		}
	}
}
