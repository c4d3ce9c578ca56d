package testbed

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/ce"
	"repro/internal/workload"
)

// measuredModel records the estimates of its first EstimateBatch call,
// the one Finish times.
type measuredModel struct {
	ce.Model
	ests []float64
}

func (m *measuredModel) EstimateBatch(qs []*workload.Query) []float64 {
	ests := m.Model.EstimateBatch(qs)
	if m.ests == nil {
		m.ests = ests
	}
	return ests
}

// measuredRun labels d with models on the generated workload, recording
// the estimates each model was measured on.
func measuredRun(t *testing.T, cfg Config, models []ce.Model) (*Label, []*measuredModel) {
	t.Helper()
	d := fixture(t, 5, 15)
	qs := workload.Generate(d, workload.DefaultConfig(cfg.NumQueries, cfg.Seed))
	p, err := PrepareModels(d, cfg, qs, models)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]*measuredModel, len(p.Models))
	for i, m := range p.Models {
		rec[i] = &measuredModel{Model: m}
		p.Models[i] = rec[i]
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Label, rec
}

// TestCandidateLabelsIndependentOfRun: labeling the seven candidates on
// their own measures exactly what they measure inside a full-registry run
// with the same seed, on the 5-table golden fixture — mean Q-error, Sa
// and every per-query estimate. The ensemble's calibration used to run
// before NeuroCard and UAE were measured and advanced their sampling
// RNGs, so their labels depended on whether the ensemble shared the run.
func TestCandidateLabelsIndependentOfRun(t *testing.T) {
	cfg := fastCfg(15)
	full, fullRec := measuredRun(t, cfg, ce.NewModels(cfg.zooConfig()))
	var names []string
	for _, i := range Candidates() {
		names = append(names, ModelNames[i])
	}
	cand, candRec := measuredRun(t, cfg, registryModels(t, cfg, names...))
	if len(cand.Perfs) != NumCandidates {
		t.Fatalf("candidate run measured %d models, want %d", len(cand.Perfs), NumCandidates)
	}
	for j, i := range Candidates() {
		if got, want := cand.Perfs[j].QErrorMean, full.Perfs[i].QErrorMean; got != want {
			t.Errorf("%s: candidate-only Q-error %v, full-registry run %v", ModelNames[i], got, want)
		}
		if !slices.Equal(candRec[j].ests, fullRec[i].ests) {
			t.Errorf("%s: candidate-only estimates differ from the full-registry run's", ModelNames[i])
		}
	}
	if !slices.Equal(cand.Sa, full.Sa) {
		t.Errorf("candidate-only Sa %v, full-registry run %v", cand.Sa, full.Sa)
	}
}

// TestPrepareCandidatesStagesCandidateSet: PrepareCandidates stages the
// candidate set M in rank order, and Prepare the full registry.
func TestPrepareCandidatesStagesCandidateSet(t *testing.T) {
	d := fixture(t, 2, 16)
	cfg := fastCfg(16)
	names := func(p *Prepared) []string {
		var out []string
		for _, m := range p.Models {
			out = append(out, m.Name())
		}
		return out
	}
	cp, err := PrepareCandidates(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, i := range Candidates() {
		want = append(want, ModelNames[i])
	}
	if got := names(cp); !slices.Equal(got, want) {
		t.Errorf("PrepareCandidates staged %v, want %v", got, want)
	}
	fp, err := Prepare(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(fp); !slices.Equal(got, ModelNames) {
		t.Errorf("Prepare staged %v, want the registry %v", got, ModelNames)
	}
	if !slices.EqualFunc(cp.Test, fp.Test, func(a, b *workload.Query) bool { return reflect.DeepEqual(a, b) }) {
		t.Error("PrepareCandidates and Prepare split different workloads")
	}
}
