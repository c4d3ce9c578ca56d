package ce_test

// Registry conformance harness: every registered model must satisfy the
// full lifecycle contract — Fit from one TrainInput, finite estimates,
// and stateless inference: an estimate is a pure function of the trained
// model and the query, so batches match per-query calls in any order, a
// repeated query repeats its answer, and a gob round trip (SaveModel/
// LoadModel and the artifact Store) answers exactly as the resident model
// does, however many estimates came before.

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ce"
	_ "repro/internal/ce/zoo"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/workload"
)

// paperRegistry is the seed (paper) order the registry must reproduce: the
// seven candidates of M followed by the measured-only baselines.
var paperRegistry = []struct {
	name      string
	kind      ce.Kind
	candidate bool
}{
	{"MSCN", ce.QueryDriven, true},
	{"LW-NN", ce.QueryDriven, true},
	{"LW-XGB", ce.QueryDriven, true},
	{"DeepDB", ce.DataDriven, true},
	{"BayesCard", ce.DataDriven, true},
	{"NeuroCard", ce.DataDriven, true},
	{"UAE", ce.Hybrid, true},
	{"Postgres", ce.DataDriven, false},
	{"Ensemble", ce.Composite, false},
}

func TestRegistryInvariants(t *testing.T) {
	specs := ce.Specs()
	if len(specs) != len(paperRegistry) {
		t.Fatalf("registry has %d models, want %d", len(specs), len(paperRegistry))
	}
	seenNames := map[string]bool{}
	for i, s := range specs {
		want := paperRegistry[i]
		if s.Name != want.name {
			t.Errorf("registry[%d] = %q, want seed order %q", i, s.Name, want.name)
		}
		if s.Kind != want.kind {
			t.Errorf("%s kind %v, want %v", s.Name, s.Kind, want.kind)
		}
		if s.Candidate != want.candidate {
			t.Errorf("%s candidate %v, want %v", s.Name, s.Candidate, want.candidate)
		}
		if s.Name == "" || seenNames[s.Name] {
			t.Errorf("registry[%d] name %q empty or duplicate", i, s.Name)
		}
		seenNames[s.Name] = true
		if !s.Kind.Valid() {
			t.Errorf("%s has invalid kind %d", s.Name, int(s.Kind))
		}
		if s.New == nil {
			t.Errorf("%s has nil constructor", s.Name)
		}
		if i > 0 && specs[i-1].Rank >= s.Rank {
			t.Errorf("ranks not strictly increasing at %d: %d >= %d", i, specs[i-1].Rank, s.Rank)
		}
		if ce.Index(s.Name) != i {
			t.Errorf("%s index lookup mismatch", s.Name)
		}
		if got, ok := ce.Lookup(s.Name); !ok || got.Name != s.Name {
			t.Errorf("Lookup(%s) failed", s.Name)
		}
	}
	// |M| = 7, the paper's candidate-set size, occupying the first ranks.
	if n := ce.NumCandidates(); n != 7 {
		t.Fatalf("candidate set has %d models, paper's |M| is 7", n)
	}
	for i, ci := range ce.CandidateIndexes() {
		if ci != i {
			t.Fatalf("candidate indexes %v are not the registry prefix", ce.CandidateIndexes())
		}
	}
	wantKinds := map[ce.Kind][]int{
		ce.QueryDriven: {0, 1, 2},
		ce.DataDriven:  {3, 4, 5},
		ce.Hybrid:      {6},
		ce.Composite:   nil,
	}
	for k, want := range wantKinds {
		got := ce.CandidateIndexesOfKind(k)
		if len(got) != len(want) {
			t.Fatalf("kind %v candidates %v, want %v", k, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("kind %v candidates %v, want %v", k, got, want)
			}
		}
	}
	if ce.Index("NoSuchModel") != -1 {
		t.Fatal("unknown name resolved to an index")
	}
}

func TestRegisterRejectsInvalidSpecs(t *testing.T) {
	before := ce.NumModels()
	expectPanic := func(name string, s ce.Spec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		ce.Register(s)
	}
	newModel := func(ce.Config) ce.Model { return nil }
	expectPanic("duplicate name", ce.Spec{Rank: 99, Name: "MSCN", Kind: ce.QueryDriven, New: newModel})
	expectPanic("duplicate rank", ce.Spec{Rank: 0, Name: "Fresh", Kind: ce.QueryDriven, New: newModel})
	expectPanic("empty name", ce.Spec{Rank: 99, Name: "", Kind: ce.QueryDriven, New: newModel})
	expectPanic("nil constructor", ce.Spec{Rank: 99, Name: "Fresh", Kind: ce.QueryDriven})
	expectPanic("invalid kind", ce.Spec{Rank: 99, Name: "Fresh", Kind: ce.Kind(42), New: newModel})
	if ce.NumModels() != before {
		t.Fatalf("failed registrations mutated the registry: %d -> %d", before, ce.NumModels())
	}
}

// conformanceFixture trains the full zoo once for the lifecycle tests.
func conformanceFixture(t *testing.T) ([]ce.Model, []ce.Spec, []*workload.Query) {
	t.Helper()
	return trainZoo(t, datagen.Params{
		Tables:  2,
		MinCols: 2, MaxCols: 3,
		MinRows: 150, MaxRows: 250,
		Domain: 25,
		SkewLo: 0, SkewHi: 0.8,
		CorrLo: 0, CorrHi: 0.5,
		JoinLo: 0.5, JoinHi: 1,
		Seed: 4242,
	}, 400, 90)
}

// trainZoo fits every registry model on the dataset p generates, with a
// join sample of sampleRows rows and a workload of nq queries (60% for
// training, the ensemble calibrating on up to 30 of them), and returns
// the models, their specs and the test queries.
func trainZoo(tb testing.TB, p datagen.Params, sampleRows, nq int) ([]ce.Model, []ce.Spec, []*workload.Query) {
	tb.Helper()
	d, err := datagen.Generate("conf", p)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(p.Seed + 1))
	qs := workload.Generate(d, workload.DefaultConfig(nq, p.Seed+2))
	train, test := workload.Split(qs, 0.6, p.Seed+3)
	in := &ce.TrainInput{
		Dataset: d,
		Sample:  engine.SampleJoin(d, sampleRows, rng),
		Queries: train,
		Sizes:   ce.ComputeSubsetSizes(d),
	}
	specs := ce.Specs()
	models := ce.NewModels(ce.Config{Fast: true, Seed: 77})
	var members []ce.Estimator
	for i, s := range specs {
		if s.Kind == ce.Composite {
			continue
		}
		if err := models[i].Fit(in); err != nil {
			tb.Fatalf("fitting %s: %v", s.Name, err)
		}
		if s.Candidate {
			members = append(members, models[i])
		}
	}
	for i, s := range specs {
		if s.Kind != ce.Composite {
			continue
		}
		calib := append([]*workload.Query(nil), train[:min(30, len(train))]...)
		if err := models[i].Fit(&ce.TrainInput{Dataset: d, Members: members, Queries: calib}); err != nil {
			tb.Fatalf("fitting %s: %v", s.Name, err)
		}
	}
	return models, specs, test
}

func TestZooLifecycleConformance(t *testing.T) {
	models, specs, test := conformanceFixture(t)
	for i, s := range specs {
		m := models[i]
		if m.Name() != s.Name {
			t.Fatalf("model %d reports name %q, registered as %q", i, m.Name(), s.Name)
		}
		if got := m.EstimateBatch(nil); len(got) != 0 {
			t.Fatalf("%s: empty batch returned %d estimates", s.Name, len(got))
		}
		// Warm pass: every estimate finite and >= 1.
		warm := m.EstimateBatch(test)
		if len(warm) != len(test) {
			t.Fatalf("%s: batch returned %d estimates for %d queries", s.Name, len(warm), len(test))
		}
		for qi, est := range warm {
			if est < 1 || math.IsNaN(est) || math.IsInf(est, 0) {
				t.Fatalf("%s: query %d estimate %g", s.Name, qi, est)
			}
		}
		// The parallel/vectorized batch is bit-identical to per-query
		// Estimate calls, and a repeated query repeats its answer.
		for qi, q := range test {
			if got := m.Estimate(q); got != warm[qi] {
				t.Fatalf("%s: query %d single %v != batch %v", s.Name, qi, got, warm[qi])
			}
		}
		if got := m.EstimateBatch(test); !slices.Equal(got, warm) {
			t.Fatalf("%s: repeating the batch changed its answers:\n%v\n%v", s.Name, got, warm)
		}
		// A shuffled batch answers the shuffled queries exactly as before.
		perm := rand.New(rand.NewSource(int64(i))).Perm(len(test))
		shuffled := make([]*workload.Query, len(test))
		for k, j := range perm {
			shuffled[k] = test[j]
		}
		for k, got := range m.EstimateBatch(shuffled) {
			if got != warm[perm[k]] {
				t.Fatalf("%s: shuffled position %d (query %d) = %v, unshuffled %v", s.Name, k, perm[k], got, warm[perm[k]])
			}
		}
		// Gob round trip after all those estimates: the loaded copy
		// answers exactly as the resident model does.
		var buf bytes.Buffer
		if err := ce.SaveModel(&buf, m); err != nil {
			t.Fatalf("%s: SaveModel: %v", s.Name, err)
		}
		loaded, err := ce.LoadModel(&buf)
		if err != nil {
			t.Fatalf("%s: LoadModel: %v", s.Name, err)
		}
		if loaded.Name() != s.Name {
			t.Fatalf("loaded model reports %q, want %q", loaded.Name(), s.Name)
		}
		if got := loaded.EstimateBatch(test); !slices.Equal(got, warm) {
			t.Fatalf("%s: reloaded answers differ (gob round trip not bit-identical):\n%v\n%v", s.Name, got, warm)
		}
	}
}

func TestModelStoreRoundTrip(t *testing.T) {
	models, specs, test := conformanceFixture(t)
	store, err := ce.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// The dataset name deliberately contains both a path separator and a
	// double underscore: escaping and the directory layout must keep it
	// intact through save/list/load.
	const dsName = "conf__db/x"
	const schema = "t2;c3,pk0"
	for i, s := range specs {
		models[i].EstimateBatch(test) // estimates before the save change nothing
		if _, err := store.Save(dsName, schema, models[i]); err != nil {
			t.Fatalf("store save %s: %v", s.Name, err)
		}
	}
	entries, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(specs) {
		t.Fatalf("store lists %d artifacts, want %d", len(entries), len(specs))
	}
	for _, e := range entries {
		if e.Dataset != dsName {
			t.Fatalf("entry dataset %q, want %q (name escaping broken)", e.Dataset, dsName)
		}
	}
	for i, s := range specs {
		loaded, gotSchema, err := store.Load(dsName, s.Name)
		if err != nil {
			t.Fatalf("store load %s: %v", s.Name, err)
		}
		if gotSchema != schema {
			t.Fatalf("%s: stored schema %q, want %q", s.Name, gotSchema, schema)
		}
		// The cold-loaded model answers exactly as the resident one,
		// which has made estimates before and since it was saved.
		got := loaded.EstimateBatch(test)
		want := models[i].EstimateBatch(test)
		for qi := range test {
			if got[qi] != want[qi] {
				t.Fatalf("%s: stored artifact estimate %v != resident %v", s.Name, got[qi], want[qi])
			}
			if got[qi] < 1 || math.IsNaN(got[qi]) || math.IsInf(got[qi], 0) {
				t.Fatalf("%s: stored artifact estimate %g", s.Name, got[qi])
			}
		}
	}
}
