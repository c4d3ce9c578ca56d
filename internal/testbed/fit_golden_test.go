package testbed

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fitGolden is the file form of TestFitGolden: estimates are exact hex
// float64 strings (strconv 'x' format), one list per model in registry
// order, one entry per test query.
type fitGolden struct {
	Dataset string           `json:"dataset"`
	Tables  int              `json:"tables"`
	Seed    int64            `json:"seed"`
	Models  []fitGoldenModel `json:"models"`
}

type fitGoldenModel struct {
	Name      string   `json:"name"`
	Estimates []string `json:"estimates"`
}

// TestFitGolden pins what TestGoldenLabels only sees through a mean: the
// estimate of every model on every test query of the 5-table golden
// fixture, as exact hex float64 strings. A training change that moves one
// query's estimate while the per-model mean Q-error happens to survive
// fails here.
//
// Refresh (after an intentional numeric change) with:
//
//	go test ./internal/testbed -run TestFitGolden -update-golden
func TestFitGolden(t *testing.T) {
	const tables, seed = 5, 15
	path := filepath.Join("testdata", "fit_golden.json")
	d := fixture(t, tables, seed)
	res, err := Run(d, fastCfg(seed))
	if err != nil {
		t.Fatal(err)
	}
	got := fitGolden{Dataset: d.Name, Tables: tables, Seed: seed}
	for _, m := range res.Models {
		got.Models = append(got.Models, fitGoldenModel{Name: m.Name(), Estimates: hexFloats(m.EstimateBatch(res.Test))})
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden estimates rewritten: %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	var want fitGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.Dataset != got.Dataset || want.Tables != got.Tables || want.Seed != got.Seed {
		t.Fatalf("identity drifted: got %s/%d/%d, golden %s/%d/%d",
			got.Dataset, got.Tables, got.Seed, want.Dataset, want.Tables, want.Seed)
	}
	if len(want.Models) != len(got.Models) {
		t.Fatalf("%d models, golden %d", len(got.Models), len(want.Models))
	}
	for mi, w := range want.Models {
		g := got.Models[mi]
		if w.Name != g.Name {
			t.Fatalf("model %d is %q, golden %q", mi, g.Name, w.Name)
		}
		if len(w.Estimates) != len(g.Estimates) {
			t.Fatalf("%s: %d estimates, golden %d", w.Name, len(g.Estimates), len(w.Estimates))
		}
		for qi := range w.Estimates {
			if w.Estimates[qi] != g.Estimates[qi] {
				t.Errorf("%s query %d: got %s, golden %s", w.Name, qi, g.Estimates[qi], w.Estimates[qi])
			}
		}
	}
}
