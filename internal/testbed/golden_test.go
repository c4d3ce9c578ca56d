package testbed

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// The golden-label differential test pins the deterministic half of the
// labeling pipeline — per-model mean Q-errors and the normalized accuracy
// scores Sa — to values captured from the pre-registry implementation.
// Any refactor of the model zoo, the training dispatch, or the measurement
// path must reproduce these bit-for-bit (hex float64 round trip), which is
// exactly the "labels byte-identical across the API redesign" guarantee.
// Latency-derived quantities (Se, BestModel) are wall-clock measurements
// and are deliberately not pinned.
//
// Refresh (after an intentional numeric change) with:
//
//	go test ./internal/testbed -run TestGoldenLabels -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/labels_golden.json from the current implementation")

type goldenLabel struct {
	Dataset string   `json:"dataset"`
	Tables  int      `json:"tables"`
	Seed    int64    `json:"seed"`
	Models  []string `json:"models"`
	// QErr and Sa are exact hex float64 strings (strconv 'x' format).
	QErr []string `json:"qerr"`
	Sa   []string `json:"sa"`
}

func hexFloats(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatFloat(x, 'x', -1, 64)
	}
	return out
}

func goldenCase(t *testing.T, tables int, seed int64) goldenLabel {
	t.Helper()
	d := fixture(t, tables, seed)
	res, err := Run(d, fastCfg(seed))
	if err != nil {
		t.Fatal(err)
	}
	l := res.Label
	qerrs := make([]float64, len(l.Perfs))
	for i, p := range l.Perfs {
		qerrs[i] = p.QErrorMean
	}
	return goldenLabel{
		Dataset: d.Name,
		Tables:  tables,
		Seed:    seed,
		Models:  append([]string(nil), ModelNames...),
		QErr:    hexFloats(qerrs),
		Sa:      hexFloats(l.Sa),
	}
}

func TestGoldenLabels(t *testing.T) {
	path := filepath.Join("testdata", "labels_golden.json")
	got := []goldenLabel{
		goldenCase(t, 1, 11),
		goldenCase(t, 3, 13),
		goldenCase(t, 5, 15),
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden labels rewritten: %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	var want []goldenLabel
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, test produced %d", len(want), len(got))
	}
	for ci, w := range want {
		g := got[ci]
		if w.Dataset != g.Dataset || w.Tables != g.Tables || w.Seed != g.Seed {
			t.Fatalf("case %d identity drifted: got %s/%d/%d, golden %s/%d/%d",
				ci, g.Dataset, g.Tables, g.Seed, w.Dataset, w.Tables, w.Seed)
		}
		if len(w.Models) != len(g.Models) {
			t.Fatalf("case %d: registry size %d, golden %d", ci, len(g.Models), len(w.Models))
		}
		for i := range w.Models {
			if w.Models[i] != g.Models[i] {
				t.Errorf("case %d model %d: registry order %q, golden (seed) order %q",
					ci, i, g.Models[i], w.Models[i])
			}
		}
		compare := func(kind string, ws, gs []string) {
			if len(ws) != len(gs) {
				t.Fatalf("case %d %s: length %d, golden %d", ci, kind, len(gs), len(ws))
			}
			for i := range ws {
				if ws[i] == gs[i] {
					continue
				}
				wf, _ := strconv.ParseFloat(ws[i], 64)
				gf, _ := strconv.ParseFloat(gs[i], 64)
				t.Errorf("case %d %s[%d] (%s): got %s (%.17g), golden %s (%.17g), |Δ|=%g",
					ci, kind, i, w.Models[i], gs[i], gf, ws[i], wf, math.Abs(wf-gf))
			}
		}
		compare("qerr", w.QErr, g.QErr)
		compare("sa", w.Sa, g.Sa)
	}
}
