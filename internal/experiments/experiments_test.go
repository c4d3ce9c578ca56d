package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/testbed"
)

// quickCorpus is shared across tests in this package (building it labels
// 32 datasets, the dominant cost).
var quickCorpusCache *Corpus

func quickCorpus(t *testing.T) *Corpus {
	t.Helper()
	if quickCorpusCache != nil {
		return quickCorpusCache
	}
	c, err := BuildCorpus(QuickScale())
	if err != nil {
		t.Fatalf("BuildCorpus: %v", err)
	}
	quickCorpusCache = c
	return c
}

func TestBuildCorpus(t *testing.T) {
	c := quickCorpus(t)
	sc := QuickScale()
	if len(c.Train) != sc.TrainDatasets || len(c.Test) != sc.TestDatasets {
		t.Fatalf("corpus sizes %d/%d", len(c.Train), len(c.Test))
	}
	for _, ld := range append(append([]*LabeledDataset(nil), c.Train...), c.Test...) {
		if ld.Label == nil || ld.Graph == nil {
			t.Fatal("unlabeled corpus entry")
		}
		if len(ld.Label.Sa) == 0 {
			t.Fatal("empty label")
		}
	}
}

func TestFig1(t *testing.T) {
	sc := QuickScale()
	res, err := Fig1(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 3 {
		t.Fatalf("Fig1 has %d models", len(res.Models))
	}
	out := res.Render()
	if !strings.Contains(out, "DeepDB") || !strings.Contains(out, "Figure 1") {
		t.Fatalf("render missing content:\n%s", out)
	}
	for i := range res.Models {
		if res.QErrIMDB[i] < 1 || res.QErrPower[i] < 1 {
			t.Fatal("Q-error below 1")
		}
		if res.LatencyPower[i] <= 0 {
			t.Fatal("non-positive latency")
		}
	}
}

func TestFig7LossComparison(t *testing.T) {
	c := quickCorpus(t)
	res, err := Fig7(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WeightedMean) != 3 || len(res.BasicMean) != 3 {
		t.Fatal("Fig7 incomplete")
	}
	for i := range res.WeightedMean {
		if res.WeightedMean[i] < 0 || res.BasicMean[i] < 0 {
			t.Fatal("negative D-error")
		}
	}
	_ = res.Render()
}

func TestFig8SelectionStrategies(t *testing.T) {
	c := quickCorpus(t)
	res, err := Fig8(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DErrorMean) != len(res.Weights) {
		t.Fatal("Fig8 rows incomplete")
	}
	out := res.Render()
	for _, s := range res.Selectors {
		if !strings.Contains(out, s) {
			t.Fatalf("render missing selector %s", s)
		}
	}
	// AutoCE should not be the worst selector on average at wa=0.9.
	wi := 1 // wa = 0.9
	autoce := res.DErrorMean[wi][0]
	worst := autoce
	for _, d := range res.DErrorMean[wi] {
		if d > worst {
			worst = d
		}
	}
	if autoce == worst && worst > 0 {
		t.Fatalf("AutoCE is the worst selector at wa=0.9: %v", res.DErrorMean[wi])
	}
}

func TestFig9FixedModels(t *testing.T) {
	c := quickCorpus(t)
	res, err := Fig9(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 1+9 {
		t.Fatalf("Fig9 has %d columns", len(res.Names))
	}
	_ = res.Render()
}

// TestFig9ScoresEveryModel: the test corpus is labeled on the full
// registry, so Figure 9 scores Postgres and the ensemble like every other
// model. metrics.DError reads an index past a candidate-only score vector
// as +Inf, so a candidate-only test corpus shows here as infinite cells.
func TestFig9ScoresEveryModel(t *testing.T) {
	c := quickCorpus(t)
	for _, ld := range c.Test {
		if len(ld.Label.Perfs) != testbed.NumModels {
			t.Fatalf("test dataset %s has %d perfs, want %d", ld.D.Name, len(ld.Label.Perfs), testbed.NumModels)
		}
	}
	res, err := Fig9(c)
	if err != nil {
		t.Fatal(err)
	}
	for wi, wa := range res.Weights {
		for mi, d := range res.DError[wi] {
			if math.IsInf(d, 0) || math.IsNaN(d) {
				t.Errorf("wa=%.1f %s: D-error %v", wa, res.Names[mi], d)
			}
		}
	}
}

func TestFig11aDMLAblation(t *testing.T) {
	c := quickCorpus(t)
	res, err := Fig11a(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AutoCE) != 3 || len(res.WithoutDML) != 3 {
		t.Fatal("Fig11a incomplete")
	}
	_ = res.Render()
}

func TestFig13OnlineAdapting(t *testing.T) {
	c := quickCorpus(t)
	res, err := Fig13(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Drifted == 0 {
		t.Fatal("no drifted datasets found")
	}
	_ = res.Render()
}

func TestTableI(t *testing.T) {
	res, err := TableI(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("Table I has %d rows", len(res.Rows))
	}
	out := res.Render()
	if !strings.Contains(out, "IMDB-light") || !strings.Contains(out, "Synthetic") {
		t.Fatalf("render missing rows:\n%s", out)
	}
}

func TestTableIII(t *testing.T) {
	c := quickCorpus(t)
	res, err := TableIII(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 4 {
		t.Fatalf("Table III has %d columns", len(res.Names))
	}
	for wi := range res.Weights {
		// At least one fixed model must have D-error 0 (the optimum).
		hasZero := false
		for i := 1; i < len(res.Names); i++ {
			if res.DError[wi][i] == 0 {
				hasZero = true
			}
		}
		if !hasZero {
			t.Fatalf("no optimal fixed model at wa=%.1f: %v", res.Weights[wi], res.DError[wi])
		}
	}
	_ = res.Render()
}

func TestTableIV(t *testing.T) {
	c := quickCorpus(t)
	res, err := TableIV(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ks) != 5 {
		t.Fatal("Table IV incomplete")
	}
	_ = res.Render()
}

func TestStatsHelper(t *testing.T) {
	s := Stats([]float64{0, 0.1, 0.2, 0.3, 0.4})
	if s.Mean != 0.2 || s.Max != 0.4 {
		t.Fatalf("stats %+v", s)
	}
	if z := Stats(nil); z.Mean != 0 {
		t.Fatal("empty stats")
	}
}

func TestEvalSelectorFailures(t *testing.T) {
	c := quickCorpus(t)
	derrs := EvalSelector(c.Test, 0.9, func(*LabeledDataset) int { return -1 })
	for _, d := range derrs {
		if d <= 0 {
			t.Fatal("failed selection should be penalized")
		}
	}
}
