package experiments

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/testbed"
)

// TestParallelCorpusTrainingDeterministic proves the (dataset, model)
// worker pool produces byte-identical training outcomes to the serial
// path: every model trains from its own deterministically seeded RNG over
// read-only shared inputs, so scheduling order cannot leak into the
// results. Accuracy labels (Sa) and the underlying mean Q-errors must
// match bit for bit; efficiency labels (Se) are measured wall-clock
// latency and are inherently nondeterministic on both paths, so they are
// excluded.
func TestParallelCorpusTrainingDeterministic(t *testing.T) {
	p := datagen.DefaultParams(0)
	p.MinRows, p.MaxRows = 120, 250
	ds, err := datagen.GenerateCorpus(3, 3, p, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfgFor := func(i int) testbed.Config {
		return testbed.Config{NumQueries: 40, TrainFrac: 0.55, SampleRows: 200, Fast: true, Seed: 7 + int64(i)*97}
	}

	// Serial reference path.
	serial := make([]*testbed.Label, len(ds))
	for i, d := range ds {
		res, err := testbed.Run(d, cfgFor(i))
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res.Label
		engine.InvalidateIndex(d)
	}

	// Parallel path over the same datasets: prepare, fan the (dataset,
	// model) jobs over a pool wider than the job diversity, finish.
	preps := make([]*testbed.Prepared, len(ds))
	for i, d := range ds {
		if preps[i], err = testbed.Prepare(d, cfgFor(i)); err != nil {
			t.Fatal(err)
		}
		engine.InvalidateIndex(d)
	}
	if err := testbed.TrainAll(preps, 8, nil); err != nil {
		t.Fatal(err)
	}
	for i := range preps {
		res, err := preps[i].Finish()
		if err != nil {
			t.Fatal(err)
		}
		par := res.Label
		if len(par.Sa) != len(serial[i].Sa) {
			t.Fatalf("dataset %d: Sa length %d vs %d", i, len(par.Sa), len(serial[i].Sa))
		}
		for j := range par.Sa {
			if par.Sa[j] != serial[i].Sa[j] {
				t.Fatalf("dataset %d model %d: parallel Sa %v differs from serial %v",
					i, j, par.Sa[j], serial[i].Sa[j])
			}
		}
		for j := range par.Perfs {
			if par.Perfs[j].QErrorMean != serial[i].Perfs[j].QErrorMean {
				t.Fatalf("dataset %d model %d: parallel QErrorMean %v differs from serial %v",
					i, j, par.Perfs[j].QErrorMean, serial[i].Perfs[j].QErrorMean)
			}
		}
	}
}

// TestLabelDatasetsReproducible: labeling one 5-table corpus twice gives
// bit-identical candidate Q-errors. Multi-table workloads used to draw
// their join edges in map order, so reruns measured different queries.
func TestLabelDatasetsReproducible(t *testing.T) {
	p := datagen.DefaultParams(0)
	p.Tables, p.MinRows, p.MaxRows = 5, 120, 250
	var ds []*dataset.Dataset
	for i := int64(0); i < 3; i++ {
		p.Seed = 50 + i
		d, err := datagen.Generate(fmt.Sprintf("five%d", i), p)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	sc := QuickScale()
	sc.Workers = 2
	var runs [2][]*LabeledDataset
	for r := range runs {
		lds, err := LabelDatasets(ds, sc, feature.DefaultConfig(), 9)
		if err != nil {
			t.Fatal(err)
		}
		runs[r] = lds
	}
	for i := range ds {
		for _, m := range testbed.Candidates() {
			a, b := runs[0][i].Label.Perfs[m].QErrorMean, runs[1][i].Label.Perfs[m].QErrorMean
			if a != b {
				t.Errorf("%s %s: Q-error %v then %v", ds[i].Name, testbed.ModelNames[m], a, b)
			}
		}
	}
}

// TestLabelDatasetsLabelsCandidates: LabelDatasets measures the
// NumCandidates candidates only, and each candidate's Perfs entry and Sa
// match the same corpus labeled on the full registry bit for bit.
func TestLabelDatasetsLabelsCandidates(t *testing.T) {
	p := datagen.DefaultParams(0)
	p.MinRows, p.MaxRows = 120, 250
	ds, err := datagen.GenerateCorpus(3, 4, p, 43)
	if err != nil {
		t.Fatal(err)
	}
	sc := QuickScale()
	sc.Workers = 2
	cand, err := LabelDatasets(ds, sc, feature.DefaultConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	full, err := labelDatasets(ds, sc, feature.DefaultConfig(), 5, testbed.Prepare)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds {
		c, f := cand[i].Label, full[i].Label
		if len(c.Perfs) != testbed.NumCandidates || len(f.Perfs) != testbed.NumModels {
			t.Fatalf("%s: %d candidate-run perfs, %d full-run perfs; want %d and %d",
				ds[i].Name, len(c.Perfs), len(f.Perfs), testbed.NumCandidates, testbed.NumModels)
		}
		for j, m := range testbed.Candidates() {
			if c.Perfs[j].QErrorMean != f.Perfs[m].QErrorMean {
				t.Errorf("%s %s: Q-error %v, full registry %v", ds[i].Name, testbed.ModelNames[m], c.Perfs[j].QErrorMean, f.Perfs[m].QErrorMean)
			}
			if c.Sa[j] != f.Sa[j] {
				t.Errorf("%s %s: Sa %v, full registry %v", ds[i].Name, testbed.ModelNames[m], c.Sa[j], f.Sa[j])
			}
		}
	}
}
