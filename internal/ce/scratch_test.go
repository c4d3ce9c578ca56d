package ce_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/par"
	"repro/internal/workload"
)

// TestPooledScratchConcurrent is the regression test for inference
// scratch that outlives its call: for every registry model, eight
// workers call EstimateBatch and Estimate concurrently on shuffled
// sub-batches of 1, 7 and 64 queries. Every answer must be bit-identical
// to a serial reference, and every slice a call returned must still hold
// its answers after the worker's later calls (a pooled buffer handed out
// as a result would be overwritten by them). Run it under -race as well.
func TestPooledScratchConcurrent(t *testing.T) {
	models, specs, qs := trainZoo(t, datagen.Params{
		Tables:  3,
		MinCols: 2, MaxCols: 3,
		MinRows: 150, MaxRows: 250,
		Domain: 25,
		SkewLo: 0, SkewHi: 0.8,
		CorrLo: 0, CorrHi: 0.5,
		JoinLo: 0.5, JoinHi: 1,
		Seed: 5151,
	}, 400, 180)
	if len(qs) < 64 {
		t.Fatalf("fixture has %d test queries, want at least 64", len(qs))
	}
	const workers, rounds = 8, 12
	for i, s := range specs {
		m := models[i]
		ref := make([]float64, len(qs))
		for qi, q := range qs {
			ref[qi] = m.Estimate(q)
		}
		type answer struct {
			idx  []int
			ests []float64 // as returned
			want []float64 // its values when returned
		}
		err := par.For(workers, workers, func(w int) error {
			rng := rand.New(rand.NewSource(int64(w)))
			var kept []answer
			for r := 0; r < rounds; r++ {
				n := []int{1, 7, 64}[r%3]
				idx := rng.Perm(len(qs))[:n]
				batch := make([]*workload.Query, n)
				for k, qi := range idx {
					batch[k] = qs[qi]
				}
				ests := m.EstimateBatch(batch)
				if len(ests) != n {
					t.Errorf("%s: batch of %d answered %d estimates", s.Name, n, len(ests))
					return nil
				}
				kept = append(kept, answer{idx, ests, slices.Clone(ests)})
				single := idx[rng.Intn(n)]
				if got := m.Estimate(qs[single]); math.Float64bits(got) != math.Float64bits(ref[single]) {
					t.Errorf("%s: concurrent Estimate of query %d = %v, serial %v", s.Name, single, got, ref[single])
				}
				for _, a := range kept {
					for k, qi := range a.idx {
						if math.Float64bits(a.want[k]) != math.Float64bits(ref[qi]) {
							t.Errorf("%s: batch estimate of query %d = %v, serial %v", s.Name, qi, a.want[k], ref[qi])
						}
						if math.Float64bits(a.ests[k]) != math.Float64bits(a.want[k]) {
							t.Errorf("%s: a returned estimate changed from %v to %v after later calls", s.Name, a.want[k], a.ests[k])
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
}
