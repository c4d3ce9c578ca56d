package ce_test

// Benchmarks for the batched estimation hot path — the surface the serving
// front-end (/estimate) and the testbed's measurement loop ride. Each
// vectorized/parallel EstimateBatch is benchmarked against the per-query
// Estimate loop it replaces (the *PerQuery twins), so the batch-vs-loop
// margin stays visible and regression-gated in every checkout. The
// sampling and message-passing models (NeuroCard, UAE, BayesCard) have
// batch benchmarks only: their allocs/op gate keeps the pooled per-call
// scratch from regressing to per-query garbage.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ce"
	"repro/internal/ce/bayescard"
	"repro/internal/ce/deepdb"
	"repro/internal/ce/lwnn"
	"repro/internal/ce/mscn"
	"repro/internal/ce/neurocard"
	"repro/internal/ce/uae"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/workload"
)

const benchBatch = 64

var benchFixtureOnce sync.Once
var benchIn *ce.TrainInput
var benchQueries []*workload.Query

// benchFixture trains lazily and once: the fixture is shared read-only by
// all estimation benchmarks.
func benchFixture(b *testing.B) (*ce.TrainInput, []*workload.Query) {
	b.Helper()
	benchFixtureOnce.Do(func() {
		p := datagen.Params{
			Tables:  2,
			MinCols: 3, MaxCols: 3,
			MinRows: 400, MaxRows: 600,
			Domain: 40,
			SkewLo: 0, SkewHi: 0.8,
			CorrLo: 0, CorrHi: 0.5,
			JoinLo: 0.5, JoinHi: 1,
			Seed: 9001,
		}
		d, err := datagen.Generate("bench", p)
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(9002))
		qs := workload.Generate(d, workload.DefaultConfig(benchBatch+60, 9003))
		benchIn = &ce.TrainInput{
			Dataset: d,
			Sample:  engine.SampleJoin(d, 600, rng),
			Queries: qs[benchBatch:],
			Sizes:   ce.ComputeSubsetSizes(d),
		}
		benchQueries = qs[:benchBatch]
	})
	return benchIn, benchQueries
}

func fitBench(b *testing.B, m ce.Model) {
	b.Helper()
	in, _ := benchFixture(b)
	if err := m.Fit(in); err != nil {
		b.Fatal(err)
	}
}

func benchBatchPath(b *testing.B, m ce.Model) {
	_, qs := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ests := m.EstimateBatch(qs)
		if len(ests) != len(qs) {
			b.Fatal("short batch")
		}
	}
}

func benchPerQueryPath(b *testing.B, m ce.Model) {
	_, qs := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if m.Estimate(q) < 1 {
				b.Fatal("estimate < 1")
			}
		}
	}
}

func BenchmarkEstimateBatchLWNN(b *testing.B) {
	cfg := lwnn.DefaultConfig()
	cfg.Epochs = 4
	m := lwnn.New(cfg)
	fitBench(b, m)
	benchBatchPath(b, m)
}

func BenchmarkEstimateBatchLWNNPerQuery(b *testing.B) {
	cfg := lwnn.DefaultConfig()
	cfg.Epochs = 4
	m := lwnn.New(cfg)
	fitBench(b, m)
	benchPerQueryPath(b, m)
}

func BenchmarkEstimateBatchMSCN(b *testing.B) {
	cfg := mscn.DefaultConfig()
	cfg.Epochs = 4
	m := mscn.New(cfg)
	fitBench(b, m)
	benchBatchPath(b, m)
}

func BenchmarkEstimateBatchMSCNPerQuery(b *testing.B) {
	cfg := mscn.DefaultConfig()
	cfg.Epochs = 4
	m := mscn.New(cfg)
	fitBench(b, m)
	benchPerQueryPath(b, m)
}

func BenchmarkEstimateBatchDeepDB(b *testing.B) {
	m := deepdb.New(deepdb.DefaultConfig())
	fitBench(b, m)
	benchBatchPath(b, m)
}

func BenchmarkEstimateBatchDeepDBPerQuery(b *testing.B) {
	m := deepdb.New(deepdb.DefaultConfig())
	fitBench(b, m)
	benchPerQueryPath(b, m)
}

func BenchmarkEstimateBatchNeuroCard(b *testing.B) {
	m := neurocard.New(neurocard.DefaultConfig())
	fitBench(b, m)
	benchBatchPath(b, m)
}

func BenchmarkEstimateBatchUAE(b *testing.B) {
	m := uae.New(uae.DefaultConfig())
	fitBench(b, m)
	benchBatchPath(b, m)
}

func BenchmarkEstimateBatchBayesCard(b *testing.B) {
	m := bayescard.New(bayescard.DefaultConfig())
	fitBench(b, m)
	benchBatchPath(b, m)
}
