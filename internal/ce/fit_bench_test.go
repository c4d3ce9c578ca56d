package ce_test

// Benchmarks for Stage-1 training, the largest cost of an advisor build:
// every candidate is fitted on every dataset before the advisor learns.
// The regime is the advisor build's: a 4-table dataset, 120 labeled
// queries and the registry's Fast configuration.

import (
	"sync"
	"testing"

	"repro/internal/ce"
	"repro/internal/datagen"
	"repro/internal/workload"
)

var fitFixtureOnce sync.Once
var fitIn *ce.TrainInput

func fitFixture(b *testing.B) *ce.TrainInput {
	b.Helper()
	fitFixtureOnce.Do(func() {
		p := datagen.Params{
			Tables:  4,
			MinCols: 2, MaxCols: 4,
			MinRows: 200, MaxRows: 400,
			Domain: 40,
			SkewLo: 0, SkewHi: 0.8,
			CorrLo: 0, CorrHi: 0.5,
			JoinLo: 0.5, JoinHi: 1,
			Seed: 9101,
		}
		d, err := datagen.Generate("fitbench", p)
		if err != nil {
			panic(err)
		}
		benchQs := workload.Generate(d, workload.DefaultConfig(120, 9102))
		fitIn = &ce.TrainInput{Dataset: d, Queries: benchQs}
	})
	return fitIn
}

// benchFit fits a fresh Fast registry model per iteration.
func benchFit(b *testing.B, name string) {
	in := fitFixture(b)
	spec, ok := ce.Lookup(name)
	if !ok {
		b.Fatalf("%s is not registered", name)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := spec.New(ce.Config{Fast: true, Seed: 1}).Fit(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitMSCN(b *testing.B)  { benchFit(b, "MSCN") }
func BenchmarkFitLWXGB(b *testing.B) { benchFit(b, "LW-XGB") }
