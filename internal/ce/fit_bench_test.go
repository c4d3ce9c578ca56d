package ce_test

// Benchmarks for Stage-1 training, the largest cost of an advisor build:
// every candidate is fitted on every dataset before the advisor learns.
// The regime is the advisor build's: a 4-table dataset, 120 labeled
// queries and the registry's Fast configuration; NeuroCard and UAE also
// get a join sample and the subset sizes.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ce"
	"repro/internal/datagen"
	"repro/internal/engine"
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

var dataFixtureOnce sync.Once
var dataFitIn *ce.TrainInput

// dataFitFixture is fitFixture plus the data half the data-driven and
// hybrid models read: a 400-row join sample (the quick-scale size) and
// the subset sizes.
func dataFitFixture(b *testing.B) *ce.TrainInput {
	in := fitFixture(b)
	dataFixtureOnce.Do(func() {
		in := *in
		sample, err := engine.SampleJoin(in.Dataset, 400, rand.New(rand.NewSource(9103)))
		if err != nil {
			b.Fatal(err)
		}
		in.Sample = sample
		in.Sizes = ce.ComputeSubsetSizes(in.Dataset)
		dataFitIn = &in
	})
	return dataFitIn
}

// benchFit fits a fresh Fast registry model on in per iteration.
func benchFit(b *testing.B, in *ce.TrainInput, name string) {
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

func BenchmarkFitMSCN(b *testing.B)      { benchFit(b, fitFixture(b), "MSCN") }
func BenchmarkFitLWXGB(b *testing.B)     { benchFit(b, fitFixture(b), "LW-XGB") }
func BenchmarkFitNeuroCard(b *testing.B) { benchFit(b, dataFitFixture(b), "NeuroCard") }
func BenchmarkFitUAE(b *testing.B)       { benchFit(b, dataFitFixture(b), "UAE") }
