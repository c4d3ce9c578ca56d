package repro_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section. Each benchmark regenerates its artifact at
// the quick scale (the full-scale runs are regenerated by
// `go run ./cmd/autoce-exp`); reported ns/op is the cost of one complete
// regeneration, excluding the shared corpus labeling, which is built once
// and reused — exactly how the experiments share Stage 1 in the paper.

import (
	"sync"
	"testing"

	"repro/internal/experiments"
)

var (
	corpusOnce sync.Once
	corpus     *experiments.Corpus
	corpusErr  error
)

func benchCorpus(b *testing.B) *experiments.Corpus {
	b.Helper()
	corpusOnce.Do(func() {
		corpus, corpusErr = experiments.BuildCorpus(experiments.QuickScale())
	})
	if corpusErr != nil {
		b.Fatalf("building corpus: %v", corpusErr)
	}
	return corpus
}

// BenchmarkStage1BuildCorpus regenerates and labels the full QuickScale
// corpus per iteration — the paper's Stage 1 (workload + oracle truths +
// training every candidate model on every dataset) and the training-
// throughput benchmark this repository's CI tracks.
func BenchmarkStage1BuildCorpus(b *testing.B) {
	sc := experiments.QuickScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BuildCorpus(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIDatasetStats(b *testing.B) {
	sc := experiments.QuickScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableI(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1Motivation(b *testing.B) {
	sc := experiments.QuickScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7LossAblation(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8SelectionStrategies(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9FixedModels(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10RealWorld(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11aDMLAblation(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11a(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11bILAblation(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11b(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12OnlineLearning(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13OnlineAdapting(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIIAccuracy(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableII(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIIICEB(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIII(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIVVaryK(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIV(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTau(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationTau(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableVEndToEnd(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableV(c); err != nil {
			b.Fatal(err)
		}
	}
}
