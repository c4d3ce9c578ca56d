package experiments

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/feature"
)

// BenchmarkLabelDatasets labels six quick-scale 5-table datasets per
// iteration through the Stage-1 driver the advisor paths use: workload
// generation and oracle labeling, feature extraction, and fitting and
// measuring the candidate set on every dataset. LabelDatasets releases
// each dataset's join index and statistics, so every iteration redoes
// the same work.
func BenchmarkLabelDatasets(b *testing.B) {
	sc := QuickScale()
	ds, err := datagen.GenerateCorpus(6, 5, sc.genParams(), sc.Seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LabelDatasets(ds, sc, feature.DefaultConfig(), sc.Seed*3+7); err != nil {
			b.Fatal(err)
		}
	}
}
