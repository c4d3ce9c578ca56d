package workload

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
)

// churnArrival generates a large tenant arrival of the online-write
// workload: 3 tables x 40k rows x 4 columns from datagen.DefaultParams.
func churnArrival(b *testing.B) *dataset.Dataset {
	b.Helper()
	p := datagen.DefaultParams(7)
	p.Tables = 3
	p.MinRows, p.MaxRows = 40000, 40000
	p.MinCols, p.MaxCols = 4, 4
	d, err := datagen.Generate("arrival", p)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// benchGenerateLabeled times what /train's oracle does per dataset:
// generating and labeling 160 queries, including the join-index build
// (the index is dropped every iteration).
func benchGenerateLabeled(b *testing.B, d *dataset.Dataset) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.InvalidateIndex(d)
		Generate(d, DefaultConfig(160, 1))
	}
}

// BenchmarkGenerateLabeled labels on dense-domain columns: every join key
// and predicate column is indexed by counting sort.
func BenchmarkGenerateLabeled(b *testing.B) {
	benchGenerateLabeled(b, churnArrival(b))
}

// BenchmarkGenerateLabeledWide labels the same arrival with every value
// scaled by 1e12, which keeps every join and query shape but makes every
// column's domain wide: join-key indexes number their groups through a
// map, and predicates are filtered by scans.
func BenchmarkGenerateLabeledWide(b *testing.B) {
	d := churnArrival(b)
	for _, t := range d.Tables {
		for _, c := range t.Cols {
			for r := range c.Data {
				c.Data[r] *= 1e12
			}
		}
	}
	benchGenerateLabeled(b, d)
}
