package dataset

import (
	"math/rand"
	"testing"
)

// benchSummaryTable is an 8-column × 100k-row table in this repository's
// data model: a sequential primary key plus bounded integer domains of
// mixed width and skew.
func benchSummaryTable(rows int, seed int64) *Table {
	domains := []int64{0, 40, 120, 120, 300, 1000, 64, 5000}
	rng := rand.New(rand.NewSource(seed))
	cols := make([]*Column, len(domains))
	for c := range domains {
		data := make([]int64, rows)
		switch {
		case c == 0:
			for r := range data {
				data[r] = int64(r + 1)
			}
		case c%3 == 1:
			dom := float64(domains[c])
			for r := range data {
				x := rng.Float64()
				data[r] = 1 + int64(x*x*dom)
			}
		default:
			for r := range data {
				data[r] = 1 + rng.Int63n(domains[c])
			}
		}
		cols[c] = NewColumn(string(rune('a'+c)), data)
	}
	t := NewTable("bench", cols...)
	t.PKCol = 0
	return t
}

// BenchmarkDatasetSummary measures one cold fused table-summary build
// (all column stats + the full pairwise equal-fraction block).
func BenchmarkDatasetSummary(b *testing.B) {
	t := benchSummaryTable(100_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSummary(t)
		if s.Rows != 100_000 {
			b.Fatal("bad summary")
		}
	}
}

// BenchmarkColumnStatsNaiveMap is the seed's map-based distinct-count
// regime for one 100k-row bounded-domain column, kept for comparison
// with the kernel path below.
func BenchmarkColumnStatsNaiveMap(b *testing.B) {
	t := benchSummaryTable(100_000, 1)
	col := t.Col(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seen := make(map[int64]struct{}, len(col.Data))
		for _, v := range col.Data {
			seen[v] = struct{}{}
		}
		if len(seen) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkColumnStats measures the per-call kernel API on the same
// column (histogram path).
func BenchmarkColumnStats(b *testing.B) {
	t := benchSummaryTable(100_000, 1)
	col := t.Col(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := ColumnStats(col)
		if st.Count != 100_000 {
			b.Fatal("bad stats")
		}
	}
}
