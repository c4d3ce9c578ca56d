package engine

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

func benchDataset(b *testing.B, tables int) *dataset.Dataset {
	b.Helper()
	p := datagen.Params{
		Tables:  tables,
		MinCols: 3, MaxCols: 4,
		MinRows: 1000, MaxRows: 1000,
		Domain: 50,
		SkewLo: 0, SkewHi: 1,
		CorrLo: 0, CorrHi: 0.5,
		JoinLo: 0.5, JoinHi: 1,
		Seed: 1,
	}
	d, err := datagen.Generate("bench", p)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// benchJoinQuery builds the all-tables FK-join query over d with one range
// predicate per table spanning [1, hi] — hi near the domain top keeps most
// rows (high selectivity in the "fraction kept" sense), a small hi keeps few.
func benchJoinQuery(d *dataset.Dataset, hi int64) *Query {
	all := make([]int, len(d.Tables))
	for i := range all {
		all[i] = i
	}
	q := &Query{Tables: all}
	for _, fk := range d.FKs {
		q.Joins = append(q.Joins, Join{
			LeftTable: fk.FromTable, LeftCol: fk.FromCol,
			RightTable: fk.ToTable, RightCol: fk.ToCol,
		})
	}
	for ti := range d.Tables {
		q.Preds = append(q.Preds, Predicate{Table: ti, Col: 1, Lo: 1, Hi: hi})
	}
	return q
}

func BenchmarkCardinalitySingleTable(b *testing.B) {
	d := benchDataset(b, 1)
	q := &Query{
		Tables: []int{0},
		Preds: []Predicate{
			{Table: 0, Col: 0, Lo: 5, Hi: 30},
			{Table: 0, Col: 1, Lo: 1, Hi: 20},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cardinality(d, q)
	}
}

func BenchmarkCardinalityThreeWayJoin(b *testing.B) {
	d := benchDataset(b, 3)
	all := make([]int, len(d.Tables))
	for i := range all {
		all[i] = i
	}
	q := &Query{Tables: all}
	for _, fk := range d.FKs {
		q.Joins = append(q.Joins, Join{
			LeftTable: fk.FromTable, LeftCol: fk.FromCol,
			RightTable: fk.ToTable, RightCol: fk.ToCol,
		})
	}
	q.Preds = append(q.Preds, Predicate{Table: 0, Col: 1, Lo: 1, Hi: 25})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cardinality(d, q)
	}
}

func BenchmarkCardinalityFourWayJoinHighSel(b *testing.B) {
	d := benchDataset(b, 4)
	q := benchJoinQuery(d, 45)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cardinality(d, q)
	}
}

func BenchmarkCardinalityFourWayJoinLowSel(b *testing.B) {
	d := benchDataset(b, 4)
	q := benchJoinQuery(d, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cardinality(d, q)
	}
}

func BenchmarkCardinalityFiveWayJoinHighSel(b *testing.B) {
	d := benchDataset(b, 5)
	q := benchJoinQuery(d, 45)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cardinality(d, q)
	}
}

func BenchmarkCardinalityFiveWayJoinLowSel(b *testing.B) {
	d := benchDataset(b, 5)
	q := benchJoinQuery(d, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cardinality(d, q)
	}
}

func BenchmarkEvaluatorSingleTable(b *testing.B) {
	d := benchDataset(b, 1)
	ev := NewEvaluator(d)
	q := &Query{
		Tables: []int{0},
		Preds: []Predicate{
			{Table: 0, Col: 0, Lo: 5, Hi: 30},
			{Table: 0, Col: 1, Lo: 1, Hi: 20},
		},
	}
	ev.Cardinality(q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Cardinality(q)
	}
}

func BenchmarkEvaluatorFiveWayJoin(b *testing.B) {
	d := benchDataset(b, 5)
	ev := NewEvaluator(d)
	q := benchJoinQuery(d, 45)
	ev.Cardinality(q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Cardinality(q)
	}
}

func BenchmarkCardinalityBatchFiveWay(b *testing.B) {
	d := benchDataset(b, 5)
	qs := make([]*Query, 256)
	for i := range qs {
		qs[i] = benchJoinQuery(d, int64(5+i%41))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CardinalityBatch(d, qs)
	}
}

func BenchmarkSampleJoin(b *testing.B) {
	d := benchDataset(b, 3)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampleJoin(d, 1000, rng)
	}
}
