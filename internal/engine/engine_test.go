package engine

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// naiveCardinality evaluates q by brute-force nested loops over all row
// combinations of the joined tables — the oracle the hash-join fold is
// cross-checked against.
func naiveCardinality(d *dataset.Dataset, q *Query) int64 {
	var count int64
	rows := make([]int, len(q.Tables))
	var rec func(level int)
	rec = func(level int) {
		if level == len(q.Tables) {
			// Check joins.
			pos := map[int]int{}
			for i, ti := range q.Tables {
				pos[ti] = rows[i]
			}
			for _, j := range q.Joins {
				lv := d.Tables[j.LeftTable].Col(j.LeftCol).Data[pos[j.LeftTable]]
				rv := d.Tables[j.RightTable].Col(j.RightCol).Data[pos[j.RightTable]]
				if lv != rv {
					return
				}
			}
			for _, p := range q.Preds {
				if !p.Matches(d.Tables[p.Table].Col(p.Col).Data[pos[p.Table]]) {
					return
				}
			}
			count++
			return
		}
		n := d.Tables[q.Tables[level]].Rows()
		for r := 0; r < n; r++ {
			rows[level] = r
			rec(level + 1)
		}
	}
	rec(0)
	return count
}

func tinyDataset(t *testing.T, seed int64, tables int) *dataset.Dataset {
	t.Helper()
	p := datagen.Params{
		Tables:  tables,
		MinCols: 2, MaxCols: 3,
		MinRows: 15, MaxRows: 30,
		Domain: 8,
		SkewLo: 0, SkewHi: 1,
		CorrLo: 0, CorrHi: 1,
		JoinLo: 0.3, JoinHi: 1,
		Seed: seed,
	}
	d, err := datagen.Generate("tiny", p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return d
}

func TestSingleTableCardinalityMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		d := tinyDataset(t, int64(trial), 1)
		tbl := d.Tables[0]
		ci := rng.Intn(tbl.NumCols())
		lo := int64(rng.Intn(8))
		hi := lo + int64(rng.Intn(5))
		q := &Query{
			Tables: []int{0},
			Preds:  []Predicate{{Table: 0, Col: ci, Lo: lo, Hi: hi}},
		}
		got := Cardinality(d, q)
		want := naiveCardinality(d, q)
		if got != want {
			t.Fatalf("trial %d: Cardinality = %d, brute force = %d", trial, got, want)
		}
	}
}

func TestJoinCardinalityMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 15; trial++ {
		d := tinyDataset(t, int64(100+trial), 3)
		if len(d.FKs) == 0 {
			continue
		}
		var tables []int
		seen := map[int]bool{}
		var joins []Join
		for _, fk := range d.FKs {
			joins = append(joins, Join{
				LeftTable: fk.FromTable, LeftCol: fk.FromCol,
				RightTable: fk.ToTable, RightCol: fk.ToCol,
			})
			seen[fk.FromTable] = true
			seen[fk.ToTable] = true
		}
		for ti := range d.Tables {
			if seen[ti] {
				tables = append(tables, ti)
			}
		}
		q := &Query{Tables: tables, Joins: joins}
		// Optionally add a predicate.
		if rng.Float64() < 0.7 {
			ti := tables[rng.Intn(len(tables))]
			q.Preds = append(q.Preds, Predicate{Table: ti, Col: 0, Lo: 1, Hi: int64(2 + rng.Intn(6))})
		}
		got := Cardinality(d, q)
		want := naiveCardinality(d, q)
		if got != want {
			t.Fatalf("trial %d: join Cardinality = %d, brute force = %d", trial, got, want)
		}
	}
}

func TestUnfilteredSingleTableIsRowCount(t *testing.T) {
	d := tinyDataset(t, 7, 1)
	q := &Query{Tables: []int{0}}
	if got := Cardinality(d, q); got != int64(d.Tables[0].Rows()) {
		t.Fatalf("unfiltered cardinality %d, want %d", got, d.Tables[0].Rows())
	}
}

func TestPredicateMonotonicity(t *testing.T) {
	// Adding a predicate can never increase cardinality.
	for trial := 0; trial < 10; trial++ {
		d := tinyDataset(t, int64(200+trial), 2)
		q := &Query{Tables: []int{0}}
		base := Cardinality(d, q)
		q.Preds = append(q.Preds, Predicate{Table: 0, Col: 0, Lo: 2, Hi: 6})
		filtered := Cardinality(d, q)
		if filtered > base {
			t.Fatalf("trial %d: filtered %d > base %d", trial, filtered, base)
		}
		q.Preds = append(q.Preds, Predicate{Table: 0, Col: 1, Lo: 1, Hi: 3})
		again := Cardinality(d, q)
		if again > filtered {
			t.Fatalf("trial %d: more predicates increased cardinality %d > %d", trial, again, filtered)
		}
	}
}

func TestEmptyRangeGivesZero(t *testing.T) {
	d := tinyDataset(t, 5, 1)
	q := &Query{
		Tables: []int{0},
		Preds:  []Predicate{{Table: 0, Col: 0, Lo: 100, Hi: 200}},
	}
	if got := Cardinality(d, q); got != 0 {
		t.Fatalf("out-of-domain predicate gave %d, want 0", got)
	}
}

func TestQueryValidate(t *testing.T) {
	d := tinyDataset(t, 3, 2)
	good := &Query{Tables: []int{0}, Preds: []Predicate{{Table: 0, Col: 0, Lo: 1, Hi: 2}}}
	if err := good.Validate(d); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	bad := &Query{Tables: []int{9}}
	if err := bad.Validate(d); err == nil {
		t.Fatal("query with unknown table accepted")
	}
	badPred := &Query{Tables: []int{0}, Preds: []Predicate{{Table: 1, Col: 0, Lo: 1, Hi: 2}}}
	if err := badPred.Validate(d); err == nil {
		t.Fatal("predicate on unlisted table accepted")
	}
}

func TestSampleJoinSingleTable(t *testing.T) {
	d := tinyDataset(t, 21, 1)
	rng := rand.New(rand.NewSource(1))
	js := SampleJoin(d, 10, rng)
	if js.FullJoinSize != int64(d.Tables[0].Rows()) {
		t.Fatalf("full join size %d, want %d", js.FullJoinSize, d.Tables[0].Rows())
	}
	if len(js.Rows) != 10 {
		t.Fatalf("sample rows %d, want 10", len(js.Rows))
	}
	if len(js.Cols) != d.Tables[0].NumCols() {
		t.Fatalf("sample cols %d, want %d", len(js.Cols), d.Tables[0].NumCols())
	}
}

func TestSampleJoinMultiTableMatchesEngine(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		d := tinyDataset(t, int64(300+trial), 3)
		if len(d.FKs) == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(2))
		js := SampleJoin(d, 1<<20, rng)
		// Full join size must equal the engine's unfiltered cardinality
		// over all tables.
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
		want := Cardinality(d, q)
		if js.FullJoinSize != want {
			t.Fatalf("trial %d: FullJoinSize %d, engine %d", trial, js.FullJoinSize, want)
		}
		if int64(len(js.Rows)) != want {
			t.Fatalf("trial %d: uncapped sample has %d rows, want %d", trial, len(js.Rows), want)
		}
		// Sampled columns must exclude PK and FK columns.
		for _, cr := range js.Cols {
			tbl := d.Tables[cr.Table]
			if cr.Col == tbl.PKCol {
				t.Fatalf("trial %d: sample contains PK column", trial)
			}
			for _, fk := range d.FKs {
				if fk.FromTable == cr.Table && fk.FromCol == cr.Col {
					t.Fatalf("trial %d: sample contains FK column", trial)
				}
			}
		}
	}
}

func TestReservoirIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	idx := reservoirIndexes(100, 20, rng)
	if len(idx) != 20 {
		t.Fatalf("reservoir returned %d indexes, want 20", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 100 {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
	small := reservoirIndexes(5, 20, rng)
	if len(small) != 5 {
		t.Fatalf("reservoir over-sampled: %d", len(small))
	}
}
