package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
)

// This file provides the CEB-like benchmark workload used by the Table III
// experiment. The paper evaluates query-driven estimators on CEB-IMDB, a
// templated multi-join benchmark; we substitute a snowflake schema with a
// fixed set of join templates over 4-8 tables, which exercises the same
// trade-off the experiment measures (per-template accuracy vs. inference
// latency of MSCN / LW-NN / LW-XGB).

// CEBSchema generates the fixed snowflake dataset behind the CEB-like
// workload: a central fact table referencing four dimension tables, two of
// which reference sub-dimensions.
func CEBSchema(seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed ^ 0xCEB))
	base := datagen.Params{
		Tables:  1,
		MinCols: 2, MaxCols: 3,
		MinRows: 600, MaxRows: 1200,
		Domain: 80,
		SkewLo: 0.1, SkewHi: 0.9,
		CorrLo: 0, CorrHi: 0.8,
	}
	d := &dataset.Dataset{Name: "ceb-like"}
	names := []string{"fact", "dim_a", "dim_b", "dim_c", "dim_d", "sub_a", "sub_b", "sub_c"}
	for i, n := range names {
		p := base
		p.Seed = seed + int64(i)*101
		if i == 0 {
			p.MinRows, p.MaxRows = 2500, 3500 // fact table is larger
		}
		t := datagen.SingleTable(rng, n, p)
		d.Tables = append(d.Tables, t)
	}
	addFK := func(from, to int, p float64) {
		toT := d.Tables[to]
		if toT.PKCol < 0 {
			pk := make([]int64, toT.Rows())
			for i := range pk {
				pk[i] = int64(i + 1)
			}
			toT.Cols = append([]*dataset.Column{dataset.NewColumn("id", pk)}, toT.Cols...)
			toT.PKCol = 0
			// Shift existing FK column references into this table.
			for fi := range d.FKs {
				if d.FKs[fi].ToTable == to {
					d.FKs[fi].ToCol++
				}
				if d.FKs[fi].FromTable == to {
					d.FKs[fi].FromCol++
				}
			}
		}
		fromT := d.Tables[from]
		fk := datagen.PopulateFK(rng, toT.Col(toT.PKCol).Data, fromT.Rows(), p)
		fromT.Cols = append(fromT.Cols, dataset.NewColumn(fmt.Sprintf("fk_%s", toT.Name), fk))
		d.FKs = append(d.FKs, dataset.ForeignKey{
			FromTable: from, FromCol: fromT.NumCols() - 1,
			ToTable: to, ToCol: toT.PKCol,
		})
	}
	addFK(0, 1, 0.9)
	addFK(0, 2, 0.7)
	addFK(0, 3, 0.5)
	addFK(0, 4, 0.8)
	addFK(1, 5, 0.9)
	addFK(2, 6, 0.6)
	addFK(3, 7, 0.8)
	return d
}

// CEBTemplate names a join template: which FK edges (by index into the
// schema's FKs) participate.
type CEBTemplate struct {
	Name  string
	Edges []int
}

// CEBTemplates returns the fixed template set: star joins of increasing
// width and deep snowflake chains, 4-8 tables per query.
func CEBTemplates() []CEBTemplate {
	return []CEBTemplate{
		{Name: "star4", Edges: []int{0, 1, 2}},
		{Name: "star5", Edges: []int{0, 1, 2, 3}},
		{Name: "chain4", Edges: []int{0, 4}},
		{Name: "snow6", Edges: []int{0, 1, 4, 5}},
		{Name: "snow7", Edges: []int{0, 1, 2, 4, 5, 6}},
		{Name: "full8", Edges: []int{0, 1, 2, 3, 4, 5, 6}},
	}
}

// CEBWorkload instantiates n queries per template with random predicates
// and true cardinalities over schema d (built by CEBSchema).
func CEBWorkload(d *dataset.Dataset, perTemplate int, seed int64) []*Query {
	rng := rand.New(rand.NewSource(seed))
	cols := newColBounds(d)
	var out []*Query
	for _, tpl := range CEBTemplates() {
		tset := map[int]bool{}
		var joins []engine.Join
		for _, ei := range tpl.Edges {
			fk := d.FKs[ei]
			tset[fk.FromTable] = true
			tset[fk.ToTable] = true
			joins = append(joins, engine.Join{
				LeftTable: fk.FromTable, LeftCol: fk.FromCol,
				RightTable: fk.ToTable, RightCol: fk.ToCol,
			})
		}
		var tables []int
		for ti := 0; ti < len(d.Tables); ti++ {
			if tset[ti] {
				tables = append(tables, ti)
			}
		}
		for i := 0; i < perTemplate; i++ {
			var preds []engine.Predicate
			for _, ti := range tables {
				nonKey := cols.nonKey[ti]
				if len(nonKey) == 0 || rng.Float64() < 0.4 {
					continue
				}
				ci := nonKey[rng.Intn(len(nonKey))]
				lo, hi := cols.minMax(ti, ci)
				if hi <= lo {
					continue
				}
				a := lo + rng.Int63n(hi-lo+1)
				b := lo + rng.Int63n(hi-lo+1)
				if a > b {
					a, b = b, a
				}
				preds = append(preds, engine.Predicate{Table: ti, Col: ci, Lo: a, Hi: b})
			}
			if len(preds) == 0 {
				i--
				continue
			}
			q := &Query{Query: engine.Query{Tables: tables, Joins: joins, Preds: preds}}
			q.TrueCard = -1
			out = append(out, q)
		}
	}
	// Acquire all true cardinalities in one batched pass over the shared
	// per-dataset join index.
	Label(d, out)
	return out
}
