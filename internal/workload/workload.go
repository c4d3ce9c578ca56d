// Package workload generates SPJ query workloads against datasets and
// encodes queries as fixed-size feature vectors for the query-driven
// estimators. It mirrors the paper's workload setup (Section VII-A): random
// select-project-join queries with conjunctive range predicates, split into
// training and testing sets, plus a CEB-like templated multi-join workload
// for the Table III experiment.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// Query couples an engine query with its true cardinality (filled by
// Label). TrueCard is -1 until labeled.
type Query struct {
	engine.Query
	TrueCard int64
}

// Config controls random workload generation.
type Config struct {
	// NumQueries is the number of queries to generate.
	NumQueries int
	// MaxPredsPerTable bounds the number of range predicates placed on the
	// non-key columns of each chosen table (at least 1 on one table).
	MaxPredsPerTable int
	// Seed seeds the generator.
	Seed int64
}

// DefaultConfig returns a workload of n queries with at most two range
// predicates per chosen table, sized for this repository's synthetic
// tables, which are about 100x smaller than the paper's.
func DefaultConfig(n int, seed int64) Config {
	return Config{NumQueries: n, MaxPredsPerTable: 2, Seed: seed}
}

// Generate produces cfg.NumQueries random SPJ queries over d, labeled
// with true cardinalities. It is GenerateUnlabeled followed by Label.
func Generate(d *dataset.Dataset, cfg Config) []*Query {
	qs := GenerateUnlabeled(d, cfg)
	Label(d, qs)
	return qs
}

// GenerateUnlabeled produces cfg.NumQueries random SPJ queries over d with
// TrueCard left at -1. Each query joins a connected subset of tables
// (1..all of them) along FK edges and carries range predicates on randomly
// chosen non-key columns. Identical query streams to Generate: labeling
// does not consume the generator's randomness.
func GenerateUnlabeled(d *dataset.Dataset, cfg Config) []*Query {
	rng := rand.New(rand.NewSource(cfg.Seed))
	queries := make([]*Query, 0, cfg.NumQueries)
	adj := d.JoinGraphAdjacency()
	cols := newColBounds(d)
	for len(queries) < cfg.NumQueries {
		q := randomQuery(d, adj, cols, rng, cfg.MaxPredsPerTable)
		if q == nil {
			continue
		}
		q.TrueCard = -1
		queries = append(queries, q)
	}
	return queries
}

// Label acquires the true cardinality of every query from the engine's
// batched oracle (Stage 1 of the paper's labeling pipeline): one shared
// per-dataset join index, one evaluator per worker.
func Label(d *dataset.Dataset, qs []*Query) {
	eqs := make([]*engine.Query, len(qs))
	for i, q := range qs {
		eqs[i] = &q.Query
	}
	for i, c := range engine.CardinalityBatch(d, eqs) {
		qs[i].TrueCard = c
	}
}

// randomQuery builds one random query, or nil when the draw degenerates
// (e.g. a chosen table has no non-key columns to predicate on).
func randomQuery(d *dataset.Dataset, adj [][]int, cols *colBounds, rng *rand.Rand, maxPreds int) *Query {
	nt := len(d.Tables)
	want := 1 + rng.Intn(nt)

	chosen := make([]bool, nt)
	chosen[rng.Intn(nt)] = true
	var joins []engine.Join
	// Grow a connected table set over FK edges. Candidate edges are
	// collected in table order, so the draw below is reproducible.
	for n := 1; n < want; n++ {
		var cands []dataset.ForeignKey
		for ti := range chosen {
			if !chosen[ti] {
				continue
			}
			for _, fki := range adj[ti] {
				fk := d.FKs[fki]
				other := fk.FromTable
				if other == ti {
					other = fk.ToTable
				}
				if !chosen[other] {
					cands = append(cands, fk)
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		fk := cands[rng.Intn(len(cands))]
		other := fk.FromTable
		if chosen[other] {
			other = fk.ToTable
		}
		chosen[other] = true
		joins = append(joins, engine.Join{
			LeftTable: fk.FromTable, LeftCol: fk.FromCol,
			RightTable: fk.ToTable, RightCol: fk.ToCol,
		})
	}
	tables := make([]int, 0, want)
	for ti, in := range chosen {
		if in {
			tables = append(tables, ti)
		}
	}

	var preds []engine.Predicate
	for _, ti := range tables {
		nonKey := cols.nonKey[ti]
		if len(nonKey) == 0 {
			continue
		}
		np := rng.Intn(maxPreds + 1)
		if np == 0 && len(preds) == 0 && ti == tables[len(tables)-1] {
			np = 1 // ensure at least one predicate per query
		}
		perm := rng.Perm(len(nonKey))
		for i := 0; i < np && i < len(nonKey); i++ {
			ci := nonKey[perm[i]]
			lo, hi := cols.minMax(ti, ci)
			if hi <= lo {
				continue
			}
			a := lo + int64(rng.Int63n(hi-lo+1))
			b := lo + int64(rng.Int63n(hi-lo+1))
			if a > b {
				a, b = b, a
			}
			preds = append(preds, engine.Predicate{Table: ti, Col: ci, Lo: a, Hi: b})
		}
	}
	if len(preds) == 0 {
		return nil
	}
	return &Query{Query: engine.Query{Tables: tables, Joins: joins, Preds: preds}}
}

// colBounds holds, for one generator call, each table's predicable
// columns and the value bounds of each column drawn so far, so drawing a
// predicate does not rescan its column.
type colBounds struct {
	d      *dataset.Dataset
	nonKey [][]int             // per table: nonJoinCols
	mm     map[[2]int][2]int64 // (table, column) -> MinMax
}

func newColBounds(d *dataset.Dataset) *colBounds {
	b := &colBounds{d: d, nonKey: make([][]int, len(d.Tables)), mm: map[[2]int][2]int64{}}
	for ti := range d.Tables {
		b.nonKey[ti] = nonJoinCols(d, ti)
	}
	return b
}

// minMax returns the MinMax of column ci of table ti, computed once.
func (b *colBounds) minMax(ti, ci int) (lo, hi int64) {
	k := [2]int{ti, ci}
	mm, ok := b.mm[k]
	if !ok {
		mm[0], mm[1] = b.d.Tables[ti].Col(ci).MinMax()
		b.mm[k] = mm
	}
	return mm[0], mm[1]
}

// nonJoinCols returns the column indexes of table ti that are neither its
// primary key nor an FK column — the columns predicates may touch.
func nonJoinCols(d *dataset.Dataset, ti int) []int {
	t := d.Tables[ti]
	fkCols := map[int]bool{}
	for _, fk := range d.FKs {
		if fk.FromTable == ti {
			fkCols[fk.FromCol] = true
		}
	}
	var out []int
	for ci := range t.Cols {
		if ci == t.PKCol || fkCols[ci] {
			continue
		}
		out = append(out, ci)
	}
	return out
}

// Split partitions queries into train/test by the given training fraction,
// deterministically shuffled with seed.
func Split(qs []*Query, trainFrac float64, seed int64) (train, test []*Query) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(qs))
	cut := int(trainFrac * float64(len(qs)))
	for i, pi := range perm {
		if i < cut {
			train = append(train, qs[pi])
		} else {
			test = append(test, qs[pi])
		}
	}
	return train, test
}

// String renders a query as SQL-ish text for logs and examples.
func String(d *dataset.Dataset, q *Query) string {
	s := "SELECT COUNT(*) FROM "
	for i, ti := range q.Tables {
		if i > 0 {
			s += ", "
		}
		s += d.Tables[ti].Name
	}
	s += " WHERE "
	first := true
	for _, j := range q.Joins {
		if !first {
			s += " AND "
		}
		first = false
		s += fmt.Sprintf("%s.%s = %s.%s",
			d.Tables[j.LeftTable].Name, d.Tables[j.LeftTable].Col(j.LeftCol).Name,
			d.Tables[j.RightTable].Name, d.Tables[j.RightTable].Col(j.RightCol).Name)
	}
	for _, p := range q.Preds {
		if !first {
			s += " AND "
		}
		first = false
		s += fmt.Sprintf("%s.%s BETWEEN %d AND %d",
			d.Tables[p.Table].Name, d.Tables[p.Table].Col(p.Col).Name, p.Lo, p.Hi)
	}
	return s
}
