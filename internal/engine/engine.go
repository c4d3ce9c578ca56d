// Package engine evaluates select-project-join (SPJ) queries against
// in-memory datasets. It is the repository's ground-truth oracle: the
// testbed executes every workload query here to obtain true cardinalities
// (the paper's Stage 1 labeling pipeline "acquires the true cardinalities
// by running the queries in the database"), and the data-driven estimators
// draw their training samples from its full-join materialization.
//
// Queries are conjunctions of per-column range predicates over a connected
// set of tables joined along PK-FK equi-join edges. Evaluation is columnar
// and count-propagating: each table's predicates reduce to a reusable
// selection vector (seeded from a contiguous run of a value-grouped column
// index, then narrowed predicate by predicate), and acyclic join
// components are counted by propagating multiplicities up the join tree
// instead of materializing intermediate tuples, so time and memory scale
// with the base tables rather than the join result. Each message is an
// array over the groups of a join-key column's index, which a parent reads
// through a cached probe of its own join column; a value missing from the
// key column probes a trailing zero.
//
// The engine has one materializing join, the Evaluator's fold over flat
// row-id tuples (breadth-first table order, hash-join steps through the
// same probes, cross products for unreached tables, leftover edges as
// filters). Two callers need rows: components with cycle edges, which it
// counts uncapped, and SampleJoin, which runs it on a fresh evaluator and
// declines with ErrJoinTooLarge a join past its cap on row-id slots.
//
// Three entry tiers trade convenience for control:
//
//   - Cardinality: a one-shot helper that draws a pooled Evaluator from
//     the dataset's shared Index.
//   - Evaluator: owns all scratch buffers; repeated calls allocate
//     nothing. One per goroutine.
//   - CardinalityBatch: labels a whole workload through a worker pool
//     sharing one Index — the Stage-1 labeling fast path.
//
// The per-dataset Index (columns grouped by value, by counting sort where
// the domain is dense, and the probes between join columns) lives on its
// dataset (dataset.Dataset.Derived) and is collected with it; callers that
// mutate a dataset in place must call InvalidateIndex, and owners that
// keep a dataset past its labeling call it to release the index.
package engine

import (
	"fmt"

	"repro/internal/dataset"
)

// Predicate is a closed-interval range condition Lo <= col <= Hi on one
// column of one table (dataset-level table index).
type Predicate struct {
	Table, Col int
	Lo, Hi     int64
}

// Matches reports whether v satisfies the predicate.
func (p Predicate) Matches(v int64) bool { return v >= p.Lo && v <= p.Hi }

// Join is an equi-join between two table columns. By convention the
// workload generator emits FK joins as (left = FK side, right = PK side),
// but evaluation is symmetric.
type Join struct {
	LeftTable, LeftCol   int
	RightTable, RightCol int
}

// Query is an SPJ query: the joined tables, the equi-join edges connecting
// them, and conjunctive range predicates.
type Query struct {
	Tables []int
	Joins  []Join
	Preds  []Predicate
}

// Validate reports structural errors (unknown tables, joins between
// unlisted tables, out-of-range columns).
func (q *Query) Validate(d *dataset.Dataset) error {
	in := map[int]bool{}
	for _, ti := range q.Tables {
		if ti < 0 || ti >= len(d.Tables) {
			return fmt.Errorf("engine: query references table %d of %d", ti, len(d.Tables))
		}
		in[ti] = true
	}
	for _, j := range q.Joins {
		if !in[j.LeftTable] || !in[j.RightTable] {
			return fmt.Errorf("engine: join references unlisted table")
		}
		if j.LeftCol >= d.Tables[j.LeftTable].NumCols() || j.RightCol >= d.Tables[j.RightTable].NumCols() {
			return fmt.Errorf("engine: join column out of range")
		}
	}
	for _, p := range q.Preds {
		if !in[p.Table] {
			return fmt.Errorf("engine: predicate references unlisted table %d", p.Table)
		}
		if p.Col < 0 || p.Col >= d.Tables[p.Table].NumCols() {
			return fmt.Errorf("engine: predicate column %d out of range", p.Col)
		}
	}
	return nil
}

// Cardinality returns the exact number of result tuples of q over d,
// through a pooled evaluator on the dataset's shared index. For
// many queries against the same dataset prefer CardinalityBatch or a
// dedicated Evaluator.
func Cardinality(d *dataset.Dataset, q *Query) int64 {
	ix := IndexFor(d)
	e := ix.acquire()
	c := e.Cardinality(q)
	ix.release(e)
	return c
}
