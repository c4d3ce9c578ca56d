// Package pgsim simulates a PostgreSQL-style cost-based query optimizer so
// the paper's end-to-end experiment (Table V) can run without a live
// database. Estimated cardinalities from a CE model are *injected* into
// planning — exactly the protocol of the paper, which patches PostgreSQL
// to read cardinalities of all sub-plan queries from the model — and the
// chosen plan is then "executed" by costing it with true cardinalities
// from the execution engine.
//
// The simulator reproduces the two effects Table V hinges on:
//
//   - single-table workloads: estimates mainly pick the scan operator, so
//     a model's inference latency dominates its end-to-end impact;
//   - multi-table workloads: estimates drive join ordering and operator
//     choice, so accuracy dominates and bad estimates cause bad orders.
package pgsim

import (
	"math"
	"sort"
	"time"

	"repro/internal/ce"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/workload"
)

// Cost-model constants, in abstract cost units (roughly: one unit = one
// sequential tuple access).
const (
	seqTupleCost    = 1.0
	idxTupleCost    = 4.0  // random-access penalty
	idxLookupCost   = 12.0 // B-tree descent
	hashBuildCost   = 1.5
	hashProbeCost   = 1.0
	nljInnerCost    = 2.0
	outputTupleCost = 0.1
)

// CostUnitTime converts abstract cost units into simulated wall-clock time.
const CostUnitTime = 2 * time.Microsecond

// ScanKind names the access path of a base table.
type ScanKind int

// Scan kinds.
const (
	SeqScan ScanKind = iota
	IndexScan
)

// JoinKind names the physical join operator.
type JoinKind int

// Join kinds.
const (
	HashJoin JoinKind = iota
	NestedLoopJoin
)

// Plan is a left-deep join plan over the query's tables.
type Plan struct {
	// Order is the join order (table indexes); Order[0] is the driving
	// table.
	Order []int
	// Scans[t] is the access path of table t.
	Scans map[int]ScanKind
	// Joins[i] is the operator joining Order[i] into the prefix
	// (len = len(Order)-1).
	Joins []JoinKind
	// EstimatedCost is the optimizer's estimate for the whole plan.
	EstimatedCost float64
}

// Optimizer plans queries over one dataset using an injected estimator.
type Optimizer struct {
	d   *dataset.Dataset
	est ce.Estimator
}

// New returns an optimizer that plans with est's cardinalities.
func New(d *dataset.Dataset, est ce.Estimator) *Optimizer {
	return &Optimizer{d: d, est: est}
}

// subQuery builds the sub-plan query over a table subset: the joins and
// predicates of q restricted to those tables.
func subQuery(q *workload.Query, tables []int) *workload.Query {
	in := map[int]bool{}
	for _, t := range tables {
		in[t] = true
	}
	sq := &workload.Query{Query: engine.Query{Tables: append([]int(nil), tables...)}}
	for _, j := range q.Joins {
		if in[j.LeftTable] && in[j.RightTable] {
			sq.Joins = append(sq.Joins, j)
		}
	}
	for _, p := range q.Preds {
		if in[p.Table] {
			sq.Preds = append(sq.Preds, p)
		}
	}
	return sq
}

// Plan chooses the cheapest left-deep plan under the estimator's
// cardinalities. It returns the plan and the wall-clock time spent calling
// the estimator (the model's inference latency for this query, covering
// all sub-plan estimates, as in the paper's protocol).
func (o *Optimizer) Plan(q *workload.Query) (*Plan, time.Duration) {
	var inferTime time.Duration
	cardCache := map[string]float64{}
	estimate := func(tables []int) float64 {
		key := ce.SubsetKey(tables)
		if v, ok := cardCache[key]; ok {
			return v
		}
		//autoce:ignore detpath -- the measured inference time is what Plan reports; plan choice never reads it
		t0 := time.Now()
		v := o.est.Estimate(subQuery(q, tables))
		inferTime += time.Since(t0)
		cardCache[key] = v
		return v
	}

	// Base-table scan choice: an index scan wins when the estimated
	// selectivity is low and the predicate column is "indexed" (we treat
	// every predicated column as indexable, like a freshly tuned system).
	scans := map[int]ScanKind{}
	scanCost := map[int]float64{}
	outRows := map[int]float64{}
	for _, ti := range q.Tables {
		rows := float64(o.d.Tables[ti].Rows())
		estOut := estimate([]int{ti})
		seq := rows * seqTupleCost
		idx := idxLookupCost + estOut*idxTupleCost
		hasPred := false
		for _, p := range q.Preds {
			if p.Table == ti {
				hasPred = true
				break
			}
		}
		if hasPred && idx < seq {
			scans[ti] = IndexScan
			scanCost[ti] = idx
		} else {
			scans[ti] = SeqScan
			scanCost[ti] = seq
		}
		outRows[ti] = estOut
	}
	if len(q.Tables) == 1 {
		ti := q.Tables[0]
		return &Plan{
			Order:         []int{ti},
			Scans:         scans,
			EstimatedCost: scanCost[ti] + outRows[ti]*outputTupleCost,
		}, inferTime
	}

	// Greedy-exhaustive left-deep DP: state = joined subset.
	type state struct {
		order []int
		joins []JoinKind
		cost  float64
		rows  float64
	}
	best := map[string]*state{}
	for _, ti := range q.Tables {
		best[ce.SubsetKey([]int{ti})] = &state{
			order: []int{ti},
			cost:  scanCost[ti],
			rows:  outRows[ti],
		}
	}
	adjacent := func(sub []int, t int) bool {
		for _, j := range q.Joins {
			if j.LeftTable == t && inInts(sub, j.RightTable) {
				return true
			}
			if j.RightTable == t && inInts(sub, j.LeftTable) {
				return true
			}
		}
		return false
	}
	for size := 2; size <= len(q.Tables); size++ {
		// Extend the subsets in key order: an equal-cost tie below keeps
		// the first plan found, which map order would pick at random.
		keys := make([]string, 0, len(best))
		for k := range best {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		next := map[string]*state{}
		for _, k := range keys {
			st := best[k]
			if len(st.order) != size-1 {
				continue
			}
			for _, t := range q.Tables {
				if inInts(st.order, t) || !adjacent(st.order, t) {
					continue
				}
				newSet := append(append([]int(nil), st.order...), t)
				outEst := estimate(newSet)
				inner := outRows[t]
				// Operator choice by estimated cost.
				hash := inner*hashBuildCost + st.rows*hashProbeCost + scanCost[t]
				nlj := st.rows * (idxLookupCost + nljInnerCost)
				kind := HashJoin
				joinCost := hash
				if nlj < hash {
					kind = NestedLoopJoin
					joinCost = nlj
				}
				total := st.cost + joinCost + outEst*outputTupleCost
				key := ce.SubsetKey(newSet)
				if prev, ok := next[key]; !ok || total < prev.cost {
					next[key] = &state{
						order: newSet,
						joins: append(append([]JoinKind(nil), st.joins...), kind),
						cost:  total,
						rows:  outEst,
					}
				}
			}
		}
		for k, v := range next {
			if prev, ok := best[k]; !ok || v.cost < prev.cost {
				best[k] = v
			}
		}
	}
	final := best[ce.SubsetKey(q.Tables)]
	if final == nil {
		// Disconnected query; fall back to table order as given.
		order := append([]int(nil), q.Tables...)
		sort.Ints(order)
		joins := make([]JoinKind, len(order)-1)
		return &Plan{Order: order, Scans: scans, Joins: joins, EstimatedCost: math.Inf(1)}, inferTime
	}
	return &Plan{
		Order:         final.order,
		Scans:         scans,
		Joins:         final.joins,
		EstimatedCost: final.cost,
	}, inferTime
}

// trueCost costs a plan with true cardinalities from the engine — the
// simulated execution time driver. Bad join orders surface here as large
// true intermediate results that the optimizer did not anticipate.
func (o *Optimizer) trueCost(q *workload.Query, p *Plan) float64 {
	trueCard := func(tables []int) float64 {
		return float64(engine.Cardinality(o.d, &subQuery(q, tables).Query))
	}
	ti := p.Order[0]
	rows := float64(o.d.Tables[ti].Rows())
	outPrev := trueCard([]int{ti})
	var cost float64
	if p.Scans[ti] == IndexScan {
		cost = idxLookupCost + outPrev*idxTupleCost
	} else {
		cost = rows * seqTupleCost
	}
	for i := 1; i < len(p.Order); i++ {
		t := p.Order[i]
		innerRows := trueCard([]int{t})
		var scan float64
		if p.Scans[t] == IndexScan {
			scan = idxLookupCost + innerRows*idxTupleCost
		} else {
			scan = float64(o.d.Tables[t].Rows()) * seqTupleCost
		}
		out := trueCard(p.Order[:i+1])
		switch p.Joins[i-1] {
		case HashJoin:
			cost += innerRows*hashBuildCost + outPrev*hashProbeCost + scan
		case NestedLoopJoin:
			cost += outPrev * (idxLookupCost + nljInnerCost)
		}
		cost += out * outputTupleCost
		outPrev = out
	}
	return cost
}

// Result is the simulated end-to-end outcome for one query.
type Result struct {
	Plan      *Plan
	ExecTime  time.Duration // simulated execution (true-cost) time
	InferTime time.Duration // measured estimator time over sub-plans
}

// Run plans and "executes" one query.
func (o *Optimizer) Run(q *workload.Query) Result {
	plan, infer := o.Plan(q)
	cost := o.trueCost(q, plan)
	return Result{
		Plan:      plan,
		ExecTime:  time.Duration(cost * float64(CostUnitTime)),
		InferTime: infer,
	}
}

// Oracle is a true-cardinality estimator (the paper's TrueCard row in
// Table V): it answers every sub-plan query exactly via the engine.
type Oracle struct {
	D *dataset.Dataset
}

// Name implements ce.Estimator.
func (o *Oracle) Name() string { return "TrueCard" }

// Estimate implements ce.Estimator exactly.
func (o *Oracle) Estimate(q *workload.Query) float64 {
	c := engine.Cardinality(o.D, &q.Query)
	if c < 1 {
		return 1
	}
	return float64(c)
}

// EstimateBatch implements ce.Estimator through the engine's batched
// oracle (shared join index, one evaluator per worker).
func (o *Oracle) EstimateBatch(qs []*workload.Query) []float64 {
	eqs := make([]*engine.Query, len(qs))
	for i, q := range qs {
		eqs[i] = &q.Query
	}
	cards := engine.CardinalityBatch(o.D, eqs)
	out := make([]float64, len(qs))
	for i, c := range cards {
		if c < 1 {
			c = 1
		}
		out[i] = float64(c)
	}
	return out
}

func inInts(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
