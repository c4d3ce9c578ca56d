package engine

import (
	"math/rand"

	"repro/internal/dataset"
)

// JoinSample is a row-major sample of the full join of a dataset's tables,
// restricted to non-key columns. Data-driven estimators (DeepDB's SPN,
// NeuroCard's autoregressive model, BayesCard's Bayesian network) train on
// it, mirroring how the original systems learn a joint distribution over
// the (full outer) join of the base tables.
type JoinSample struct {
	// Cols identifies each sample column as (table, column) in the source
	// dataset, in the order of the Rows entries.
	Cols []ColRef
	// Rows holds the sampled tuples; Rows[i][j] is the value of Cols[j].
	Rows [][]int64
	// FullJoinSize is the exact cardinality of the unfiltered join the
	// sample was drawn from (the estimators scale probabilities by it).
	FullJoinSize int64
}

// ColRef names one dataset column.
type ColRef struct{ Table, Col int }

// SampleJoin materializes (a reservoir sample of) the full PK-FK join of
// all tables in d, projected to non-key columns. maxRows caps the sample
// size; rng drives the reservoir. For a single-table dataset the "join" is
// the table itself. Tables disconnected from the join graph contribute via
// cross product, which matches the semantics of a query listing them with
// no join edge; the synthetic generator always produces connected schemas.
//
// Unlike Cardinality, sampling genuinely needs rows, so this is the one
// engine path that still materializes the join — into a flat slot-per-table
// tuple buffer, with the build side of every hash join served by the
// dataset's shared ColIndex.
func SampleJoin(d *dataset.Dataset, maxRows int, rng *rand.Rand) *JoinSample {
	allTables := make([]int, len(d.Tables))
	for i := range allTables {
		allTables[i] = i
	}
	q := &Query{Tables: allTables}
	for _, fk := range d.FKs {
		q.Joins = append(q.Joins, Join{
			LeftTable: fk.FromTable, LeftCol: fk.FromCol,
			RightTable: fk.ToTable, RightCol: fk.ToCol,
		})
	}

	js := &JoinSample{}
	for ti, t := range d.Tables {
		for ci := range t.Cols {
			if ci == t.PKCol || isFKCol(d, ti, ci) {
				continue
			}
			js.Cols = append(js.Cols, ColRef{Table: ti, Col: ci})
		}
	}

	if len(d.Tables) == 1 {
		t := d.Tables[0]
		js.FullJoinSize = int64(t.Rows())
		idx := reservoirIndexes(t.Rows(), maxRows, rng)
		for _, r := range idx {
			row := make([]int64, len(js.Cols))
			for j, cr := range js.Cols {
				row[j] = t.Col(cr.Col).Data[r]
			}
			js.Rows = append(js.Rows, row)
		}
		return js
	}

	tuples, order := materializeJoin(d, q)
	stride := len(order)
	nTup := 0
	if stride > 0 {
		nTup = len(tuples) / stride
	}
	js.FullJoinSize = int64(nTup)
	pos := map[int]int{}
	for i, ti := range order {
		pos[ti] = i
	}
	idx := reservoirIndexes(nTup, maxRows, rng)
	for _, r := range idx {
		tp := tuples[r*stride : (r+1)*stride]
		row := make([]int64, len(js.Cols))
		for j, cr := range js.Cols {
			row[j] = d.Tables[cr.Table].Col(cr.Col).Data[tp[pos[cr.Table]]]
		}
		js.Rows = append(js.Rows, row)
	}
	return js
}

func isFKCol(d *dataset.Dataset, ti, ci int) bool {
	for _, fk := range d.FKs {
		if fk.FromTable == ti && fk.FromCol == ci {
			return true
		}
	}
	return false
}

// reservoirIndexes returns up to k distinct indexes from [0,n), uniformly.
func reservoirIndexes(n, k int, rng *rand.Rand) []int {
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	res := make([]int, k)
	for i := 0; i < k; i++ {
		res[i] = i
	}
	for i := k; i < n; i++ {
		j := rng.Intn(i + 1)
		if j < k {
			res[j] = i
		}
	}
	return res
}

// materializeJoin evaluates the unfiltered join of q and returns the raw
// tuples as a flat buffer: one int32 row id per table of the returned
// order, tuple i occupying tuples[i*len(order) : (i+1)*len(order)]. Join
// build sides come from the dataset's cached ColIndex, so repeated
// materializations against one dataset share the per-column grouping work.
func materializeJoin(d *dataset.Dataset, q *Query) (tuples []int32, order []int) {
	order = joinTableOrder(d, q)
	stride := len(order)
	if stride == 0 {
		return nil, order
	}
	ix := IndexFor(d)
	pos := map[int]int{}
	for i, ti := range order {
		pos[ti] = i
	}

	cur := make([]int32, 0, d.Tables[order[0]].Rows()*stride)
	for r := 0; r < d.Tables[order[0]].Rows(); r++ {
		cur = appendTuple(cur, stride, 0, int32(r))
	}
	joined := map[int]bool{order[0]: true}
	used := make([]bool, len(q.Joins))
	for _, ti := range order[1:] {
		// Find a join edge connecting ti to the joined set.
		found := false
		for ji, j := range q.Joins {
			if used[ji] {
				continue
			}
			var inT, inC, newC int
			switch {
			case j.LeftTable == ti && joined[j.RightTable]:
				inT, inC, newC = j.RightTable, j.RightCol, j.LeftCol
			case j.RightTable == ti && joined[j.LeftTable]:
				inT, inC, newC = j.LeftTable, j.LeftCol, j.RightCol
			default:
				continue
			}
			inData := d.Tables[inT].Col(inC).Data
			inSlot, newSlot := pos[inT], pos[ti]
			ci := ix.Col(ti, newC)
			next := make([]int32, 0, len(cur))
			for i := 0; i < len(cur); i += stride {
				tp := cur[i : i+stride]
				for _, r := range ci.RowsOf(inData[tp[inSlot]]) {
					n := len(next)
					next = append(next, tp...)
					next[n+newSlot] = r
				}
			}
			cur = next
			joined[ti] = true
			used[ji] = true
			found = true
			break
		}
		if !found {
			// Cross product with a disconnected table.
			n := d.Tables[ti].Rows()
			slot := pos[ti]
			next := make([]int32, 0, len(cur)*n)
			for i := 0; i < len(cur); i += stride {
				tp := cur[i : i+stride]
				for r := 0; r < n; r++ {
					k := len(next)
					next = append(next, tp...)
					next[k+slot] = int32(r)
				}
			}
			cur = next
			joined[ti] = true
		}
		if len(cur) == 0 {
			return nil, order
		}
	}
	// Apply any remaining cycle edges as filters.
	for ji, j := range q.Joins {
		if used[ji] || !joined[j.LeftTable] || !joined[j.RightTable] {
			continue
		}
		lcol := d.Tables[j.LeftTable].Col(j.LeftCol).Data
		rcol := d.Tables[j.RightTable].Col(j.RightCol).Data
		ls, rs := pos[j.LeftTable], pos[j.RightTable]
		out := 0
		for i := 0; i < len(cur); i += stride {
			tp := cur[i : i+stride]
			if lcol[tp[ls]] == rcol[tp[rs]] {
				copy(cur[out*stride:], tp)
				out++
			}
		}
		cur = cur[:out*stride]
	}
	return cur, order
}

// joinTableOrder returns q's tables in a connected visiting order (BFS over
// the join edges from the first table), with disconnected tables appended.
func joinTableOrder(d *dataset.Dataset, q *Query) []int {
	if len(q.Tables) == 0 {
		return nil
	}
	adj := map[int][]int{}
	for _, j := range q.Joins {
		adj[j.LeftTable] = append(adj[j.LeftTable], j.RightTable)
		adj[j.RightTable] = append(adj[j.RightTable], j.LeftTable)
	}
	seen := map[int]bool{}
	var order []int
	bfs := func(start int) {
		queue := []int{start}
		seen[start] = true
		for len(queue) > 0 {
			ti := queue[0]
			queue = queue[1:]
			order = append(order, ti)
			for _, nb := range adj[ti] {
				if !seen[nb] && inQuery(q, nb) {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
		}
	}
	bfs(q.Tables[0])
	for _, ti := range q.Tables {
		if !seen[ti] {
			bfs(ti)
		}
	}
	return order
}

func inQuery(q *Query, ti int) bool {
	for _, t := range q.Tables {
		if t == ti {
			return true
		}
	}
	return false
}
