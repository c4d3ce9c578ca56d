package engine

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
)

// Evaluator executes queries against one dataset through its shared Index,
// owning all scratch memory the evaluation needs: per-table selection
// vectors, a pool of message arrays for the count-propagating join fold,
// and the flat tuple buffers and chain heads of the engine's one
// materializing join (join), which counts components with cycle edges and
// draws SampleJoin's rows. Repeated calls on a warmed evaluator allocate nothing.
//
// Filtering is columnar: a table's selection vector is seeded with the
// contiguous run of row ids that the narrowest predicate on a dense-domain
// column selects from that column's value-grouped ColIndex (a scan of one
// predicate column when none is dense), and each further predicate narrows
// it in place. A wide-domain predicate column is always scanned, never
// indexed for filtering.
//
// An Evaluator is not safe for concurrent use; the Index it wraps is. Use
// one Evaluator per goroutine (CardinalityBatch does this internally) or
// the package-level Cardinality function, which draws pooled evaluators
// from the dataset's shared Index.
type Evaluator struct {
	d  *dataset.Dataset
	ix *Index

	// Per-table selection scratch, indexed by dataset table id. selAll
	// marks tables with no predicates, whose selection is implicitly every
	// row (never materialized); selRows holds the surviving row ids of
	// predicated tables; selCount is the selection size either way.
	selRows  [][]int32
	selAll   []bool
	selCount []int64

	predBuf []Predicate

	// Count-propagation scratch: a pool of reusable message arrays and
	// the child-message stack shared across the tree recursion.
	msgPool  [][]int64
	msgStack []childMsg

	// Component scratch: the breadth-first visiting order of the query's
	// tables, the order position where each table's component starts, and
	// one component's edges.
	order    []int
	comp     []int
	compEdge []Join

	// Materializing-join scratch: two flat tuple buffers (ping-pong), the
	// per-table slot assignment, the joined and used-edge flags of the
	// fold, and a chained hash over filtered rows: the 1-based head
	// position and row count of each key group (all zero between uses) and
	// the next-row links.
	tupA, tupB []int32
	slot       []int
	bound      []bool
	edgeUsed   []bool
	heads      []int32
	hcount     []int64
	chain      []int32
}

// childMsg is one child's message toward its parent, the multiplicity of
// each group of the child's join-key column, and the parent's probe into
// those groups: parent row r joins msg[probe[r]] child rows. A message is
// either the key column's own counts, borrowed read-only, or an array from
// the evaluator's pool.
type childMsg struct {
	msg    []int64
	probe  []int32
	pooled bool
}

// NewEvaluator returns an evaluator over d backed by the dataset's shared
// Index.
func NewEvaluator(d *dataset.Dataset) *Evaluator {
	ix := IndexFor(d)
	return newEvaluator(d, ix)
}

func newEvaluator(d *dataset.Dataset, ix *Index) *Evaluator {
	nt := len(d.Tables)
	return &Evaluator{
		d:        d,
		ix:       ix,
		selRows:  make([][]int32, nt),
		selAll:   make([]bool, nt),
		selCount: make([]int64, nt),
		comp:     make([]int, nt),
		slot:     make([]int, nt),
		bound:    make([]bool, nt),
	}
}

// filter computes the selection of table ti under q's predicates into the
// evaluator's reusable per-table buffers and returns its size. Tables
// without predicates are marked selAll and never materialized.
//
// The selection is columnar. It is seeded from the narrowest predicate on
// a dense-domain column, whose matching rows are one contiguous run of
// that column's ColIndex, and from a scan of the first predicate's column
// only when no predicate column is dense; every further predicate then
// narrows the selection vector in place. The vector is grouped by the
// seed column's value rather than ascending; nothing downstream depends
// on its order, since every count it feeds is an integer sum.
func (e *Evaluator) filter(q *Query, ti int) int64 {
	t := e.d.Tables[ti]
	preds := e.predBuf[:0]
	for _, p := range q.Preds {
		if p.Table == ti {
			preds = append(preds, p)
		}
	}
	e.predBuf = preds
	if len(preds) == 0 {
		e.selAll[ti] = true
		e.selCount[ti] = int64(t.Rows())
		return e.selCount[ti]
	}
	e.selAll[ti] = false

	seed := -1
	var seedRows []int32
	for i, p := range preds {
		if ci := e.ix.denseCol(ti, p.Col); ci != nil {
			if r := ci.rangeRows(p.Lo, p.Hi); seed < 0 || len(r) < len(seedRows) {
				seed, seedRows = i, r
			}
		}
	}
	rows := e.selRows[ti][:0]
	if seed >= 0 {
		rows = append(rows, seedRows...)
	} else {
		seed = 0
		p := preds[0]
		for r, v := range t.Col(p.Col).Data {
			if p.Matches(v) {
				rows = append(rows, int32(r))
			}
		}
	}
	for i, p := range preds {
		if i == seed {
			continue
		}
		data := t.Col(p.Col).Data
		n := 0
		for _, r := range rows {
			if p.Matches(data[r]) {
				rows[n] = r
				n++
			}
		}
		rows = rows[:n]
	}
	e.selRows[ti] = rows
	e.selCount[ti] = int64(len(rows))
	return int64(len(rows))
}

// Cardinality returns the exact number of result tuples of q. Per-table
// selections feed a count-propagating fold over the join graph: acyclic
// components never materialize tuples — each table sends its parent a
// message, the multiplicity of each group of its join-key column — and
// only components with cycle edges fall back to the materializing join
// (flat, buffer-reused tuples). Components and join-free tables combine by
// product.
func (e *Evaluator) Cardinality(q *Query) int64 {
	if len(q.Tables) == 0 {
		return 0
	}
	for _, ti := range q.Tables {
		if e.filter(q, ti) == 0 {
			return 0
		}
	}
	if len(q.Tables) == 1 && len(q.Joins) == 0 {
		return e.selCount[q.Tables[0]]
	}

	// Each pass of the visiting order is one connected component.
	order := e.visit(q.Tables, q.Joins)
	total := int64(1)
	for start, n := 0, 0; start < len(order); start += n {
		for n = 1; start+n < len(order) && e.comp[order[start+n]] == start; n++ {
		}
		edges := e.compEdge[:0]
		for _, j := range q.Joins {
			if e.comp[j.LeftTable] == start {
				edges = append(edges, j)
			}
		}
		e.compEdge = edges

		var c int64
		switch {
		case len(edges) == 0:
			// Join-free table: contributes its filtered count by cross
			// product.
			c = e.selCount[order[start]]
		case len(edges) == n-1:
			c = e.treeCount(order[start], edges)
		default:
			c = e.cyclicCount(order[start:start+n], edges)
		}
		if c == 0 {
			return 0
		}
		total *= c
	}
	return total
}

// visit returns tbls in breadth-first order along edges, each of which
// joins two tables of tbls. A pass starts from the first table of tbls no
// earlier pass reached and follows edges in order, so each pass is one
// connected component; e.comp[t] is the position in the order where t's
// pass starts. The order lives in the evaluator's scratch.
func (e *Evaluator) visit(tbls []int, edges []Join) []int {
	order := e.order[:0]
	for _, ti := range tbls {
		e.comp[ti] = -1
	}
	for _, ti := range tbls {
		if e.comp[ti] >= 0 {
			continue
		}
		start := len(order)
		e.comp[ti] = start
		order = append(order, ti)
		for h := start; h < len(order); h++ {
			for _, j := range edges {
				if j.LeftTable == order[h] && e.comp[j.RightTable] < 0 {
					e.comp[j.RightTable] = start
					order = append(order, j.RightTable)
				}
				if j.RightTable == order[h] && e.comp[j.LeftTable] < 0 {
					e.comp[j.LeftTable] = start
					order = append(order, j.LeftTable)
				}
			}
		}
	}
	e.order = order
	return order
}

// treeCount counts an acyclic join component by multiplicity propagation:
// rooted at root, every table aggregates the product of its children's
// messages over its filtered rows, keyed by the join column toward its
// parent. The root sums instead of keying. No tuple is ever materialized.
func (e *Evaluator) treeCount(root int, edges []Join) int64 {
	base := len(e.msgStack)
	e.pushChildren(root, -1, edges)
	children := e.msgStack[base:]

	t0 := e.d.Tables[root]
	var total int64
	if e.selAll[root] {
		n := t0.Rows()
		for r := 0; r < n; r++ {
			total += e.rowWeight(children, r)
		}
	} else {
		for _, r := range e.selRows[root] {
			total += e.rowWeight(children, int(r))
		}
	}
	e.popChildren(base)
	return total
}

// treeMsg computes the message of table ti toward its parent: the
// multiplicity of each group of column keyCol over ti's filtered rows,
// each row weighted by the product of its children's messages, into a
// pooled array. A leaf table without predicates borrows the column's
// ColIndex counts instead; pooled reports which it is.
func (e *Evaluator) treeMsg(ti, parent int, edges []Join, keyCol int) (msg []int64, pooled bool) {
	base := len(e.msgStack)
	e.pushChildren(ti, parent, edges)
	children := e.msgStack[base:]

	ci := e.ix.Col(ti, keyCol)
	if len(children) == 0 && e.selAll[ti] {
		e.popChildren(base)
		return ci.counts, false
	}

	out := e.getMsg(len(ci.counts))
	code := e.ix.probe(ti, keyCol, ti, keyCol)
	if e.selAll[ti] {
		for r, g := range code {
			if w := e.rowWeight(children, r); w != 0 {
				out[g] += w
			}
		}
	} else {
		for _, r := range e.selRows[ti] {
			if w := e.rowWeight(children, int(r)); w != 0 {
				out[code[r]] += w
			}
		}
	}
	e.popChildren(base)
	return out, true
}

// rowWeight multiplies the children's multiplicities for row r; a value
// missing from any child's key column probes its trailing zero and zeroes
// the row.
func (e *Evaluator) rowWeight(children []childMsg, r int) int64 {
	w := int64(1)
	for i := range children {
		c := &children[i]
		w *= c.msg[c.probe[r]]
		if w == 0 {
			return 0
		}
	}
	return w
}

// pushChildren evaluates the messages of every neighbor of ti except
// parent and pushes them, each with ti's probe into it, onto the message
// stack.
func (e *Evaluator) pushChildren(ti, parent int, edges []Join) {
	for _, j := range edges {
		var other, otherCol, myCol int
		switch {
		case j.LeftTable == ti && j.RightTable != parent:
			other, otherCol, myCol = j.RightTable, j.RightCol, j.LeftCol
		case j.RightTable == ti && j.LeftTable != parent:
			other, otherCol, myCol = j.LeftTable, j.LeftCol, j.RightCol
		default:
			continue
		}
		msg, pooled := e.treeMsg(other, ti, edges, otherCol)
		e.msgStack = append(e.msgStack, childMsg{
			msg:    msg,
			probe:  e.ix.probe(ti, myCol, other, otherCol),
			pooled: pooled,
		})
	}
}

// popChildren returns pooled messages above base and truncates the stack.
func (e *Evaluator) popChildren(base int) {
	for i := base; i < len(e.msgStack); i++ {
		if c := e.msgStack[i]; c.pooled {
			e.msgPool = append(e.msgPool, c.msg)
		}
		e.msgStack[i] = childMsg{}
	}
	e.msgStack = e.msgStack[:base]
}

// getMsg returns a zeroed message array of length n from the pool.
func (e *Evaluator) getMsg(n int) []int64 {
	if l := len(e.msgPool); l > 0 {
		m := e.msgPool[l-1]
		e.msgPool = e.msgPool[:l-1]
		if cap(m) < n {
			return make([]int64, n)
		}
		m = m[:n]
		clear(m)
		return m
	}
	return make([]int64, n)
}

// cyclicCount counts a join component that contains cycle edges (or
// parallel or self edges), its tables in visiting order, as the number of
// tuples its materialized join holds. Workload queries are trees, so
// labeling never reaches this path. It is uncapped, since Cardinality has
// no error path.
func (e *Evaluator) cyclicCount(order []int, edges []Join) int64 {
	tuples, _ := e.join(order, edges, math.MaxInt)
	return int64(len(tuples) / len(order))
}

// ErrJoinTooLarge reports a join that was not materialized because one of
// its steps would pass the caller's cap on row-id slots.
var ErrJoinTooLarge = errors.New("join too large to materialize")

// join is the engine's one materializing join. It folds the tables of
// order, each filtered by the last Cardinality or marked unfiltered, along
// edges into a flat buffer of int32 row ids: tuple i occupies
// [i*len(order), (i+1)*len(order)), and e.slot[t] is the position of
// table t's row within a tuple.
//
// The tables join in order, which is visit's order over these edges: each
// through the first unused edge to the tables already joined
// (extendFlat), or by cross product when no edge reaches them (crossFlat),
// the first table being the cross product with one empty tuple. Every
// leftover edge then filters the tuples in place. Every step keeps tuple
// order, so the result is a deterministic function of the inputs.
//
// Each step sizes its output before writing it and fails with
// ErrJoinTooLarge when that would pass maxSlots row ids. The result lives
// in the evaluator's scratch until its next join.
func (e *Evaluator) join(order []int, edges []Join, maxSlots int) ([]int32, error) {
	stride := len(order)
	for i, ti := range order {
		e.slot[ti] = i
		e.bound[ti] = false
	}
	if cap(e.edgeUsed) < len(edges) {
		e.edgeUsed = make([]bool, len(edges))
	}
	used := e.edgeUsed[:len(edges)]
	clear(used)

	cur := sized(e.tupA, stride)
	clear(cur)
	var err error
	for _, ti := range order {
		pick := -1
		for i, j := range edges {
			if !used[i] && (j.LeftTable == ti && e.bound[j.RightTable] || j.RightTable == ti && e.bound[j.LeftTable]) {
				pick = i
				break
			}
		}
		switch {
		case pick < 0:
			cur, err = e.crossFlat(cur, stride, ti, maxSlots)
		case edges[pick].LeftTable == ti:
			j := edges[pick]
			cur, err = e.extendFlat(cur, stride, j.RightTable, j.RightCol, ti, j.LeftCol, maxSlots)
		default:
			j := edges[pick]
			cur, err = e.extendFlat(cur, stride, j.LeftTable, j.LeftCol, ti, j.RightCol, maxSlots)
		}
		if err != nil {
			return nil, err
		}
		if pick >= 0 {
			used[pick] = true
		}
		e.bound[ti] = true
		if len(cur) == 0 {
			return cur, nil
		}
	}
	for i, j := range edges {
		if used[i] {
			continue
		}
		lcol := e.d.Tables[j.LeftTable].Col(j.LeftCol).Data
		rcol := e.d.Tables[j.RightTable].Col(j.RightCol).Data
		ls, rs := e.slot[j.LeftTable], e.slot[j.RightTable]
		n := 0
		for k := 0; k < len(cur); k += stride {
			tp := cur[k : k+stride]
			if lcol[tp[ls]] == rcol[tp[rs]] {
				copy(cur[n:], tp)
				n += stride
			}
		}
		cur = cur[:n]
	}
	e.tupA = cur
	return cur, nil
}

// extendFlat joins the tuples of cur, bound through inTable.inCol, with
// the rows of newTable that match them on newCol, into the evaluator's
// second tuple buffer, which it swaps with the first. The tuples read
// inCol's probe into newCol's groups; the build side is the shared
// ColIndex's group rows for an unpredicated table, or else a chained hash
// over the reusable selection vector, headed per group. The output holds
// the sum of the probed groups' counts.
func (e *Evaluator) extendFlat(cur []int32, stride, inTable, inCol, newTable, newCol, maxSlots int) ([]int32, error) {
	probe := e.ix.probe(inTable, inCol, newTable, newCol)
	ci := e.ix.Col(newTable, newCol)
	inSlot, newSlot := e.slot[inTable], e.slot[newTable]
	counts, rows := ci.counts, e.selRows[newTable]
	var code []int32 // the chained hash's group of each row; nil when unpredicated
	if !e.selAll[newTable] {
		code = e.ix.probe(newTable, newCol, newTable, newCol)
		if len(e.heads) < len(ci.counts) {
			e.heads = make([]int32, len(ci.counts))
			e.hcount = make([]int64, len(ci.counts))
		}
		e.chain = sized(e.chain, len(rows))
		for i, r := range rows {
			g := code[r]
			e.chain[i] = e.heads[g]
			e.heads[g] = int32(i + 1)
			e.hcount[g]++
		}
		counts = e.hcount
	}
	need := 0
	for i := inSlot; i < len(cur); i += stride {
		need += int(counts[probe[cur[i]]])
	}
	fits := need <= maxSlots/stride
	var dst []int32
	if fits {
		dst = sized(e.tupB, need*stride)
		k := 0
		for i := 0; i < len(cur); i += stride {
			tp := cur[i : i+stride]
			g := probe[tp[inSlot]]
			if code == nil {
				for _, r := range ci.groupRows(g) {
					copy(dst[k:], tp)
					dst[k+newSlot] = r
					k += stride
				}
				continue
			}
			for pos := e.heads[g]; pos != 0; pos = e.chain[pos-1] {
				copy(dst[k:], tp)
				dst[k+newSlot] = rows[pos-1]
				k += stride
			}
		}
	}
	if code != nil {
		for _, r := range rows {
			g := code[r]
			e.heads[g], e.hcount[g] = 0, 0
		}
	}
	if !fits {
		return nil, errJoinTooLarge(int64(need), stride, maxSlots)
	}
	return e.swap(cur, dst), nil
}

// crossFlat joins every tuple of cur with every selected row of table ti,
// tuple-major, into the evaluator's second tuple buffer, which it swaps
// with the first.
func (e *Evaluator) crossFlat(cur []int32, stride, ti, maxSlots int) ([]int32, error) {
	n, nTup := int(e.selCount[ti]), len(cur)/stride
	if n > 0 && nTup > maxSlots/stride/n {
		return nil, errJoinTooLarge(int64(nTup)*int64(n), stride, maxSlots)
	}
	dst := sized(e.tupB, nTup*n*stride)
	slot, all, rows := e.slot[ti], e.selAll[ti], e.selRows[ti]
	k := 0
	for i := 0; i < len(cur); i += stride {
		tp := cur[i : i+stride]
		for x := 0; x < n; x++ {
			copy(dst[k:], tp)
			if all {
				dst[k+slot] = int32(x)
			} else {
				dst[k+slot] = rows[x]
			}
			k += stride
		}
	}
	return e.swap(cur, dst), nil
}

// swap makes dst the evaluator's first tuple buffer and cur, which dst
// replaces, the scratch target of the next step.
func (e *Evaluator) swap(cur, dst []int32) []int32 {
	e.tupA, e.tupB = dst, cur[:0]
	return dst
}

// sized returns buf resliced to length n, reallocating only when its
// capacity falls short; the contents are not preserved.
func sized(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func errJoinTooLarge(tuples int64, stride, maxSlots int) error {
	return fmt.Errorf("%w: a step yields %d tuples of %d tables, %d row-id slots, past the cap of %d",
		ErrJoinTooLarge, tuples, stride, tuples*int64(stride), maxSlots)
}
