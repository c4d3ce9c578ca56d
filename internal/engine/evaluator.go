package engine

import (
	"repro/internal/dataset"
)

// Evaluator executes queries against one dataset through its shared Index,
// owning all scratch memory the evaluation needs: per-table selection
// vectors, a pool of message arrays for the count-propagating join fold,
// and flat tuple buffers and chain heads for the cycle-edge fallback.
// Repeated calls on a warmed evaluator allocate nothing.
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

	// Component-analysis scratch (union-find roots, membership flags).
	ufParent []int
	inJoin   []bool
	compDone []bool
	compTbls []int
	compEdge []Join

	// Cycle-fallback scratch: two flat tuple buffers (ping-pong), the
	// per-table slot assignment, the used-edge flags of the fold, and a
	// chained hash over filtered rows: the 1-based head position of each
	// key group (all zero between uses) and the next-row links.
	tupA, tupB []int32
	slot       []int
	bound      []bool
	edgeUsed   []bool
	heads      []int32
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
		ufParent: make([]int, nt),
		inJoin:   make([]bool, nt),
		compDone: make([]bool, nt),
		slot:     make([]int, nt),
		bound:    make([]bool, nt),
	}
}

// Dataset returns the dataset this evaluator executes against.
func (e *Evaluator) Dataset() *dataset.Dataset { return e.d }

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
// only components with cycle edges fall back to (flat, buffer-reused)
// tuple materialization. Components and join-free tables combine by
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

	// Union-find the join graph into connected components.
	for _, ti := range q.Tables {
		e.ufParent[ti] = ti
		e.inJoin[ti] = false
		e.compDone[ti] = false
	}
	for _, j := range q.Joins {
		e.inJoin[j.LeftTable] = true
		e.inJoin[j.RightTable] = true
		e.union(j.LeftTable, j.RightTable)
	}

	total := int64(1)
	for _, ti := range q.Tables {
		if !e.inJoin[ti] {
			// Join-free table: contributes its filtered count by cross
			// product.
			total *= e.selCount[ti]
			continue
		}
		root := e.find(ti)
		if e.compDone[root] {
			continue
		}
		e.compDone[root] = true
		tbls := e.compTbls[:0]
		for _, t2 := range q.Tables {
			if e.inJoin[t2] && e.find(t2) == root {
				tbls = append(tbls, t2)
			}
		}
		edges := e.compEdge[:0]
		for _, j := range q.Joins {
			if e.find(j.LeftTable) == root {
				edges = append(edges, j)
			}
		}
		e.compTbls, e.compEdge = tbls, edges

		var c int64
		if len(edges) == len(tbls)-1 {
			c = e.treeCount(tbls, edges)
		} else {
			c = e.cyclicCount(tbls, edges)
		}
		if c == 0 {
			return 0
		}
		total *= c
	}
	return total
}

func (e *Evaluator) find(x int) int {
	for e.ufParent[x] != x {
		e.ufParent[x] = e.ufParent[e.ufParent[x]]
		x = e.ufParent[x]
	}
	return x
}

func (e *Evaluator) union(a, b int) {
	ra, rb := e.find(a), e.find(b)
	if ra != rb {
		e.ufParent[ra] = rb
	}
}

// treeCount counts an acyclic join component by multiplicity propagation:
// rooted at tbls[0], every table aggregates the product of its children's
// messages over its filtered rows, keyed by the join column toward its
// parent. The root sums instead of keying. No tuple is ever materialized.
func (e *Evaluator) treeCount(tbls []int, edges []Join) int64 {
	root := tbls[0]
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
// parallel/self edges) by the materializing fold: tuples live in a flat
// reused buffer with one int32 slot per component table, join edges either
// extend the tuple set through a hash lookup or — when both sides are
// already bound — filter it in place.
func (e *Evaluator) cyclicCount(tbls []int, edges []Join) int64 {
	stride := len(tbls)
	for i, ti := range tbls {
		e.slot[ti] = i
		e.bound[ti] = false
	}
	bound := e.bound

	// Seed with the first edge's left table.
	seed := edges[0].LeftTable
	cur := e.tupA[:0]
	if e.selAll[seed] {
		n := e.d.Tables[seed].Rows()
		for r := 0; r < n; r++ {
			cur = appendTuple(cur, stride, e.slot[seed], int32(r))
		}
	} else {
		for _, r := range e.selRows[seed] {
			cur = appendTuple(cur, stride, e.slot[seed], r)
		}
	}
	bound[seed] = true
	nTup := len(cur) / stride

	if cap(e.edgeUsed) < len(edges) {
		e.edgeUsed = make([]bool, len(edges))
	}
	used := e.edgeUsed[:len(edges)]
	for i := range used {
		used[i] = false
	}

	for done := 0; done < len(edges); done++ {
		pick := -1
		for i, j := range edges {
			if used[i] {
				continue
			}
			if bound[j.LeftTable] || bound[j.RightTable] {
				pick = i
				break
			}
		}
		if pick == -1 {
			// Unreachable for a connected component; guard anyway.
			break
		}
		j := edges[pick]
		used[pick] = true
		lIn, rIn := bound[j.LeftTable], bound[j.RightTable]
		switch {
		case lIn && rIn:
			// Cycle edge: filter tuples in place.
			lcol := e.d.Tables[j.LeftTable].Col(j.LeftCol).Data
			rcol := e.d.Tables[j.RightTable].Col(j.RightCol).Data
			ls, rs := e.slot[j.LeftTable], e.slot[j.RightTable]
			out := 0
			for i := 0; i < nTup; i++ {
				tp := cur[i*stride : (i+1)*stride]
				if lcol[tp[ls]] == rcol[tp[rs]] {
					copy(cur[out*stride:], tp)
					out++
				}
			}
			nTup = out
			cur = cur[:nTup*stride]
		case lIn:
			cur, nTup = e.extendFlat(cur, nTup, stride, j.LeftTable, j.LeftCol, j.RightTable, j.RightCol)
			bound[j.RightTable] = true
		default:
			cur, nTup = e.extendFlat(cur, nTup, stride, j.RightTable, j.RightCol, j.LeftTable, j.LeftCol)
			bound[j.LeftTable] = true
		}
		if nTup == 0 {
			e.tupA = cur[:0]
			return 0
		}
	}
	e.tupA = cur[:0]
	return int64(nTup)
}

func appendTuple(buf []int32, stride, slot int, r int32) []int32 {
	n := len(buf)
	for i := 0; i < stride; i++ {
		buf = append(buf, 0)
	}
	buf[n+slot] = r
	return buf
}

// extendFlat joins the flat tuple set (bound through inTable.inCol) with
// newTable.newCol. The probe side is the tuple set, read through inCol's
// probe into newCol's groups; the build side is either the shared
// ColIndex's group rows (unpredicated table) or a chained hash over the
// reusable selection vector, headed per group. The result lands in the
// evaluator's second tuple buffer, which is swapped with the first.
func (e *Evaluator) extendFlat(cur []int32, nTup, stride, inTable, inCol, newTable, newCol int) ([]int32, int) {
	probe := e.ix.probe(inTable, inCol, newTable, newCol)
	ci := e.ix.Col(newTable, newCol)
	inSlot, newSlot := e.slot[inTable], e.slot[newTable]
	dst := e.tupB[:0]

	if e.selAll[newTable] {
		for i := 0; i < nTup; i++ {
			tp := cur[i*stride : (i+1)*stride]
			for _, r := range ci.groupRows(probe[tp[inSlot]]) {
				n := len(dst)
				dst = append(dst, tp...)
				dst[n+newSlot] = r
			}
		}
	} else {
		rows := e.selRows[newTable]
		code := e.ix.probe(newTable, newCol, newTable, newCol)
		if len(e.heads) < len(ci.counts) {
			e.heads = make([]int32, len(ci.counts))
		}
		if cap(e.chain) < len(rows) {
			e.chain = make([]int32, len(rows))
		}
		heads, chain := e.heads, e.chain[:len(rows)]
		for i, r := range rows {
			g := code[r]
			chain[i] = heads[g]
			heads[g] = int32(i + 1)
		}
		for i := 0; i < nTup; i++ {
			tp := cur[i*stride : (i+1)*stride]
			for pos := heads[probe[tp[inSlot]]]; pos != 0; pos = chain[pos-1] {
				n := len(dst)
				dst = append(dst, tp...)
				dst[n+newSlot] = rows[pos-1]
			}
		}
		for _, r := range rows {
			heads[code[r]] = 0
		}
	}
	e.tupB = cur[:0] // old buffer becomes the next scratch target
	e.tupA = dst
	return dst, len(dst) / stride
}
