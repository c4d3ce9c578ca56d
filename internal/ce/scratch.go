package ce

import (
	"slices"
	"sync"

	"repro/internal/engine"
	"repro/internal/workload"
)

// ScratchPool is a typed sync.Pool of inference scratch: each model keeps
// one per kind of scratch, and Get makes a zero T when the pool is empty.
// A scratch is grown to the largest request it has served and is owned
// by one call between Get and Put, so nothing a call returns may point
// into it.
type ScratchPool[T any] struct{ p sync.Pool }

// Get returns a pooled scratch, or a new zero one.
func (p *ScratchPool[T]) Get() *T {
	if x, _ := p.p.Get().(*T); x != nil {
		return x
	}
	return new(T)
}

// Put returns x to the pool; the caller must not use it afterwards.
func (p *ScratchPool[T]) Put(x *T) { p.p.Put(x) }

// BinRanges is a query's predicates resolved to sample-column bin ranges
// (QueryBinRanges). Cols lists the queried columns in ascending order and
// Range reads one column's inclusive range; Unresolved lists the
// predicates on columns outside the sample (key or FK columns), which the
// caller must handle separately. One BinRanges is reused across queries.
type BinRanges struct {
	Cols       []int
	Unresolved []engine.Predicate
	r          [][2]int // by column, meaningful where set
	set        []bool
}

// Range returns column c's bin range and whether c is queried.
func (br *BinRanges) Range(c int) ([2]int, bool) {
	if c < 0 || c >= len(br.set) || !br.set[c] {
		return [2]int{}, false
	}
	return br.r[c], true
}

// Set marks column c queried with the inclusive bin range r.
func (br *BinRanges) Set(c int, r [2]int) {
	if c >= len(br.set) {
		br.set = append(br.set, make([]bool, c+1-len(br.set))...)
		br.r = append(br.r, make([][2]int, c+1-len(br.r))...)
	}
	if !br.set[c] {
		br.set[c] = true
		i, _ := slices.BinarySearch(br.Cols, c)
		br.Cols = slices.Insert(br.Cols, i, c)
	}
	br.r[c] = r
}

// QueryBinRanges resolves q's predicates into dst, overwriting it. It
// returns false when some predicate selects an empty range (estimate 0);
// dst is then incomplete.
func QueryBinRanges(dst *BinRanges, b *Binner, slots map[[2]int]int, q *workload.Query) bool {
	for _, c := range dst.Cols {
		dst.set[c] = false
	}
	dst.Cols, dst.Unresolved = dst.Cols[:0], dst.Unresolved[:0]
	for _, p := range q.Preds {
		slot, okSlot := slots[[2]int{p.Table, p.Col}]
		if !okSlot {
			dst.Unresolved = append(dst.Unresolved, p)
			continue
		}
		lo, hi, ok := b.BinRange(slot, p.Lo, p.Hi)
		if !ok {
			return false
		}
		if prev, exists := dst.Range(slot); exists {
			lo, hi = max(lo, prev[0]), min(hi, prev[1])
			if lo > hi {
				return false
			}
		}
		dst.Set(slot, [2]int{lo, hi})
	}
	return true
}

// QueryScratch is the per-call working memory of a data-driven estimate:
// the query's bin ranges and its subset key.
type QueryScratch struct {
	Ranges BinRanges
	key    []byte
	tables []int
}

// SubsetKey returns SubsetKey(tables) in the scratch's memory, valid
// until its next call.
func (s *QueryScratch) SubsetKey(tables []int) []byte {
	s.tables = append(s.tables[:0], tables...)
	slices.Sort(s.tables)
	s.key = appendSubsetKey(s.key[:0], s.tables)
	return s.key
}
