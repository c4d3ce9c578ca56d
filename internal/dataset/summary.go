package dataset

import (
	"encoding/binary"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/par"
)

// This file is the fused dataset-statistics engine — the fast path under
// feature extraction. The per-call functions in stats.go (ColumnStats,
// EqualFraction, JoinCorrelation, Column.DistinctCount) define the
// semantics; the types here compute the same numbers in a fraction of
// the passes and allocations:
//
//   - Summary is one table's statistics block. Each column goes through
//     the adaptive statistics kernel (colStatsKernel): a single-pass
//     value histogram for bounded integer domains — moments, min/max,
//     and the exact distinct count all fall out of one scan over the
//     occupied bins — with a generic unrolled two-pass fallback for wide
//     spans (bitset or reused open-addressing set for distinct counting,
//     never a per-call map). The same kernel pass emits two byte planes
//     (low/high byte of every value), and all C(m,2) pairwise
//     equal-fractions come from a SWAR sweep over those planes: 8 rows
//     per uint64, exact popcounts when a pair's combined span fits 8 or
//     16 bits (always, for this repository's bounded domains), and a
//     16-bit fingerprint screen with value verification beyond that — so
//     every count is exact. On multi-core hosts large builds fan columns
//     and pair rows over par.For with GOMAXPROCS workers.
//
//   - Stats is a per-dataset view: lazily built per-table Summaries plus
//     every FK edge's join correlation, derived from one distinct-value
//     set (dense bitset or hash set) per endpoint column — the naive
//     path rebuilds the PK set once per incident FK. StatsFor keeps one
//     Stats on each dataset (Dataset.Derived, shared with
//     engine.IndexFor), so it is collected with the dataset; paths that
//     mutate table data in place call InvalidateStats, and so do owners
//     that keep a dataset past feature extraction, to release it.
//
// Every number is exact: summaries are bit-identical to the per-call API
// (ColumnStats shares colStatsKernel; equal fractions and join
// correlations are exact integer-count ratios). The differential tests
// in summary_test.go pin all of this against independent naive
// implementations, including the seed's ordered two-pass moments (the
// kernels reorder float accumulation, so those agree to ~1e-12 relative
// rather than bit-for-bit).

// ---------------------------------------------------------------- intSet

// intSet is a reusable open-addressing (linear-probe) set of int64 values.
// It exists to replace the throwaway map[int64]struct{} allocations on the
// statistics hot paths; reset reuses the backing arrays across columns.
type intSet struct {
	slots []int64
	used  []bool
	mask  uint64
	n     int
}

// mix64 is a SplitMix64-style finalizer. It is a bijection on uint64, so
// two distinct column values never collide to the same hash (probing
// resolves slot collisions; value collisions cannot happen).
func mix64(v int64) uint64 {
	h := uint64(v)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// reset clears the set and ensures capacity for about hint insertions.
func (s *intSet) reset(hint int) {
	want := 16
	for want < 2*hint {
		want <<= 1
	}
	if cap(s.slots) >= want && len(s.slots) >= want {
		clear(s.used)
		s.n = 0
		return
	}
	s.slots = make([]int64, want)
	s.used = make([]bool, want)
	s.mask = uint64(want - 1)
	s.n = 0
}

// add inserts v and reports whether it was absent.
func (s *intSet) add(v int64) bool {
	i := mix64(v) & s.mask
	for s.used[i] {
		if s.slots[i] == v {
			return false
		}
		i = (i + 1) & s.mask
	}
	s.slots[i] = v
	s.used[i] = true
	s.n++
	if 4*s.n > 3*len(s.slots) {
		s.grow()
	}
	return true
}

// contains reports whether v is in the set.
func (s *intSet) contains(v int64) bool {
	i := mix64(v) & s.mask
	for s.used[i] {
		if s.slots[i] == v {
			return true
		}
		i = (i + 1) & s.mask
	}
	return false
}

// grow doubles the table and rehashes.
func (s *intSet) grow() {
	old, oldUsed := s.slots, s.used
	want := 2 * len(old)
	s.slots = make([]int64, want)
	s.used = make([]bool, want)
	s.mask = uint64(want - 1)
	s.n = 0
	for i, u := range oldUsed {
		if u {
			s.add(old[i])
		}
	}
}

// forEach calls fn for every element.
func (s *intSet) forEach(fn func(v int64)) {
	for i, u := range s.used {
		if u {
			fn(s.slots[i])
		}
	}
}

// ---------------------------------------------------------------- scratch

// summaryScratch is the reusable working memory of one summary build:
// the value histogram of the single-pass kernel, the open-addressing
// distinct set and seen-bitset of the generic path, the per-column
// byte-plane code buffers for the pair sweep, and the pair counters. A
// sync.Pool amortizes it across tables, columns, and goroutines.
type summaryScratch struct {
	set    intSet
	hist   []int32  // histWindow counters; all-zero between uses
	seen   []uint64 // bitset, 1 bit per value in the span
	codes  []byte
	counts []int
}

var scratchPool = sync.Pool{New: func() any { return new(summaryScratch) }}

// spanLimit is the widest value span [lo, hi] worth representing densely
// (bitset or histogram-free distinct structures) for a column of n rows:
// max(4096, 8·n) values, one bit each, keeps even a row-count-sized span
// L1/L2-resident. Shared by distinctCount and distinctSet so the
// heuristic cannot drift between them.
func spanLimit(n int) int64 {
	limit := int64(8 * n)
	if limit < 4096 {
		limit = 4096
	}
	return limit
}

// distinctCount counts distinct values using a branchless seen-bitset
// when the value span [lo, hi] is narrow (at most max(4096, 8·rows)
// values — one bit each keeps even a row-count-sized span L1/L2-resident)
// and the reused hash set otherwise.
func (sc *summaryScratch) distinctCount(data []int64, lo, hi int64) int {
	span := hi - lo + 1
	if span > 0 && span <= spanLimit(len(data)) {
		words := int((span + 63) / 64)
		if len(sc.seen) < words {
			sc.seen = make([]uint64, words)
		}
		seen := sc.seen[:words]
		clear(seen)
		return fillBitset(seen, data, lo)
	}
	sc.set.reset(len(data))
	for _, v := range data {
		sc.set.add(v)
	}
	return sc.set.n
}

// fillBitset marks every value of data (offset by lo) in the zeroed
// bitset and returns the number of distinct values, branchlessly.
func fillBitset(bits []uint64, data []int64, lo int64) int {
	n := 0
	for _, v := range data {
		idx := uint64(v - lo)
		sh := idx & 63
		old := bits[idx>>6]
		n += int(1 &^ (old >> sh))
		bits[idx>>6] = old | uint64(1)<<sh
	}
	return n
}

// ---------------------------------------------------------------- Summary

// Summary is the fused statistics block of one table: per-column ColStats
// and the full pairwise equal-fraction matrix. Every number is identical
// to the naive reference functions (ColumnStats, EqualFraction).
type Summary struct {
	// Rows is the table's row count (also ColStats.Count).
	Rows int
	// Cols holds one fused ColStats per table column.
	Cols []ColStats

	ncols int
	eq    []float64 // ncols×ncols equal-fraction matrix, row-major
}

// EqualFrac returns the fraction of rows where columns a and b hold the
// same value — EqualFraction(t.Col(a), t.Col(b)).
func (s *Summary) EqualFrac(a, b int) float64 { return s.eq[a*s.ncols+b] }

// NewSummary computes one table's fused statistics block. Large builds
// on multi-core hosts fan their per-column kernels and pair-sweep rows
// over par.For with GOMAXPROCS workers; the result is identical to the
// serial build (columns and pairs are independent).
func NewSummary(t *Table) *Summary {
	// One parallel build at a time: when a worker pool (ExtractBatch,
	// corpus labeling) is already running summary builds concurrently,
	// nesting a per-column fan-out under every worker would oversubscribe
	// the CPUs — the CAS lets exactly one build fan out and sends the
	// rest down the serial path.
	if runtime.GOMAXPROCS(0) > 1 && t.NumCols() > 1 && t.Rows() >= 32<<10 &&
		parallelBuild.CompareAndSwap(false, true) {
		defer parallelBuild.Store(false)
		return exactSummaryParallel(t)
	}
	sc := scratchPool.Get().(*summaryScratch)
	defer scratchPool.Put(sc)
	return exactSummary(t, sc)
}

// parallelBuild is true while some exactSummaryParallel is in flight.
var parallelBuild atomic.Bool

// exactSummaryParallel is exactSummary with the per-column kernels
// (each borrowing its own pooled scratch, writing disjoint code planes)
// and then the rows of the pair triangle fanned over par.For.
func exactSummaryParallel(t *Table) *Summary {
	n := t.Rows()
	ncols := t.NumCols()
	workers := runtime.GOMAXPROCS(0)
	s := &Summary{Rows: n, ncols: ncols, Cols: make([]ColStats, ncols), eq: make([]float64, ncols*ncols)}
	codes := make([]byte, 2*ncols*n)
	par.For(ncols, workers, func(ci int) error {
		sc := scratchPool.Get().(*summaryScratch)
		s.Cols[ci] = sc.colStatsKernel(t.Cols[ci].Data, codes[2*ci*n:(2*ci+2)*n])
		scratchPool.Put(sc)
		return nil
	})
	counts := make([]int, ncols*ncols)
	par.For(ncols-1, workers, func(a int) error {
		for b := a + 1; b < ncols; b++ {
			counts[a*ncols+b] = equalCount(
				t.Cols[a].Data, t.Cols[b].Data,
				codes[2*a*n:(2*a+2)*n], codes[2*b*n:(2*b+2)*n],
				&s.Cols[a], &s.Cols[b])
		}
		return nil
	})
	fillEqualFrac(s, counts, n)
	return s
}

// exactSummary is the fused exact sweep: one statistics-kernel pass per
// column (which also emits the column's low-16-bit codes), then the SWAR
// code sweep for all C(m,2) equal-fraction counts.
func exactSummary(t *Table, sc *summaryScratch) *Summary {
	n := t.Rows()
	ncols := t.NumCols()
	s := &Summary{Rows: n, ncols: ncols, Cols: make([]ColStats, ncols), eq: make([]float64, ncols*ncols)}
	if n == 0 {
		return s
	}
	if len(sc.codes) < 2*ncols*n {
		sc.codes = make([]byte, 2*ncols*n)
	}
	for ci, col := range t.Cols {
		s.Cols[ci] = sc.colStatsKernel(col.Data, sc.codes[2*ci*n:(2*ci+2)*n])
	}
	if len(sc.counts) < ncols*ncols {
		sc.counts = make([]int, ncols*ncols)
	}
	counts := sc.counts[:ncols*ncols]
	for a := 0; a < ncols; a++ {
		for b := a + 1; b < ncols; b++ {
			counts[a*ncols+b] = equalCount(
				t.Cols[a].Data, t.Cols[b].Data,
				sc.codes[2*a*n:(2*a+2)*n], sc.codes[2*b*n:(2*b+2)*n],
				&s.Cols[a], &s.Cols[b])
		}
	}
	fillEqualFrac(s, counts, n)
	return s
}

// zeroByteMask has bit 7 of every zero byte of x set (exact: the masked
// per-byte add cannot borrow across bytes).
func zeroByteMask(x uint64) uint64 {
	return ^(((x & 0x7f7f7f7f7f7f7f7f) + 0x7f7f7f7f7f7f7f7f) | x) & 0x8080808080808080
}

// equalCount returns the exact number of positions where a and b hold
// the same value, using the columns' code planes (low and high byte of
// each value, written during the stats pass). Three regimes, coarsest
// applicable wins:
//
//   - combined value span < 2^8: low-byte equality IS value equality —
//     pure SWAR popcount, 8 rows per word, no verification;
//   - combined span < 2^16: equality of both byte planes is value
//     equality — two-plane SWAR popcount, still 8 rows per word. This
//     covers every bounded-domain pair in this repository's data model;
//   - wider (key columns, unbinned user data): the two planes form a
//     16-bit fingerprint; a zero-mask screens 8 rows at once and only
//     candidate words — ~1 in 16k rows for non-equal data — are
//     verified against the actual values, so the count stays exact.
func equalCount(a, b []int64, ca, cb []byte, sa, sb *ColStats) int {
	lo, hi := sa.Min, sa.Max
	if sb.Min < lo {
		lo = sb.Min
	}
	if sb.Max > hi {
		hi = sb.Max
	}
	n := len(a)
	cla, cha := ca[:n], ca[n:2*n]
	clb, chb := cb[:n], cb[n:2*n]
	span := uint64(hi - lo)
	cnt := 0
	k := 0
	switch {
	case span < 1<<8:
		for ; k+8 <= n; k += 8 {
			x := binary.LittleEndian.Uint64(cla[k:]) ^ binary.LittleEndian.Uint64(clb[k:])
			cnt += bits.OnesCount64(zeroByteMask(x))
		}
	case span < 1<<16:
		for ; k+8 <= n; k += 8 {
			x := binary.LittleEndian.Uint64(cla[k:]) ^ binary.LittleEndian.Uint64(clb[k:])
			y := binary.LittleEndian.Uint64(cha[k:]) ^ binary.LittleEndian.Uint64(chb[k:])
			cnt += bits.OnesCount64(zeroByteMask(x) & zeroByteMask(y))
		}
	default:
		for ; k+8 <= n; k += 8 {
			x := binary.LittleEndian.Uint64(cla[k:]) ^ binary.LittleEndian.Uint64(clb[k:])
			y := binary.LittleEndian.Uint64(cha[k:]) ^ binary.LittleEndian.Uint64(chb[k:])
			if zeroByteMask(x)&zeroByteMask(y) != 0 {
				for r := k; r < k+8; r++ {
					if a[r] == b[r] {
						cnt++
					}
				}
			}
		}
	}
	for ; k < n; k++ {
		if a[k] == b[k] {
			cnt++
		}
	}
	return cnt
}

// fillEqualFrac converts pair counters into the symmetric matrix
// (diagonal 1, matching EqualFraction of a column with itself).
func fillEqualFrac(s *Summary, counts []int, rows int) {
	for a := 0; a < s.ncols; a++ {
		s.eq[a*s.ncols+a] = 1
		for b := a + 1; b < s.ncols; b++ {
			f := float64(counts[a*s.ncols+b]) / float64(rows)
			s.eq[a*s.ncols+b] = f
			s.eq[b*s.ncols+a] = f
		}
	}
}

// The statistics kernels. colStatsKernel computes one column's ColStats
// (optionally writing the pair-sweep codes) through one of two paths,
// chosen deterministically from the data:
//
//   - Histogram path: when every value fits a 64Ki-wide window anchored
//     at the first element — always true for this repository's bounded
//     integer domains — a single pass builds a value histogram (plus
//     min/max and codes), and mean, central moments, mean deviation, and
//     the distinct count all come from one scan over the occupied bins:
//     O(rows + span) with ~3 integer ops per element, instead of two
//     full floating-point passes.
//
//   - Generic path: wide-span columns fall back to the classic unrolled
//     sum/min-max pass, a central-moment pass, and a bitset/hash-set
//     distinct pass.
//
// ColumnStats routes through the same kernel, so the per-call naive API
// and the fused Summary sweep are bit-identical by construction; the
// independent naive implementations (EqualFraction, JoinCorrelation,
// Column.DistinctCount, and the seed's ordered two-pass moments) are
// pinned against this kernel by the differential tests.

// histWindow is the histogram width of the single-pass kernel. 64Ki
// int32 counters = 256 KiB, of which only the occupied [lo, hi] slice is
// ever scanned or cleared.
const histWindow = 1 << 16

// colStatsKernel computes the column's statistics; codes, when non-nil,
// receives each value's low byte for the equal-fraction pair sweep.
func (sc *summaryScratch) colStatsKernel(data []int64, codes []byte) ColStats {
	n := len(data)
	if n == 0 {
		return ColStats{}
	}
	if int64(n) <= math.MaxInt32 {
		if st, ok := sc.histStats(data, codes); ok {
			return st
		}
	}
	return sc.genericStats(data, codes)
}

// histStats is the single-pass histogram kernel: the hot loop is four
// integer ops per element (window check, counter increment, code write);
// min/max, the distinct count, and the weighted mean then come from one
// scan over the histogram and the central moments from a second scan
// over its occupied range. It reports ok=false — leaving the histogram
// clean — when some value escapes the window, and the caller falls back
// to the generic path.
func (sc *summaryScratch) histStats(data []int64, codes []byte) (ColStats, bool) {
	if len(sc.hist) < histWindow {
		sc.hist = make([]int32, histWindow)
	}
	// Anchoring within histWindow of either int64 extreme would make the
	// window arithmetic wrap (MaxInt64 and MinInt64 could land in the
	// same window and corrupt min/max); such columns take the generic
	// path.
	if data[0] > math.MaxInt64-histWindow || data[0] < math.MinInt64+histWindow {
		return ColStats{}, false
	}
	hist := sc.hist[:histWindow]
	base := data[0] - histWindow/2
	// occ is a register-resident occupancy mask: bit b covers histogram
	// block [b·1024, (b+1)·1024), so the post-pass scans and the clear
	// touch only occupied blocks (one block for a typical bounded
	// domain), not all 64Ki counters.
	var occ uint64
	bailed := false
	if codes == nil {
		for _, v := range data {
			idx := uint64(v) - uint64(base)
			if idx >= histWindow {
				bailed = true
				break
			}
			hist[idx]++
			occ |= 1 << (idx >> 10)
		}
	} else {
		cl, ch := codes[:len(data)], codes[len(data):2*len(data)]
		for i, v := range data {
			idx := uint64(v) - uint64(base)
			if idx >= histWindow {
				bailed = true
				break
			}
			hist[idx]++
			occ |= 1 << (idx >> 10)
			cl[i] = byte(v)
			ch[i] = byte(uint64(v) >> 8)
		}
	}
	if bailed {
		for rest := occ; rest != 0; rest &= rest - 1 {
			blk := bits.TrailingZeros64(rest)
			clear(hist[blk<<10 : (blk+1)<<10])
		}
		return ColStats{}, false
	}
	n := len(data)
	loIdx, hiIdx := -1, 0
	var wsum float64
	distinct := 0
	for rest := occ; rest != 0; rest &= rest - 1 {
		blk := bits.TrailingZeros64(rest)
		for i, c := range hist[blk<<10 : (blk+1)<<10] {
			if c != 0 {
				gi := blk<<10 + i
				distinct++
				wsum += float64(c) * float64(base+int64(gi))
				if loIdx < 0 {
					loIdx = gi
				}
				hiIdx = gi
			}
		}
	}
	mean := wsum / float64(n)
	var m2, m3, m4, mad float64
	for rest := occ; rest != 0; rest &= rest - 1 {
		blk := bits.TrailingZeros64(rest)
		blockCounts := hist[blk<<10 : (blk+1)<<10]
		for i, c := range blockCounts {
			if c != 0 {
				d := float64(base+int64(blk<<10+i)) - mean
				e := d * d
				fc := float64(c)
				m2 += fc * e
				m3 += fc * e * d
				m4 += fc * e * e
				mad += fc * math.Abs(d)
			}
		}
		clear(blockCounts)
	}
	lo, hi := base+int64(loIdx), base+int64(hiIdx)
	return assembleColStats(n, mean, lo, hi, m2, m3, m4, mad, distinct), true
}

// genericStats is the wide-span fallback: an unrolled sum/min-max pass
// (which also writes the codes), a two-lane central-moment pass, and a
// distinct pass over reused scratch.
func (sc *summaryScratch) genericStats(data []int64, codes []byte) ColStats {
	n := len(data)
	sum, lo, hi := sumMinMax(data, codes)
	mean := sum / float64(n)
	m2, m3, m4, mad := momentPass(data, mean)
	return assembleColStats(n, mean, lo, hi, m2, m3, m4, mad, sc.distinctCount(data, lo, hi))
}

// sumMinMax returns the float sum and integer bounds of data (which must
// be non-empty), writing the byte-plane codes when codes is non-nil. Four
// accumulator lanes break the serial FP-add dependency chain; lane j
// takes elements with index ≡ j within the unrolled group and partials
// combine as (s0+s1)+(s2+s3).
func sumMinMax(data []int64, codes []byte) (sum float64, lo, hi int64) {
	var cl, ch []byte
	if codes != nil {
		cl, ch = codes[:len(data)], codes[len(data):2*len(data)]
	}
	lo, hi = data[0], data[0]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(data); i += 4 {
		v0, v1, v2, v3 := data[i], data[i+1], data[i+2], data[i+3]
		s0 += float64(v0)
		s1 += float64(v1)
		s2 += float64(v2)
		s3 += float64(v3)
		if cl != nil {
			cl[i] = byte(v0)
			cl[i+1] = byte(v1)
			cl[i+2] = byte(v2)
			cl[i+3] = byte(v3)
			ch[i] = byte(uint64(v0) >> 8)
			ch[i+1] = byte(uint64(v1) >> 8)
			ch[i+2] = byte(uint64(v2) >> 8)
			ch[i+3] = byte(uint64(v3) >> 8)
		}
		if v0 < lo {
			lo = v0
		}
		if v0 > hi {
			hi = v0
		}
		if v1 < lo {
			lo = v1
		}
		if v1 > hi {
			hi = v1
		}
		if v2 < lo {
			lo = v2
		}
		if v2 > hi {
			hi = v2
		}
		if v3 < lo {
			lo = v3
		}
		if v3 > hi {
			hi = v3
		}
	}
	for j := 0; i < len(data); i, j = i+1, j+1 {
		v := data[i]
		switch j {
		case 0:
			s0 += float64(v)
		case 1:
			s1 += float64(v)
		default:
			s2 += float64(v)
		}
		if cl != nil {
			cl[i] = byte(v)
			ch[i] = byte(uint64(v) >> 8)
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return (s0 + s1) + (s2 + s3), lo, hi
}

// momentPass accumulates the 2nd/3rd/4th central moments and the mean
// absolute deviation (unnormalized) in two interleaved lanes, four
// elements in flight per iteration.
func momentPass(data []int64, mean float64) (m2, m3, m4, mad float64) {
	var p2, p3, p4, pa, q2, q3, q4, qa float64
	i := 0
	for ; i+4 <= len(data); i += 4 {
		d0 := float64(data[i]) - mean
		e0 := d0 * d0
		d1 := float64(data[i+1]) - mean
		e1 := d1 * d1
		d2 := float64(data[i+2]) - mean
		e2 := d2 * d2
		d3 := float64(data[i+3]) - mean
		e3 := d3 * d3
		p2 += e0 + e2
		p3 += e0*d0 + e2*d2
		p4 += e0*e0 + e2*e2
		pa += math.Abs(d0) + math.Abs(d2)
		q2 += e1 + e3
		q3 += e1*d1 + e3*d3
		q4 += e1*e1 + e3*e3
		qa += math.Abs(d1) + math.Abs(d3)
	}
	for j := 0; i < len(data); i, j = i+1, j+1 {
		d0 := float64(data[i]) - mean
		e0 := d0 * d0
		if j%2 == 0 {
			p2 += e0
			p3 += e0 * d0
			p4 += e0 * e0
			pa += math.Abs(d0)
		} else {
			q2 += e0
			q3 += e0 * d0
			q4 += e0 * e0
			qa += math.Abs(d0)
		}
	}
	return p2 + q2, p3 + q3, p4 + q4, pa + qa
}

// assembleColStats normalizes the accumulated moments into a ColStats.
func assembleColStats(n int, mean float64, lo, hi int64, m2, m3, m4, mad float64, distinct int) ColStats {
	fn := float64(n)
	m2 /= fn
	m3 /= fn
	m4 /= fn
	mad /= fn
	st := ColStats{
		Count:      n,
		Mean:       mean,
		Std:        math.Sqrt(m2),
		MeanDev:    mad,
		Min:        lo,
		Max:        hi,
		Range:      float64(hi - lo),
		DomainSize: distinct,
	}
	if m2 > 0 {
		st.Skewness = m3 / math.Pow(m2, 1.5)
		st.Kurtosis = m4/(m2*m2) - 3
	}
	return st
}

// ------------------------------------------------------------------ Stats

// Stats is the per-dataset statistics view: lazily built per-table
// Summaries plus the join correlation of every FK edge, derived from one
// distinct-value set per endpoint column. A Stats is safe for concurrent
// use — feature.ExtractBatch fans Summary builds over a worker pool.
type Stats struct {
	d *Dataset

	tabOnce []sync.Once
	tabs    []*Summary
	fkOnce  sync.Once
	fkCorr  []float64
	domOnce sync.Once
	domains int
}

// Dataset returns the dataset this view was built over.
func (st *Stats) Dataset() *Dataset { return st.d }

// Summary returns table ti's statistics block, computing it on first use.
func (st *Stats) Summary(ti int) *Summary {
	st.tabOnce[ti].Do(func() {
		st.tabs[ti] = NewSummary(st.d.Tables[ti])
	})
	return st.tabs[ti]
}

// FKCorrelations returns the measured join correlation of every FK edge,
// in order. Each endpoint column's distinct-value set is computed once
// and shared by all incident edges. The returned slice is owned by the
// Stats; callers must not modify it.
func (st *Stats) FKCorrelations() []float64 {
	st.fkOnce.Do(func() {
		st.fkCorr = make([]float64, len(st.d.FKs))
		if len(st.d.FKs) == 0 {
			return
		}
		st.fkCorrExact()
	})
	return st.fkCorr
}

type colKey struct{ table, col int }

// distinctSet is one column's set of distinct values: a dense bitset
// over [lo, hi] when the span is narrow relative to the row count (the
// common case for both bounded domains and dense key columns), or the
// open-addressing hash set otherwise.
type distinctSet struct {
	lo, hi int64
	bits   []uint64
	set    *intSet
	n      int
}

func newDistinctSet(data []int64) *distinctSet {
	ds := &distinctSet{}
	if len(data) == 0 {
		return ds
	}
	lo, hi := data[0], data[0]
	for _, v := range data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	ds.lo, ds.hi = lo, hi
	span := hi - lo + 1
	if span > 0 && span <= spanLimit(len(data)) {
		ds.bits = make([]uint64, (span+63)/64)
		ds.n = fillBitset(ds.bits, data, lo)
		return ds
	}
	ds.set = new(intSet)
	ds.set.reset(len(data))
	for _, v := range data {
		ds.set.add(v)
	}
	ds.n = ds.set.n
	return ds
}

func (ds *distinctSet) contains(v int64) bool {
	if ds.bits != nil {
		if v < ds.lo || v > ds.hi {
			return false
		}
		idx := uint64(v - ds.lo)
		return ds.bits[idx>>6]&(uint64(1)<<(idx&63)) != 0
	}
	if ds.set == nil {
		return false
	}
	return ds.set.contains(v)
}

func (ds *distinctSet) forEach(fn func(v int64)) {
	if ds.bits != nil {
		for wi, w := range ds.bits {
			for ; w != 0; w &= w - 1 {
				fn(ds.lo + int64(wi<<6+bits.TrailingZeros64(w)))
			}
		}
		return
	}
	if ds.set != nil {
		ds.set.forEach(fn)
	}
}

// fkCorrExact mirrors JoinCorrelation exactly: |D(fk) ∩ D(pk)| / |D(pk)|
// with one distinct set built per endpoint column and shared by every
// incident edge.
func (st *Stats) fkCorrExact() {
	sets := make(map[colKey]*distinctSet)
	setOf := func(ti, ci int) *distinctSet {
		k := colKey{ti, ci}
		if s, ok := sets[k]; ok {
			return s
		}
		s := newDistinctSet(st.d.Tables[ti].Col(ci).Data)
		sets[k] = s
		return s
	}
	for i, fk := range st.d.FKs {
		pkSet := setOf(fk.ToTable, fk.ToCol)
		if pkSet.n == 0 {
			continue
		}
		fkSet := setOf(fk.FromTable, fk.FromCol)
		inter := 0
		fkSet.forEach(func(v int64) {
			if pkSet.contains(v) {
				inter++
			}
		})
		st.fkCorr[i] = float64(inter) / float64(pkSet.n)
	}
}

// TotalDomainSize sums the per-column domain sizes of every table.
func (st *Stats) TotalDomainSize() int {
	st.domOnce.Do(func() {
		// Domain sizes only need a min/max pass and a distinct pass per
		// column — not the full Summary with its pairwise equal-fraction
		// sweep — so this aggregate has its own lazy path.
		sc := scratchPool.Get().(*summaryScratch)
		defer scratchPool.Put(sc)
		for _, t := range st.d.Tables {
			for _, c := range t.Cols {
				if len(c.Data) == 0 {
					continue
				}
				lo, hi := c.MinMax()
				st.domains += sc.distinctCount(c.Data, lo, hi)
			}
		}
	})
	return st.domains
}

// ------------------------------------------------------------- the view

// statsKey keys the Stats view in Dataset.Derived.
type statsKey struct{}

// StatsFor returns the shared statistics view of d, creating it on first
// use. The view lives on d until its owner drops it with InvalidateStats
// or d is collected. Feature extraction is its only reader, so owners
// that keep a dataset past extraction release it then: the offline
// corpus (experiments.LabelDatasets) and autoce-serve's onboarding.
func StatsFor(d *Dataset) *Stats {
	return d.Derived(statsKey{}, func() any {
		return &Stats{
			d:       d,
			tabOnce: make([]sync.Once, len(d.Tables)),
			tabs:    make([]*Summary, len(d.Tables)),
		}
	}).(*Stats)
}

// InvalidateStats drops the statistics view of d, so the next StatsFor
// builds a fresh one. Call it after mutating d's table data in place (the
// summaries would be stale) or to time a cold build.
func InvalidateStats(d *Dataset) { d.DropDerived(statsKey{}) }
