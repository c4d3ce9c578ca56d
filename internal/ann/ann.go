package ann

import (
	"fmt"
	"math"
	"sort"
)

// DefaultMinIndexSize is the vector count below which indexing is not
// worth its build and memory cost: the exact heap scan over a few
// thousand embeddings is already tens of microseconds, and keeping small
// candidate sets on the exact path keeps their recommendations
// bit-identical to the unindexed advisor.
const DefaultMinIndexSize = 4096

// Params is the index policy. The zero value resolves to defaults at
// build time, so an older persisted Config gains the index transparently.
type Params struct {
	// Nlist is the number of coarse-quantizer cells (posting lists).
	// 0 resolves to ~sqrt(n), clamped to [16, 4096].
	Nlist int
	// Nprobe is the number of nearest cells scanned per query. 0
	// resolves to max(8, round(sqrt(Nlist))) — probing grows with the
	// cell count but sublinearly, so the scanned fraction shrinks as the
	// corpus grows. Clamped to Nlist.
	Nprobe int
	// MinIndexSize is the smallest vector count worth indexing: below it
	// Build returns nil and callers keep the exact scan. 0 resolves to
	// DefaultMinIndexSize; negative disables indexing entirely.
	MinIndexSize int
	// RebuildFraction bounds staleness: once the vectors appended since
	// the last full build exceed this fraction of the total, Extend
	// returns nil and the caller rebuilds. 0 resolves to 0.25.
	RebuildFraction float64
	// SplitIters is the Lloyd iteration budget of each bisecting 2-means
	// split. 0 resolves to 6.
	SplitIters int
	// Seed offsets the deterministic strided sampling of the split
	// initialization. Any value works; equal seeds reproduce equal
	// indexes bit-for-bit.
	Seed int64
}

// DefaultParams returns the zero policy; every field resolves to its
// documented default when the index is built.
func DefaultParams() Params { return Params{} }

// resolve fills zero fields with their defaults for an n-vector set.
func (p Params) resolve(n int) Params {
	if p.Nlist <= 0 {
		p.Nlist = int(math.Sqrt(float64(n)))
		if p.Nlist < 16 {
			p.Nlist = 16
		}
		if p.Nlist > 4096 {
			p.Nlist = 4096
		}
	}
	if p.Nlist > n && n > 0 {
		p.Nlist = n
	}
	if p.Nprobe <= 0 {
		p.Nprobe = int(math.Round(math.Sqrt(float64(p.Nlist))))
		if p.Nprobe < 8 {
			p.Nprobe = 8
		}
	}
	if p.Nprobe > p.Nlist {
		p.Nprobe = p.Nlist
	}
	if p.MinIndexSize == 0 {
		p.MinIndexSize = DefaultMinIndexSize
	}
	if p.RebuildFraction <= 0 {
		p.RebuildFraction = 0.25
	}
	if p.SplitIters <= 0 {
		p.SplitIters = 6
	}
	return p
}

// Indexable reports whether an n-vector set is large enough to index
// under this policy.
func (p Params) Indexable(n int) bool {
	r := p.resolve(n)
	return r.MinIndexSize >= 0 && n >= r.MinIndexSize
}

// Neighbor is one search result: a vector id and its Euclidean distance
// to the query.
type Neighbor struct {
	Idx  int
	Dist float64
}

// Index is a built IVF index. It references — never owns — the vector
// set it was built over; the attached vectors must stay immutable for
// the index's lifetime (core serving snapshots guarantee this). All
// methods are safe for concurrent use once the index is built and
// attached: search mutates nothing, and Extend returns a fresh copy.
type Index struct {
	params    Params // resolved
	dim       int
	n         int // vectors covered; == len(vecs) when attached
	built     int // vectors present at the last full build
	appended  int // vectors appended by Extend since
	centroids [][]float64
	lists     [][]int32
	vecs      [][]float64 // attached vector set; nil after Unmarshal
	// data holds each cell's vectors as one contiguous row-major block
	// (data[c][j*dim:(j+1)*dim] is the vector lists[c][j]). Posting-list
	// scans stream it sequentially instead of pointer-chasing vecs —
	// at 10^6 entries that cache behavior is the difference between a
	// ~7x and a >10x win over the exact scan. Derived from vecs, so it
	// is rebuilt on Attach/Extend and never persisted.
	data [][]float64
}

// Size returns the number of vectors the index covers.
func (ix *Index) Size() int { return ix.n }

// Dim returns the vector dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// Nlist returns the number of coarse cells.
func (ix *Index) Nlist() int { return len(ix.lists) }

// Nprobe returns the number of cells scanned per query.
func (ix *Index) Nprobe() int { return ix.params.Nprobe }

// Appended returns the number of vectors appended since the last full
// build.
func (ix *Index) Appended() int { return ix.appended }

// StaleFraction returns appended/size — the share of the index assigned
// by cheap appends rather than the quantizer build.
func (ix *Index) StaleFraction() float64 {
	if ix.n == 0 {
		return 0
	}
	return float64(ix.appended) / float64(ix.n)
}

// Attach binds the index to its vector set after Unmarshal. The set
// must match the index exactly: same count, same dimensionality. It is
// the strict re-binding used when a persisted index meets recomputed
// embeddings; any mismatch is a corruption-grade error, not a rebuild
// hint.
func (ix *Index) Attach(vecs [][]float64) error {
	if len(vecs) != ix.n {
		return fmt.Errorf("ann: attaching %d vectors to an index of %d", len(vecs), ix.n)
	}
	for i, v := range vecs {
		if len(v) != ix.dim {
			return fmt.Errorf("ann: vector %d has dim %d, index has %d", i, len(v), ix.dim)
		}
	}
	ix.vecs = vecs
	ix.fillData()
	return nil
}

// fillData (re)derives the per-cell contiguous blocks from the attached
// vector set.
func (ix *Index) fillData() {
	ix.data = make([][]float64, len(ix.lists))
	for c, l := range ix.lists {
		block := make([]float64, len(l)*ix.dim)
		for j, id := range l {
			copy(block[j*ix.dim:(j+1)*ix.dim], ix.vecs[id])
		}
		ix.data[c] = block
	}
}

// Extend returns a copy of the index covering vecs, which must extend
// the index's current set: the first Size() vectors keep their ids and
// the new tail is appended to its nearest cells. It returns nil — the
// caller should Build fresh — when the shape does not match or when the
// appended share would exceed Params.RebuildFraction. The receiver is
// never mutated, so snapshots already serving it are unaffected.
func (ix *Index) Extend(vecs [][]float64) *Index {
	if len(vecs) < ix.n || ix.dim == 0 {
		return nil
	}
	for _, v := range vecs {
		if len(v) != ix.dim {
			return nil
		}
	}
	add := len(vecs) - ix.n
	if float64(ix.appended+add)/float64(len(vecs)) > ix.params.RebuildFraction {
		return nil
	}
	nx := &Index{
		params:    ix.params,
		dim:       ix.dim,
		n:         len(vecs),
		built:     ix.built,
		appended:  ix.appended + add,
		centroids: ix.centroids, // immutable after build: shared
		lists:     make([][]int32, len(ix.lists)),
		vecs:      vecs,
	}
	for c, l := range ix.lists {
		nx.lists[c] = append([]int32(nil), l...)
	}
	for id := ix.n; id < len(vecs); id++ {
		c := nx.nearestCell(vecs[id])
		nx.lists[c] = append(nx.lists[c], int32(id))
	}
	// Refill the scan blocks from the new vector set rather than carrying
	// the receiver's: after a fine-tuning publish the prefix embeddings
	// have drifted, and searches must measure distances against what the
	// snapshot actually serves.
	nx.fillData()
	return nx
}

// nearestCell returns the cell whose centroid is nearest to v, ties
// breaking toward the smaller cell id.
func (ix *Index) nearestCell(v []float64) int {
	best, bestD := 0, math.Inf(1)
	for c, cen := range ix.centroids {
		if d := sqDist(v, cen); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// Search returns the k approximately-nearest vectors to q in
// nearest-first order (distance, then id — the exact scan's total
// order). It may return fewer than k results when the probed cells hold
// fewer candidates; callers needing exactly k fall back to their exact
// scan.
func (ix *Index) Search(q []float64, k int) []Neighbor {
	return ix.SearchFiltered(q, k, nil)
}

// SearchFiltered is Search restricted to ids where allow returns true.
// A heavily restrictive filter can empty every probed cell; callers
// handle a short result with an exact fallback over the allowed set.
func (ix *Index) SearchFiltered(q []float64, k int, allow func(int) bool) []Neighbor {
	if ix.data == nil {
		panic("ann: searching a detached index (Attach after Unmarshal)")
	}
	if len(q) != ix.dim {
		panic(fmt.Sprintf("ann: query dim %d, index dim %d", len(q), ix.dim))
	}
	if k <= 0 {
		return nil
	}
	// k can come from a client (/recommend); like the exact scan, never
	// size the heap past the vectors that exist.
	k = min(k, ix.n)
	probes := ix.probeCells(q)
	h := make([]Neighbor, 0, k)
	for _, c := range probes {
		block := ix.data[c]
		for j, id32 := range ix.lists[c] {
			id := int(id32)
			if allow != nil && !allow(id) {
				continue
			}
			cand := Neighbor{Idx: id, Dist: sqDist(q, block[j*ix.dim:(j+1)*ix.dim])}
			if len(h) < k {
				h = append(h, cand)
				siftUp(h, len(h)-1)
				continue
			}
			if ranksBefore(cand, h[0]) {
				h[0] = cand
				siftDown(h, 0)
			}
		}
	}
	sort.Slice(h, func(a, b int) bool { return ranksBefore(h[a], h[b]) })
	for i := range h {
		h[i].Dist = math.Sqrt(h[i].Dist)
	}
	return h
}

// probeCells returns the Nprobe cells nearest to q, sorted by
// (distance, cell id). The same bounded max-heap selection as the
// posting-list scan keeps probing O(Nlist log Nprobe) and deterministic.
func (ix *Index) probeCells(q []float64) []int {
	np := ix.params.Nprobe
	if np > len(ix.centroids) {
		np = len(ix.centroids)
	}
	h := make([]Neighbor, 0, np)
	for c, cen := range ix.centroids {
		cand := Neighbor{Idx: c, Dist: sqDist(q, cen)}
		if len(h) < np {
			h = append(h, cand)
			siftUp(h, len(h)-1)
			continue
		}
		if ranksBefore(cand, h[0]) {
			h[0] = cand
			siftDown(h, 0)
		}
	}
	sort.Slice(h, func(a, b int) bool { return ranksBefore(h[a], h[b]) })
	out := make([]int, len(h))
	for i, nb := range h {
		out[i] = nb.Idx
	}
	return out
}

// ranksBefore reports whether a precedes b in nearest-first order; the
// order is total (ties break toward the smaller id) so selection over
// duplicated vectors is deterministic.
func ranksBefore(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Idx < b.Idx
}

// siftUp and siftDown maintain a bounded max-heap under ranksBefore: the
// root is the worst candidate kept, the one a closer candidate evicts.
func siftUp(h []Neighbor, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !ranksBefore(h[p], h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []Neighbor, i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && ranksBefore(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && ranksBefore(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// sqDist is the squared Euclidean distance — the square root is
// monotonic, so selection on squared distances matches selection on
// metrics.EuclideanDistance, and it is applied once per returned result
// instead of once per candidate.
func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
