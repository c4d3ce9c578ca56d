package ann

import (
	"runtime"
	"sync/atomic"

	"repro/internal/par"
)

// splitSampleCap bounds the number of vectors a 2-means split trains on;
// larger nodes are strided down to it, keeping every split O(sample·dim)
// while the full node is still partitioned exactly once per level.
const splitSampleCap = 1024

// maxSplitDepth is a hard recursion bound; at the default Nlist ≤ 4096
// the tree needs at most 12 levels, so hitting it means pathological
// duplicate-heavy data and the node just becomes an oversized cell.
const maxSplitDepth = 48

// Build constructs an index over vecs, or returns nil when the set is
// smaller than Params.MinIndexSize (or indexing is disabled by a
// negative one) — the caller keeps its exact scan. The quantizer is
// recursive bisecting k-means: nodes split with a deterministic seeded
// 2-means until cells reach ~n/Nlist vectors, subtrees building in
// parallel through par.For. Equal (vecs, p) always produce
// an identical index regardless of scheduling: every node's split
// depends only on its own members, and all reductions run in fixed
// order.
func Build(vecs [][]float64, p Params) *Index {
	n := len(vecs)
	rp := p.resolve(n)
	if rp.MinIndexSize < 0 || n < rp.MinIndexSize || n == 0 {
		return nil
	}
	dim := len(vecs[0])
	b := &builder{
		vecs:    vecs,
		dim:     dim,
		p:       rp,
		maxLeaf: (n + rp.Nlist - 1) / rp.Nlist,
		tokens:  make(chan struct{}, max(runtime.GOMAXPROCS(0)-1, 0)),
	}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	lists := b.split(ids, 0)
	centroids := make([][]float64, len(lists))
	par.For(len(lists), runtime.GOMAXPROCS(0), func(c int) error {
		centroids[c] = meanOf(vecs, lists[c], dim)
		return nil
	})
	ix := &Index{
		params:    rp,
		dim:       dim,
		n:         n,
		built:     n,
		centroids: centroids,
		lists:     lists,
		vecs:      vecs,
	}
	ix.fillData()
	return ix
}

type builder struct {
	vecs    [][]float64
	dim     int
	p       Params
	maxLeaf int
	tokens  chan struct{} // parallel-subtree budget: one token per extra goroutine
}

// split recursively bisects ids until nodes fit maxLeaf, returning the
// cells in deterministic left-to-right tree order. When a worker token
// is free the two subtrees build in parallel.
func (b *builder) split(ids []int32, depth int) [][]int32 {
	if len(ids) <= b.maxLeaf || depth >= maxSplitDepth {
		return [][]int32{ids}
	}
	c1, c2, ok := b.splitCentroids(ids)
	if !ok {
		// Degenerate node (all vectors identical): one oversized cell.
		return [][]int32{ids}
	}
	left := make([]int32, 0, len(ids)/2)
	right := make([]int32, 0, len(ids)/2)
	for _, id := range ids {
		if sqDist(b.vecs[id], c1) <= sqDist(b.vecs[id], c2) {
			left = append(left, id)
		} else {
			right = append(right, id)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return [][]int32{ids}
	}
	var ll, rr [][]int32
	select {
	case b.tokens <- struct{}{}:
		var finished atomic.Int32
		par.For(2, 2, func(half int) error {
			if half == 0 {
				ll = b.split(left, depth+1)
			} else {
				rr = b.split(right, depth+1)
			}
			if finished.Add(1) == 1 {
				<-b.tokens // one half left running: the extra goroutine is done
			}
			return nil
		})
	default:
		ll = b.split(left, depth+1)
		rr = b.split(right, depth+1)
	}
	return append(ll, rr...)
}

// splitCentroids runs the node's 2-means on a strided sample:
// farthest-point initialization (the sample point farthest from the
// sample mean, then the point farthest from it) followed by at most
// SplitIters Lloyd iterations. ok is false when the node cannot split —
// every sampled vector is identical.
func (b *builder) splitCentroids(ids []int32) (c1, c2 []float64, ok bool) {
	step := 1
	if len(ids) > splitSampleCap {
		step = len(ids) / splitSampleCap
	}
	start := 0
	if step > 1 {
		start = int(b.p.Seed % int64(step))
		if start < 0 {
			start += step
		}
	}
	var sample []int32
	for i := start; i < len(ids); i += step {
		sample = append(sample, ids[i])
	}

	mean := meanOf(b.vecs, sample, b.dim)
	c1 = append([]float64(nil), b.vecs[farthestFrom(b.vecs, sample, mean)]...)
	f2 := farthestFrom(b.vecs, sample, c1)
	if sqDist(b.vecs[f2], c1) == 0 {
		return nil, nil, false
	}
	c2 = append([]float64(nil), b.vecs[f2]...)

	side := make([]bool, len(sample)) // true → c2
	sum1 := make([]float64, b.dim)
	sum2 := make([]float64, b.dim)
	for it := 0; it < b.p.SplitIters; it++ {
		for i := range sum1 {
			sum1[i], sum2[i] = 0, 0
		}
		var n1, n2 int
		changed := false
		for si, id := range sample {
			v := b.vecs[id]
			s2 := sqDist(v, c1) > sqDist(v, c2)
			if s2 != side[si] {
				side[si], changed = s2, true
			}
			if s2 {
				addInto(sum2, v)
				n2++
			} else {
				addInto(sum1, v)
				n1++
			}
		}
		if n1 == 0 || n2 == 0 {
			break // keep the previous centroids; the full partition decides
		}
		scaleInto(c1, sum1, 1/float64(n1))
		scaleInto(c2, sum2, 1/float64(n2))
		if !changed && it > 0 {
			break
		}
	}
	return c1, c2, true
}

// farthestFrom returns the id (from ids) of the vector farthest from x,
// ties breaking toward the earliest position — deterministic.
func farthestFrom(vecs [][]float64, ids []int32, x []float64) int32 {
	best, bestD := ids[0], -1.0
	for _, id := range ids {
		if d := sqDist(vecs[id], x); d > bestD {
			best, bestD = id, d
		}
	}
	return best
}

func meanOf(vecs [][]float64, ids []int32, dim int) []float64 {
	m := make([]float64, dim)
	if len(ids) == 0 {
		return m
	}
	for _, id := range ids {
		addInto(m, vecs[id])
	}
	inv := 1 / float64(len(ids))
	for i := range m {
		m[i] *= inv
	}
	return m
}

func addInto(dst, v []float64) {
	for i := range dst {
		dst[i] += v[i]
	}
}

func scaleInto(dst, sum []float64, s float64) {
	for i := range dst {
		dst[i] = sum[i] * s
	}
}
