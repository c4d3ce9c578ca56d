package core

import (
	"math"
	"runtime"
	"sort"

	"repro/internal/ann"
	"repro/internal/feature"
	"repro/internal/gnn"
	"repro/internal/metrics"
	"repro/internal/par"
)

// Snapshot is an immutable serving view of a trained advisor: a frozen
// copy of the encoder parameters, the recommendation candidate set, its
// embeddings, the ANN index over them (when the set is large enough to
// deserve one), and the precomputed drift threshold. Every field is
// fixed at construction, so any number of goroutines can call the read
// methods without synchronization while the owning advisor keeps
// training.
type Snapshot struct {
	k   int
	enc *gnn.Encoder
	rcs []*Sample
	emb [][]float64

	// index accelerates kNN over emb for candidate sets of at least
	// cfg.ANN.MinIndexSize entries; nil below that, where the exact heap
	// scan is both faster and bit-stable. See the package documentation
	// for the build/extend/rebuild/persist lifecycle.
	index *ann.Index

	// driftThreshold is the 90th-percentile leave-one-out nearest
	// distance over the RCS (Section V-E), precomputed so drift reads
	// are pure. Indexed snapshots estimate it over a bounded sample.
	driftThreshold float64
}

// newSnapshot freezes the current training state into a serving view. The
// encoder is deep-copied through its serialized state so subsequent
// training never mutates parameters a reader is using. emb is the
// caller's freshly refreshed embedding cache (the frozen copy is an exact
// parameter roundtrip, so re-embedding would reproduce it bit-for-bit);
// the rows are deep-copied into the snapshot, and recomputed with the
// frozen encoder only if the cache does not cover the RCS.
//
// prevIndex, when non-nil, is an index whose ids refer to a prefix of
// rcs (the previous snapshot's, or one decoded from an artifact): the
// new snapshot extends it with the appended tail instead of rebuilding,
// unless the appended share has crossed cfg.ANN.RebuildFraction — then
// the quantizer is rebuilt from scratch over the full set.
func newSnapshot(cfg Config, enc *gnn.Encoder, rcs []*Sample, emb [][]float64, prevIndex *ann.Index) *Snapshot {
	frozen, err := gnn.FromState(enc.State())
	if err != nil {
		// State() of a live encoder always matches its own architecture.
		panic("core: snapshotting encoder: " + err.Error())
	}
	s := &Snapshot{
		k:   cfg.K,
		enc: frozen,
		rcs: append([]*Sample(nil), rcs...),
		emb: make([][]float64, len(rcs)),
	}
	for i, smp := range s.rcs {
		if i < len(emb) && emb[i] != nil {
			s.emb[i] = append([]float64(nil), emb[i]...)
		} else {
			s.emb[i] = frozen.Embed(smp.Graph)
		}
	}
	if cfg.ANN.Indexable(len(s.emb)) {
		if prevIndex != nil {
			// Extend refuses (nil) on shape mismatch or staleness past
			// RebuildFraction; either way the build below recovers.
			s.index = prevIndex.Extend(s.emb)
		}
		if s.index == nil {
			s.index = ann.Build(s.emb, cfg.ANN)
		}
	}
	if s.index != nil {
		s.driftThreshold = driftThresholdIndexed(s.index, s.emb)
	} else {
		s.driftThreshold = driftThresholdOf(s.emb)
	}
	return s
}

// K returns the snapshot's default neighbor count.
func (s *Snapshot) K() int { return s.k }

// InDim returns the per-vertex feature length the encoder expects; graphs
// with a different dimension cannot be embedded.
func (s *Snapshot) InDim() int { return s.enc.InDim() }

// NumSamples returns the size of the recommendation candidate set.
func (s *Snapshot) NumSamples() int { return len(s.rcs) }

// SampleAt returns the i-th RCS member. Hot paths use it instead of
// RCS() to avoid the defensive copy.
func (s *Snapshot) SampleAt(i int) *Sample { return s.rcs[i] }

// EmbeddingAt returns a copy of the i-th RCS embedding.
func (s *Snapshot) EmbeddingAt(i int) []float64 {
	return append([]float64(nil), s.emb[i]...)
}

// RCS returns a copy of the snapshot's recommendation candidate set
// slice — reordering or truncating it cannot corrupt the snapshot or
// its index. The copy is O(n); prefer NumSamples/SampleAt on hot paths.
func (s *Snapshot) RCS() []*Sample { return append([]*Sample(nil), s.rcs...) }

// Embeddings returns a deep copy of the snapshot's RCS embeddings: the
// index searches the snapshot's own rows, which must stay immutable, so
// callers get rows they may scribble on. The copy is O(n·dim); prefer
// EmbeddingAt for single rows.
func (s *Snapshot) Embeddings() [][]float64 {
	out := make([][]float64, len(s.emb))
	for i, e := range s.emb {
		out[i] = append([]float64(nil), e...)
	}
	return out
}

// Indexed reports whether this snapshot serves kNN through an ANN
// index rather than the exact heap scan.
func (s *Snapshot) Indexed() bool { return s.index != nil }

// DriftThreshold returns the precomputed online-adapting distance
// threshold.
func (s *Snapshot) DriftThreshold() float64 { return s.driftThreshold }

// Embed encodes a feature graph with the snapshot's frozen encoder.
func (s *Snapshot) Embed(g *feature.Graph) []float64 { return s.enc.Embed(g) }

// Recommend runs Stage 4 for a target feature graph and accuracy weight:
// encode, find the k nearest labeled embeddings, average their score
// vectors under the weights, and return the top ranker (Eq. 13).
func (s *Snapshot) Recommend(g *feature.Graph, wa float64) Recommendation {
	return s.RecommendK(g, wa, s.k)
}

// RecommendK is Recommend with an explicit neighbor count (Table IV).
func (s *Snapshot) RecommendK(g *feature.Graph, wa float64, k int) Recommendation {
	return s.recommendEmbedded(s.enc.Embed(g), wa, k, nil)
}

func (s *Snapshot) recommendEmbedded(x []float64, wa float64, k int, skip map[int]bool) Recommendation {
	return scoreNeighbors(s.rcs, s.nearest(x, k, skip), wa)
}

// nearest routes k-selection through the ANN index when one exists,
// falling back to the exact bounded-heap scan below MinIndexSize, when
// a skip set is in play (cross-validation wants exact leave-fold-out
// semantics), or in the rare case the probed cells hold fewer than k
// candidates. Both paths order results by (distance, RCS index), so the
// exact path is bit-identical to the unindexed advisor.
func (s *Snapshot) nearest(x []float64, k int, skip map[int]bool) []int {
	if s.index != nil && skip == nil {
		want := k
		if want > len(s.emb) {
			want = len(s.emb)
		}
		if nbrs := s.index.Search(x, k); len(nbrs) >= want {
			out := make([]int, len(nbrs))
			for i, nb := range nbrs {
				out[i] = nb.Idx
			}
			return out
		}
	}
	return nearestIndexes(s.emb, x, k, skip)
}

// RecommendBatch recommends a model for every graph against this one
// snapshot — the whole batch sees a single consistent RCS even while
// mutators publish new snapshots. Graphs fan out over par.For; results
// are returned in input order.
func (s *Snapshot) RecommendBatch(gs []*feature.Graph, wa float64) []Recommendation {
	out := make([]Recommendation, len(gs))
	par.For(len(gs), runtime.GOMAXPROCS(0), func(i int) error {
		out[i] = s.Recommend(gs[i], wa)
		return nil
	})
	return out
}

// NearestDistance returns the distance from g's embedding to its nearest
// RCS member.
func (s *Snapshot) NearestDistance(g *feature.Graph) float64 {
	x := s.enc.Embed(g)
	if s.index != nil {
		if nbrs := s.index.Search(x, 1); len(nbrs) == 1 {
			return nbrs[0].Dist
		}
	}
	best := math.Inf(1)
	for _, e := range s.emb {
		if d := metrics.EuclideanDistance(x, e); d < best {
			best = d
		}
	}
	return best
}

// DetectDrift reports whether g's embedding lies farther from the RCS than
// the drift threshold — an unexpected data distribution (Section V-E).
func (s *Snapshot) DetectDrift(g *feature.Graph) bool {
	return s.NearestDistance(g) > s.driftThreshold
}

// neighbor is one kNN candidate during selection.
type neighbor struct {
	idx  int
	dist float64
}

// ranksBefore reports whether a precedes b in nearest-first order. The
// order is total — equal distances break toward the smaller RCS index —
// so selection over duplicated embeddings is deterministic.
func ranksBefore(a, b neighbor) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.idx < b.idx
}

// siftUp and siftDown maintain a max-heap under ranksBefore: the root is
// the worst candidate currently kept, the one a closer candidate evicts.
func siftUp(h []neighbor, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !ranksBefore(h[p], h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []neighbor, i int) {
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

// nearestIndexes returns the indexes of the k nearest embeddings to x in
// nearest-first order, excluding any index in skip (used by
// cross-validation). Selection runs over a bounded max-heap of size k —
// O(n log k) with a k-element footprint instead of sorting all n
// candidates — and ties break by RCS index (see ranksBefore).
func nearestIndexes(emb [][]float64, x []float64, k int, skip map[int]bool) []int {
	if k <= 0 {
		return nil
	}
	if k > len(emb) {
		k = len(emb)
	}
	h := make([]neighbor, 0, k)
	for i, e := range emb {
		if skip != nil && skip[i] {
			continue
		}
		c := neighbor{i, metrics.EuclideanDistance(x, e)}
		if len(h) < k {
			h = append(h, c)
			siftUp(h, len(h)-1)
			continue
		}
		if ranksBefore(c, h[0]) {
			h[0] = c
			siftDown(h, 0)
		}
	}
	sort.Slice(h, func(a, b int) bool { return ranksBefore(h[a], h[b]) })
	out := make([]int, len(h))
	for i, c := range h {
		out[i] = c.idx
	}
	return out
}

// nearestIndexesSort is the full-sort reference selection, kept for the
// differential test and the heap-vs-sort benchmark comparison. It applies
// the same deterministic tie-break as nearestIndexes.
func nearestIndexesSort(emb [][]float64, x []float64, k int, skip map[int]bool) []int {
	if k <= 0 {
		return nil
	}
	cands := make([]neighbor, 0, len(emb))
	for i, e := range emb {
		if skip != nil && skip[i] {
			continue
		}
		cands = append(cands, neighbor{i, metrics.EuclideanDistance(x, e)})
	}
	sort.Slice(cands, func(a, b int) bool { return ranksBefore(cands[a], cands[b]) })
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].idx
	}
	return out
}

// scoreNeighbors averages the selected neighbors' score vectors under the
// accuracy weight and picks the top ranker (Eq. 13).
func scoreNeighbors(rcs []*Sample, nbrs []int, wa float64) Recommendation {
	if len(nbrs) == 0 {
		return Recommendation{Model: -1}
	}
	dim := len(rcs[nbrs[0]].Sa)
	avg := make([]float64, dim)
	for _, ni := range nbrs {
		sv := rcs[ni].Score(wa)
		for j := range avg {
			avg[j] += sv[j]
		}
	}
	for j := range avg {
		avg[j] /= float64(len(nbrs))
	}
	return Recommendation{Model: metrics.ArgMax(avg), Scores: avg, Neighbors: nbrs}
}

// driftSampleCap bounds how many RCS members an indexed snapshot probes
// for its drift threshold: the threshold is a 90th-percentile estimate,
// and a strided sample of a few thousand leave-one-out distances pins it
// tightly without the O(n²) pair scan the exact path pays.
const driftSampleCap = 2048

// driftThresholdIndexed estimates the drift threshold through the ANN
// index: a deterministic strided sample of members, each asking the
// index for its nearest other member, fanned over par.For (every sample
// position writes only its own slot, so the result is
// schedule-independent). A member whose probed cells are empty after
// filtering itself out — possible only under pathological filtering —
// falls back to its exact leave-one-out scan.
func driftThresholdIndexed(ix *ann.Index, emb [][]float64) float64 {
	n := len(emb)
	step := 1
	if n > driftSampleCap {
		step = n / driftSampleCap
	}
	var sample []int
	for i := 0; i < n; i += step {
		sample = append(sample, i)
	}
	dists := make([]float64, len(sample))
	par.For(len(sample), runtime.GOMAXPROCS(0), func(pos int) error {
		i := sample[pos]
		if nbrs := ix.SearchFiltered(emb[i], 1, func(j int) bool { return j != i }); len(nbrs) == 1 {
			dists[pos] = nbrs[0].Dist
		} else {
			dists[pos] = looNearest(emb, i)
		}
		return nil
	})
	return metrics.Percentile(dists, 90)
}

// looNearest is one member's exact leave-one-out nearest distance.
func looNearest(emb [][]float64, i int) float64 {
	best := math.Inf(1)
	for j, o := range emb {
		if i == j {
			continue
		}
		if d := metrics.EuclideanDistance(emb[i], o); d < best {
			best = d
		}
	}
	return best
}

// driftThresholdOf computes the 90th percentile of each embedding's
// leave-one-out nearest-neighbor distance.
func driftThresholdOf(emb [][]float64) float64 {
	dists := make([]float64, 0, len(emb))
	for i := range emb {
		if d := looNearest(emb, i); !math.IsInf(d, 1) {
			dists = append(dists, d)
		}
	}
	return metrics.Percentile(dists, 90)
}
