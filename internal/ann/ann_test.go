package ann

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// clusteredVecs fabricates n dim-dimensional embeddings from a mixture
// of Gaussian clusters — the shape GIN embeddings of real datasets take
// (datasets with similar schemas embed near each other). dup duplicates
// the first dup vectors verbatim at the tail, exercising tie-breaking.
func clusteredVecs(rng *rand.Rand, n, dim, clusters, dup int, noise float64) [][]float64 {
	centers := make([][]float64, clusters)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for f := range centers[c] {
			centers[c][f] = rng.NormFloat64()
		}
	}
	vecs := make([][]float64, n)
	for i := range vecs {
		c := centers[rng.Intn(clusters)]
		v := make([]float64, dim)
		for f := range v {
			v[f] = c[f] + noise*rng.NormFloat64()
		}
		vecs[i] = v
	}
	for i := 0; i < dup && i < n/2; i++ {
		vecs[n-1-i] = append([]float64(nil), vecs[i]...)
	}
	return vecs
}

// exactNearest is the brute-force oracle: every vector, sorted by
// (distance, id) — the same total order the index promises.
func exactNearest(vecs [][]float64, q []float64, k int) []Neighbor {
	all := make([]Neighbor, len(vecs))
	for i, v := range vecs {
		all[i] = Neighbor{Idx: i, Dist: math.Sqrt(sqDist(q, v))}
	}
	sort.Slice(all, func(a, b int) bool { return ranksBefore(all[a], all[b]) })
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// recallAt measures recall@k of the index against the oracle over nq
// held-out queries drawn near the data distribution.
func recallAt(t *testing.T, ix *Index, vecs [][]float64, rng *rand.Rand, nq, k int) float64 {
	t.Helper()
	hits, want := 0, 0
	for qi := 0; qi < nq; qi++ {
		q := append([]float64(nil), vecs[rng.Intn(len(vecs))]...)
		for f := range q {
			q[f] += 0.05 * rng.NormFloat64()
		}
		truth := exactNearest(vecs, q, k)
		got := ix.Search(q, k)
		in := make(map[int]bool, len(got))
		for _, nb := range got {
			in[nb.Idx] = true
		}
		for _, nb := range truth {
			want++
			if in[nb.Idx] {
				hits++
			}
		}
	}
	return float64(hits) / float64(want)
}

// TestRecallDifferential is the pinning property test: over randomized
// sizes, dimensionalities, cluster structures, and duplicated
// embeddings, the default-parameter index must reach recall@k ≥ 0.95
// against the exact scan.
func TestRecallDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := []struct {
		n, dim, clusters, dup int
		noise                 float64
	}{
		{5000, 16, 40, 0, 0.25},
		{8000, 32, 64, 50, 0.2},
		{12000, 32, 25, 0, 0.3},
		{6000, 8, 30, 200, 0.25},
		{9000, 48, 80, 0, 0.15},
	}
	for _, tc := range cases {
		vecs := clusteredVecs(rng, tc.n, tc.dim, tc.clusters, tc.dup, tc.noise)
		ix := Build(vecs, Params{MinIndexSize: 1})
		if ix == nil {
			t.Fatalf("n=%d: Build returned nil", tc.n)
		}
		for _, k := range []int{2, 10} {
			r := recallAt(t, ix, vecs, rng, 60, k)
			if r < 0.95 {
				t.Errorf("n=%d dim=%d clusters=%d dup=%d: recall@%d = %.3f, want >= 0.95",
					tc.n, tc.dim, tc.clusters, tc.dup, k, r)
			}
		}
	}
}

// TestSearchDeterministicTieBreak pins the total order: duplicated
// vectors surface in id order, and two searches of the same query are
// identical.
func TestSearchDeterministicTieBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vecs := clusteredVecs(rng, 6000, 16, 30, 300, 0.2)
	ix := Build(vecs, Params{MinIndexSize: 1})
	for qi := 0; qi < 40; qi++ {
		// Query exactly on a duplicated vector: its two copies tie at
		// distance zero and must come back smaller-id first.
		qid := rng.Intn(200)
		q := vecs[qid]
		got := ix.Search(q, 4)
		for i := 1; i < len(got); i++ {
			if !ranksBefore(got[i-1], got[i]) {
				t.Fatalf("query %d: results out of total order at %d: %+v", qid, i, got)
			}
		}
		again := ix.Search(q, 4)
		for i := range got {
			if got[i] != again[i] {
				t.Fatalf("query %d: search not deterministic: %+v vs %+v", qid, got, again)
			}
		}
	}
}

// TestBuildDeterministic pins that equal inputs produce identical
// indexes regardless of the parallel subtree scheduling.
func TestBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vecs := clusteredVecs(rng, 7000, 24, 40, 20, 0.25)
	a := Build(vecs, Params{MinIndexSize: 1})
	b := Build(vecs, Params{MinIndexSize: 1})
	if a.Nlist() != b.Nlist() {
		t.Fatalf("nlist %d vs %d", a.Nlist(), b.Nlist())
	}
	for c := range a.lists {
		if len(a.lists[c]) != len(b.lists[c]) {
			t.Fatalf("list %d: %d vs %d ids", c, len(a.lists[c]), len(b.lists[c]))
		}
		for i := range a.lists[c] {
			if a.lists[c][i] != b.lists[c][i] {
				t.Fatalf("list %d differs at %d", c, i)
			}
		}
		for f := range a.centroids[c] {
			if a.centroids[c][f] != b.centroids[c][f] {
				t.Fatalf("centroid %d differs at %d", c, f)
			}
		}
	}
}

// TestMinIndexSizePolicy pins the exact-path policy boundary.
func TestMinIndexSizePolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vecs := clusteredVecs(rng, 100, 8, 4, 0, 0.2)
	if ix := Build(vecs, Params{}); ix != nil {
		t.Fatalf("default params indexed %d vectors (< DefaultMinIndexSize)", len(vecs))
	}
	if ix := Build(vecs, Params{MinIndexSize: -1}); ix != nil {
		t.Fatal("negative MinIndexSize still indexed")
	}
	if ix := Build(vecs, Params{MinIndexSize: 50}); ix == nil {
		t.Fatal("explicit MinIndexSize 50 did not index 100 vectors")
	}
	if !(Params{}).Indexable(DefaultMinIndexSize) {
		t.Fatal("DefaultMinIndexSize vectors should be indexable")
	}
	if (Params{}).Indexable(DefaultMinIndexSize - 1) {
		t.Fatal("below DefaultMinIndexSize should not be indexable")
	}
}

// TestExtendAppends pins the append path: ids keep their positions, new
// vectors are findable, staleness accounts, and the RebuildFraction
// threshold trips.
func TestExtendAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	base := clusteredVecs(rng, 5000, 16, 30, 0, 0.25)
	ix := Build(base, Params{MinIndexSize: 1})

	grown := append(append([][]float64(nil), base...), clusteredVecs(rng, 500, 16, 30, 0, 0.25)...)
	ext := ix.Extend(grown)
	if ext == nil {
		t.Fatal("Extend refused a 10% append")
	}
	if ext.Size() != 5500 || ext.Appended() != 500 {
		t.Fatalf("extended size %d appended %d", ext.Size(), ext.Appended())
	}
	if ix.Size() != 5000 || ix.Appended() != 0 {
		t.Fatalf("Extend mutated the receiver: size %d appended %d", ix.Size(), ix.Appended())
	}
	// Every appended vector must be findable at distance zero.
	for id := 5000; id < 5500; id += 25 {
		got := ext.Search(grown[id], 1)
		if len(got) != 1 || got[0].Dist != 0 {
			t.Fatalf("appended id %d not found: %+v", id, got)
		}
		if grown[got[0].Idx][0] != grown[id][0] {
			t.Fatalf("appended id %d found wrong vector %d", id, got[0].Idx)
		}
	}
	// Past RebuildFraction the extend must refuse.
	huge := append(append([][]float64(nil), base...), clusteredVecs(rng, 2500, 16, 30, 0, 0.25)...)
	if ix.Extend(huge) != nil {
		t.Fatal("Extend accepted a 33% append (RebuildFraction 0.25)")
	}
	// Shape mismatches refuse too.
	if ix.Extend(base[:4999]) != nil {
		t.Fatal("Extend accepted a shrunk set")
	}
	if ix.Extend(clusteredVecs(rng, 5100, 8, 4, 0, 0.2)) != nil {
		t.Fatal("Extend accepted a dim change")
	}
}

// TestSearchFiltered pins the filtered search used by incremental
// learning's nearest-reference lookup.
func TestSearchFiltered(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vecs := clusteredVecs(rng, 5000, 16, 30, 0, 0.25)
	ix := Build(vecs, Params{MinIndexSize: 1})
	allow := func(i int) bool { return i%3 == 0 }
	for qi := 0; qi < 30; qi++ {
		q := vecs[rng.Intn(len(vecs))]
		got := ix.SearchFiltered(q, 5, allow)
		for _, nb := range got {
			if nb.Idx%3 != 0 {
				t.Fatalf("filtered search returned disallowed id %d", nb.Idx)
			}
		}
		if len(got) == 0 {
			t.Fatalf("filtered search found nothing for query %d", qi)
		}
	}
	if got := ix.SearchFiltered(vecs[0], 3, func(int) bool { return false }); len(got) != 0 {
		t.Fatalf("all-false filter returned %d results", len(got))
	}
}

// TestSearchShortResults: k larger than the probed candidate pool
// returns what exists, nearest-first.
func TestSearchShortResults(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vecs := clusteredVecs(rng, 64, 8, 4, 0, 0.3)
	ix := Build(vecs, Params{MinIndexSize: 1, Nlist: 16, Nprobe: 2})
	got := ix.Search(vecs[0], 64)
	if len(got) == 0 || len(got) >= 64 {
		t.Fatalf("nprobe-2 search of 16 cells returned %d of 64", len(got))
	}
}

// TestSearchClampsK: a k past the index size — /recommend passes the
// client's k through — answers like k = n instead of sizing its
// selection heap by k.
func TestSearchClampsK(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vecs := clusteredVecs(rng, 200, 8, 4, 0, 0.3)
	ix := Build(vecs, Params{MinIndexSize: 1})
	for qi := 0; qi < 5; qi++ {
		q := vecs[rng.Intn(len(vecs))]
		got, want := ix.Search(q, math.MaxInt), ix.Search(q, len(vecs))
		if len(got) != len(want) {
			t.Fatalf("query %d: k=MaxInt returned %d neighbors, k=n %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d: neighbor %d = %+v, want %+v", qi, i, got[i], want[i])
			}
		}
	}
}
