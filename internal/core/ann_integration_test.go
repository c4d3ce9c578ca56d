package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ann"
	"repro/internal/feature"
)

// annConfig is testConfig with the index forced on regardless of corpus
// size, so the indexed serving path is exercised on test-sized corpora.
func annConfig() Config {
	cfg := testConfig()
	cfg.ANN.MinIndexSize = 1
	return cfg
}

// TestExactPathUnchangedBelowMinIndexSize pins the MinIndexSize policy:
// a corpus below the threshold never builds an index, and its
// recommendations are bit-identical to an advisor with indexing disabled
// outright — the pre-index serving behavior.
func TestExactPathUnchangedBelowMinIndexSize(t *testing.T) {
	samples := corpus(t, 20, 61)
	defCfg := testConfig() // ANN zero value: MinIndexSize resolves to 4096
	adv, err := Train(samples, defCfg)
	if err != nil {
		t.Fatal(err)
	}
	offCfg := testConfig()
	offCfg.ANN.MinIndexSize = -1 // indexing disabled entirely
	off, err := Train(samples, offCfg)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Serving().Indexed() {
		t.Fatal("corpus below MinIndexSize built an index")
	}
	for i, s := range samples {
		for _, wa := range []float64{0, 0.5, 0.9, 1} {
			a := adv.RecommendK(s.Graph, wa, 4)
			b := off.RecommendK(s.Graph, wa, 4)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("sample %d wa=%v: default %+v != disabled %+v", i, wa, a, b)
			}
		}
	}
}

// TestIndexedServingRecall forces the index on a trained advisor and
// requires the indexed neighbor lookup to agree with the exact scan on
// the vast majority of self-queries. Everything is seeded, so the result
// is deterministic.
func TestIndexedServingRecall(t *testing.T) {
	samples := corpus(t, 40, 62)
	adv, err := Train(samples, annConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := adv.Serving()
	if !snap.Indexed() {
		t.Fatal("forced index was not built")
	}
	const k = 4
	hits, total := 0, 0
	for i := range samples {
		x := snap.Embed(samples[i].Graph)
		got := snap.nearest(x, k, nil)
		want := nearestIndexes(snap.emb, x, k, nil)
		inWant := map[int]bool{}
		for _, w := range want {
			inWant[w] = true
		}
		for _, g := range got {
			if g < 0 || g >= snap.NumSamples() {
				t.Fatalf("sample %d: neighbor %d out of range", i, g)
			}
			if inWant[g] {
				hits++
			}
		}
		total += len(want)
	}
	if recall := float64(hits) / float64(total); recall < 0.8 {
		t.Fatalf("indexed recall %.3f over %d self-queries, want >= 0.8", recall, len(samples))
	}
}

// TestSnapshotAccessorsReturnCopies is the mutation regression test for
// the read accessors: scribbling on what RCS and Embeddings return must
// not perturb the serving snapshot.
func TestSnapshotAccessorsReturnCopies(t *testing.T) {
	samples := corpus(t, 14, 63)
	adv, err := Train(samples, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := adv.Serving()
	before := snap.Recommend(samples[2].Graph, 0.9)

	rcs := snap.RCS()
	for i := range rcs {
		rcs[i] = nil
	}
	emb := snap.Embeddings()
	for i := range emb {
		for f := range emb[i] {
			emb[i][f] = math.Inf(1)
		}
	}
	ea := snap.EmbeddingAt(0)
	for f := range ea {
		ea[f] = math.NaN()
	}

	if snap.SampleAt(2) == nil || snap.SampleAt(2).Name != samples[2].Name {
		t.Fatal("scribbling on RCS() result reached the snapshot")
	}
	after := snap.Recommend(samples[2].Graph, 0.9)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("recommendation changed after scribbling: %+v -> %+v", before, after)
	}
}

// TestIndexLifecycleAcrossOnlineAdapt pins the append/rebuild policy:
// online adaptation extends the carried index (appended counter grows)
// until the appended share exceeds RebuildFraction, at which point the
// next publish rebuilds from scratch and the counter resets.
func TestIndexLifecycleAcrossOnlineAdapt(t *testing.T) {
	samples := corpus(t, 32, 64)
	adv, err := Train(samples, annConfig())
	if err != nil {
		t.Fatal(err)
	}
	s0 := adv.Serving()
	if !s0.Indexed() || s0.index.Appended() != 0 {
		t.Fatalf("fresh index: indexed=%v appended=%d", s0.Indexed(), s0.index.Appended())
	}

	extra := corpus(t, 1, 65)[0]
	adv.OnlineAdapt(extra, 1)
	s1 := adv.Serving()
	if !s1.Indexed() {
		t.Fatal("index dropped after OnlineAdapt")
	}
	if s1.index.Appended() != 1 {
		t.Fatalf("after one adapt: appended=%d, want 1 (carried + extended)", s1.index.Appended())
	}
	if s0.index.Appended() != 0 || s0.index.Size() != len(samples) {
		t.Fatal("Extend mutated the previous snapshot's index")
	}

	// Keep adapting; the appended share must cross RebuildFraction (0.25)
	// and trigger a rebuild within the next dozen publishes.
	rebuilt := false
	for i := 0; i < 14; i++ {
		adv.OnlineAdapt(corpus(t, 1, int64(70+i))[0], 1)
		s := adv.Serving()
		if !s.Indexed() {
			t.Fatalf("adapt %d: index dropped", i)
		}
		if s.index.Appended() == 0 {
			rebuilt = true
			break
		}
		if s.index.StaleFraction() > 0.25 {
			t.Fatalf("adapt %d: staleness %.3f exceeds RebuildFraction without rebuild",
				i, s.index.StaleFraction())
		}
	}
	if !rebuilt {
		t.Fatal("index never rebuilt despite appended share crossing RebuildFraction")
	}
	if got, want := adv.Serving().index.Size(), adv.Serving().NumSamples(); got != want {
		t.Fatalf("final index covers %d of %d samples", got, want)
	}
}

// TestSaveLoadReusesPersistedIndex pins artifact persistence: the loaded
// advisor must serve the persisted index (detectable by its surviving
// appended counter — a rebuild would reset it) and recommend identically
// to the advisor that was saved.
func TestSaveLoadReusesPersistedIndex(t *testing.T) {
	samples := corpus(t, 32, 66)
	adv, err := Train(samples, annConfig())
	if err != nil {
		t.Fatal(err)
	}
	adv.OnlineAdapt(corpus(t, 1, 67)[0], 1)
	if got := adv.Serving().index.Appended(); got != 1 {
		t.Fatalf("pre-save appended=%d, want 1", got)
	}

	var buf bytes.Buffer
	if err := adv.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ls := loaded.Serving()
	if !ls.Indexed() {
		t.Fatal("loaded advisor is not indexed")
	}
	if got := ls.index.Appended(); got != 1 {
		t.Fatalf("loaded appended=%d, want 1 (persisted index was rebuilt, not reused)", got)
	}
	for i, s := range samples {
		a := adv.RecommendK(s.Graph, 0.9, 4)
		b := loaded.RecommendK(s.Graph, 0.9, 4)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("sample %d: saved %+v != loaded %+v", i, a, b)
		}
	}

	// A corrupted index blob must fail the load loudly, not fall back to
	// a silent rebuild.
	var buf2 bytes.Buffer
	if err := adv.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	raw := buf2.Bytes()
	// Flip a payload byte inside the embedded ANN envelope (locate it by
	// magic; the envelope header is 20 bytes).
	at := bytes.Index(raw, []byte("CEANNv2\n"))
	if at < 0 {
		t.Fatal("ANN envelope not found in artifact")
	}
	raw[at+20+6] ^= 0x20
	if _, err := Load(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted ANN index loaded silently")
	}
}

// TestNearestReferenceMatchesLegacyScan pins the collapsed Step-2 loop
// of IncrementalLearn against a direct transcription of the historical
// two-pass scan, over randomized feedback/reference splits.
func TestNearestReferenceMatchesLegacyScan(t *testing.T) {
	samples := corpus(t, 30, 68)
	adv, err := Train(samples, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	legacy := func(fi int, reference []int) int {
		best, bestD := -1, math.Inf(1)
		n := adv.rcs[fi].Graph.NumVertices()
		for _, ri := range reference {
			if adv.rcs[ri].Graph.NumVertices() != n {
				continue
			}
			if d := euclid(adv.emb[fi], adv.emb[ri]); d < bestD {
				best, bestD = ri, d
			}
		}
		if best == -1 {
			for _, ri := range reference {
				if d := euclid(adv.emb[fi], adv.emb[ri]); d < bestD {
					best, bestD = ri, d
				}
			}
		}
		return best
	}
	rng := rand.New(rand.NewSource(69))
	for trial := 0; trial < 200; trial++ {
		perm := rng.Perm(len(samples))
		cut := 1 + rng.Intn(len(samples)-1)
		reference := perm[:cut]
		fi := perm[cut:][rng.Intn(len(samples)-cut)]
		refSet := make(map[int]bool, len(reference))
		for _, ri := range reference {
			refSet[ri] = true
		}
		got := adv.nearestReference(nil, refSet, fi, reference)
		want := legacy(fi, reference)
		if got != want {
			t.Fatalf("trial %d fi=%d: collapsed %d != legacy %d", trial, fi, got, want)
		}
	}
}

// TestIncrementalLearnIndexed runs the full incremental pass on an
// indexed advisor: the augmented pool must be well formed and the
// republished snapshot must still be indexed and cover the RCS.
func TestIncrementalLearnIndexed(t *testing.T) {
	samples := corpus(t, 25, 71)
	adv, err := Train(samples, annConfig())
	if err != nil {
		t.Fatal(err)
	}
	il := DefaultILConfig()
	il.Epochs = 1
	report := adv.IncrementalLearn(il)
	if report.FeedbackCount+report.ReferenceCount == 0 {
		t.Fatal("discriminator classified nothing")
	}
	s := adv.Serving()
	if !s.Indexed() {
		t.Fatal("snapshot lost its index across IncrementalLearn")
	}
	if s.index.Size() != s.NumSamples() {
		t.Fatalf("index covers %d of %d samples", s.index.Size(), s.NumSamples())
	}
}

// TestConcurrentIndexedServing is the -race hammer for the indexed
// serving path: RecommendBatch and drift detection from several
// goroutines race against IncrementalLearn and OnlineAdapt republishing
// extended or rebuilt indexes underneath them.
func TestConcurrentIndexedServing(t *testing.T) {
	samples := corpus(t, 24, 72)
	cfg := annConfig()
	cfg.Epochs = 4
	adv, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !adv.Serving().Indexed() {
		t.Fatal("advisor is not indexed")
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gs := []*feature.Graph{samples[w].Graph, samples[w+4].Graph}
			for i := 0; !stop.Load(); i++ {
				s := adv.Serving()
				for _, rec := range s.RecommendBatch(gs, 0.9) {
					if rec.Model < 0 {
						errs <- "batch recommendation without a model"
						return
					}
					for _, ni := range rec.Neighbors {
						if ni < 0 || ni >= s.NumSamples() {
							errs <- "neighbor index beyond snapshot RCS"
							return
						}
					}
				}
				if i%5 == 0 {
					s.DetectDrift(gs[0])
				}
			}
		}(w)
	}

	il := DefaultILConfig()
	il.Epochs = 1
	adv.IncrementalLearn(il)
	for i := 0; i < 3; i++ {
		adv.OnlineAdapt(corpus(t, 1, int64(80+i))[0], 1)
	}

	stop.Store(true)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if !adv.Serving().Indexed() {
		t.Fatal("advisor lost its index under concurrent mutation")
	}
}

// TestConfigANNParamsRespected pins that explicit ANN parameters reach
// the built index. The bisecting quantizer treats Nlist as a lower-bound
// target (it splits until every leaf is at most n/Nlist), so the cell
// count may exceed it but never fall below.
func TestConfigANNParamsRespected(t *testing.T) {
	samples := corpus(t, 30, 73)
	cfg := testConfig()
	cfg.ANN = ann.Params{MinIndexSize: 1, Nlist: 5, Nprobe: 2}
	adv, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := adv.Serving()
	if !s.Indexed() {
		t.Fatal("index not built")
	}
	if s.index.Nlist() < 5 || s.index.Nprobe() != 2 {
		t.Fatalf("index has nlist=%d nprobe=%d, want >=5 and 2", s.index.Nlist(), s.index.Nprobe())
	}
}
