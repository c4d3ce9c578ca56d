package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/feature"
	"repro/internal/gnn"
)

// corpus builds a labeled corpus with a learnable structure: single-table
// datasets favor model 0 on accuracy, multi-table datasets favor model 1,
// and model 2 is always the efficiency winner. This gives the metric
// learner a clean signal without running the (slow) real testbed.
func corpus(t testing.TB, n int, seed int64) []*Sample {
	t.Helper()
	cfg := feature.DefaultConfig()
	rng := rand.New(rand.NewSource(seed))
	var out []*Sample
	for i := 0; i < n; i++ {
		p := datagen.DefaultParams(rng.Int63())
		p.MinRows, p.MaxRows = 60, 120
		p.Tables = 1 + rng.Intn(3)
		d, err := datagen.Generate("c", p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := feature.Extract(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		noise := func() float64 { return rng.Float64() * 0.05 }
		var sa []float64
		if d.NumTables() == 1 {
			sa = []float64{1 - noise(), 0.3 + noise(), 0.1 + noise()}
		} else {
			sa = []float64{0.3 + noise(), 1 - noise(), 0.1 + noise()}
		}
		se := []float64{0.2 + noise(), 0.1 + noise(), 1 - noise()}
		out = append(out, &Sample{Name: d.Name, Graph: g, Sa: sa, Se: se})
	}
	return out
}

func testConfig() Config {
	cfg := DefaultConfig(feature.DefaultConfig().VertexDim())
	cfg.GNN = gnn.Config{InDim: feature.DefaultConfig().VertexDim(), Hidden: 16, OutDim: 8, Layers: 2, Seed: 5}
	cfg.Epochs = 10
	cfg.Batch = 12
	return cfg
}

func TestTrainAndSelfRecommend(t *testing.T) {
	samples := corpus(t, 30, 1)
	adv, err := Train(samples, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Recommending a training sample's own graph at wa=1.0 should pick
	// its accuracy winner for the vast majority of samples: with k=2 the
	// sample itself (distance 0) plus its nearest neighbor vote.
	correct := 0
	for _, s := range samples {
		rec := adv.Recommend(s.Graph, 1.0)
		if rec.Model == argmax(s.Sa) {
			correct++
		}
	}
	if correct < len(samples)*7/10 {
		t.Fatalf("self-recommendation accuracy %d/%d too low", correct, len(samples))
	}
}

func TestEfficiencyWeightFlipsRecommendation(t *testing.T) {
	samples := corpus(t, 30, 2)
	adv, err := Train(samples, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// At wa=0 every dataset's winner is model 2 (the efficiency king).
	correct := 0
	for _, s := range samples {
		if adv.Recommend(s.Graph, 0).Model == 2 {
			correct++
		}
	}
	if correct < len(samples)*8/10 {
		t.Fatalf("efficiency recommendation accuracy %d/%d", correct, len(samples))
	}
}

func TestDMLTrainingReducesLoss(t *testing.T) {
	samples := corpus(t, 24, 3)
	cfg := testConfig()
	cfg.Epochs = 0 // untrained
	unadv, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := batchLoss(unadv, samples, 0.9)
	cfg.Epochs = 12
	adv, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := batchLoss(adv, samples, 0.9)
	if after >= before {
		t.Fatalf("weighted contrastive loss did not decrease: %g -> %g", before, after)
	}
}

func TestBasicLossVariantTrains(t *testing.T) {
	samples := corpus(t, 20, 4)
	cfg := testConfig()
	cfg.Loss = LossBasic
	adv, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := adv.Recommend(samples[0].Graph, 1.0)
	if rec.Model < 0 || rec.Model >= len(samples[0].Sa) {
		t.Fatalf("basic-loss advisor returned model %d", rec.Model)
	}
}

func TestPairSets(t *testing.T) {
	scores := [][]float64{
		{1, 0, 0},
		{0.99, 0.01, 0},
		{0, 1, 0},
	}
	pos, neg, sims := pairSets(scores, 0.95)
	if len(pos[0]) != 1 || pos[0][0] != 1 {
		t.Fatalf("pos[0] = %v", pos[0])
	}
	if len(neg[0]) != 1 || neg[0][0] != 2 {
		t.Fatalf("neg[0] = %v", neg[0])
	}
	if sims[0][1] < 0.95 || sims[0][2] > 0.5 {
		t.Fatalf("sims[0] = %v", sims[0])
	}
}

func TestWeightedContrastiveGradientSigns(t *testing.T) {
	// Positive pairs: gradient moves embeddings together; negative pairs:
	// apart. Verify via a single gradient step direction.
	embs := [][]float64{{0, 0}, {1, 0}, {0, 3}}
	scores := [][]float64{{1, 0}, {1, 0.01}, {0, 1}}
	_, grads := weightedContrastive(embs, scores, 0.9, 2)
	// Anchor 0 and 1 are positive: grad on emb[0] along (emb0-emb1) must
	// be positive coefficient (descent moves them together).
	// grad[0] ≈ w*(x0-x1)/d + (negative-pair term toward x2).
	// Descending x0 -= lr*grad[0]: the x-component should push x0 toward
	// x1 (grad[0].x > 0 is wrong; x0.x - x1.x = -1, so grad includes
	// w*(-1) < 0, meaning x0.x increases on descent — toward x1.x = 1).
	if grads[0][0] >= 0 {
		t.Fatalf("positive-pair gradient should pull x0 toward x1: %v", grads[0])
	}
	// The negative pair (0,2): y-component of grad on x0 should push x0
	// away from x2 (x0.y - x2.y = -3; negative pair contributes
	// -w*(-3)/d > 0, so descent decreases x0.y — away from x2).
	if grads[0][1] <= 0 {
		t.Fatalf("negative-pair gradient should push x0 away from x2: %v", grads[0])
	}
}

func TestWeightedContrastiveGradientMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, dim := 5, 3
	embs := make([][]float64, m)
	scores := make([][]float64, m)
	for i := range embs {
		embs[i] = make([]float64, dim)
		scores[i] = make([]float64, 3)
		for f := range embs[i] {
			embs[i][f] = rng.NormFloat64()
		}
		for f := range scores[i] {
			scores[i][f] = rng.Float64()
		}
	}
	lossAt := func() float64 {
		l, _ := weightedContrastive(embs, scores, 0.9, 2)
		return l
	}
	_, grads := weightedContrastive(embs, scores, 0.9, 2)
	const h = 1e-6
	for i := 0; i < m; i++ {
		for f := 0; f < dim; f++ {
			old := embs[i][f]
			embs[i][f] = old + h
			up := lossAt()
			embs[i][f] = old - h
			down := lossAt()
			embs[i][f] = old
			want := (up - down) / (2 * h)
			if math.Abs(grads[i][f]-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("emb %d dim %d: grad %g numeric %g", i, f, grads[i][f], want)
			}
		}
	}
}

func TestBasicContrastiveGradientMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, dim := 4, 2
	embs := make([][]float64, m)
	scores := make([][]float64, m)
	for i := range embs {
		embs[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		scores[i] = []float64{rng.Float64(), rng.Float64()}
	}
	lossAt := func() float64 {
		l, _ := basicContrastive(embs, scores, 0.9)
		return l
	}
	_, grads := basicContrastive(embs, scores, 0.9)
	const h = 1e-6
	for i := 0; i < m; i++ {
		for f := 0; f < dim; f++ {
			old := embs[i][f]
			embs[i][f] = old + h
			up := lossAt()
			embs[i][f] = old - h
			down := lossAt()
			embs[i][f] = old
			want := (up - down) / (2 * h)
			if math.Abs(grads[i][f]-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("emb %d dim %d: grad %g numeric %g", i, f, grads[i][f], want)
			}
		}
	}
}

func TestRecommendKVariants(t *testing.T) {
	samples := corpus(t, 20, 8)
	adv, err := Train(samples, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 5; k++ {
		rec := adv.RecommendK(samples[0].Graph, 0.9, k)
		if len(rec.Neighbors) != k {
			t.Fatalf("k=%d returned %d neighbors", k, len(rec.Neighbors))
		}
	}
	// RecommendK must not permanently change the advisor's k.
	rec := adv.Recommend(samples[0].Graph, 0.9)
	if len(rec.Neighbors) != testConfig().K {
		t.Fatalf("RecommendK leaked k: %d neighbors", len(rec.Neighbors))
	}
}

func TestIncrementalLearning(t *testing.T) {
	samples := corpus(t, 30, 9)
	cfg := testConfig()
	cfg.Epochs = 6
	adv, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	il := DefaultILConfig()
	il.Epochs = 4
	report := adv.IncrementalLearn(il)
	if report.FeedbackCount+report.ReferenceCount != len(samples) {
		t.Fatalf("discriminator covered %d samples, want %d",
			report.FeedbackCount+report.ReferenceCount, len(samples))
	}
	if report.Synthesized != report.FeedbackCount && report.ReferenceCount > 0 {
		t.Fatalf("synthesized %d for %d feedback samples", report.Synthesized, report.FeedbackCount)
	}
	// The RCS must not contain synthetic samples.
	if len(adv.RCS()) != len(samples) {
		t.Fatalf("RCS grew to %d", len(adv.RCS()))
	}
}

func TestIncrementalLearningNoAugmentation(t *testing.T) {
	samples := corpus(t, 24, 10)
	cfg := testConfig()
	cfg.Epochs = 6
	adv, _ := Train(samples, cfg)
	il := DefaultILConfig()
	il.Augment = false
	il.Epochs = 2
	report := adv.IncrementalLearn(il)
	if report.Synthesized != 0 {
		t.Fatalf("augmentation disabled but synthesized %d", report.Synthesized)
	}
}

func TestDriftDetection(t *testing.T) {
	samples := corpus(t, 25, 11)
	adv, err := Train(samples, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	thr := adv.DriftThreshold()
	if thr <= 0 {
		t.Fatalf("drift threshold %g", thr)
	}
	// A training graph is never drift.
	if adv.DetectDrift(samples[0].Graph) {
		t.Fatal("training sample flagged as drift")
	}
	// A wildly out-of-range graph is drift.
	far := samples[0].Graph.Clone()
	for i := range far.V {
		for f := range far.V[i] {
			far.V[i][f] = 50
		}
	}
	if !adv.DetectDrift(far) {
		t.Fatal("far-away graph not flagged as drift")
	}
}

func TestOnlineAdaptAddsToRCS(t *testing.T) {
	samples := corpus(t, 20, 12)
	adv, err := Train(samples, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	extra := corpus(t, 1, 13)[0]
	adv.OnlineAdapt(extra, 2)
	if len(adv.RCS()) != 21 {
		t.Fatalf("RCS size %d after online adapt", len(adv.RCS()))
	}
	// The adapted sample is now its own nearest neighbor.
	rec := adv.RecommendK(extra.Graph, 1.0, 1)
	if adv.RCS()[rec.Neighbors[0]].Name != extra.Name {
		t.Fatal("adapted sample not retrievable as nearest neighbor")
	}
}

func TestBetaSampleRange(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var sum float64
	for i := 0; i < 2000; i++ {
		l := betaSample(rng, 2, 2)
		if l < 0 || l > 1 {
			t.Fatalf("beta sample %g outside [0,1]", l)
		}
		sum += l
	}
	if mean := sum / 2000; math.Abs(mean-0.5) > 0.05 {
		t.Fatalf("Beta(2,2) mean %g, want ~0.5", mean)
	}
	// Asymmetric shapes shift the mean.
	var sumA float64
	for i := 0; i < 2000; i++ {
		sumA += betaSample(rng, 4, 1)
	}
	if mean := sumA / 2000; mean < 0.7 {
		t.Fatalf("Beta(4,1) mean %g, want ~0.8", mean)
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	if _, err := Train(nil, testConfig()); err == nil {
		t.Fatal("empty corpus accepted")
	}
	samples := corpus(t, 3, 15)
	samples[1].Sa = samples[1].Sa[:1]
	if _, err := Train(samples, testConfig()); err == nil {
		t.Fatal("inconsistent labels accepted")
	}
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// batchLoss computes the current loss of a's encoder on samples at weight
// wa, without updating parameters. It reads the training encoder, so it
// takes the mutator lock.
func batchLoss(a *Advisor, samples []*Sample, wa float64) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	embs := make([][]float64, len(samples))
	for i, s := range samples {
		embs[i] = a.enc.Embed(s.Graph)
	}
	scores := make([][]float64, len(samples))
	for i, s := range samples {
		scores[i] = s.Score(wa)
	}
	tau := a.effectiveTau(scores)
	var loss float64
	if a.cfg.Loss == LossBasic {
		loss, _ = basicContrastive(embs, scores, tau)
	} else {
		loss, _ = weightedContrastive(embs, scores, tau, a.cfg.Gamma)
	}
	return loss
}
