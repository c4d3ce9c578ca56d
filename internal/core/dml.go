package core

import (
	"math"
	"math/rand"

	"repro/internal/gnn"
	"repro/internal/metrics"
	"repro/internal/nn"
)

// Train runs Algorithm 1: deep-metric learning of the GIN encoder over the
// labeled feature graphs, then builds the advisor with the samples as its
// recommendation candidate set.
func Train(samples []*Sample, cfg Config) (*Advisor, error) {
	if err := validateSamples(samples); err != nil {
		return nil, err
	}
	a := &Advisor{cfg: cfg, enc: gnn.New(cfg.GNN)}
	a.trainDML(samples, cfg)
	a.rcs = append([]*Sample(nil), samples...)
	a.refreshEmbeddings()
	a.publishLocked()
	return a, nil
}

// trainDML runs the batched metric-learning loop on the existing encoder.
// It is reused by incremental learning and online adapting, which continue
// training rather than reinitialize.
func (a *Advisor) trainDML(samples []*Sample, cfg Config) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewAdam(a.enc.Params(), cfg.LR)
	order := rng.Perm(len(samples))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.Batch {
			end := start + cfg.Batch
			if end > len(order) {
				end = len(order)
			}
			batch := make([]*Sample, 0, end-start)
			for _, si := range order[start:end] {
				batch = append(batch, samples[si])
			}
			if len(batch) < 2 {
				continue
			}
			// Each batch learns one randomly drawn metric combination, so
			// the encoder covers the whole requirement space (Eq. 2).
			wa := cfg.WeightGrid[rng.Intn(len(cfg.WeightGrid))]
			a.dmlStep(batch, wa, opt)
		}
	}
}

// dmlStep performs one forward/backward/update over a batch. Each sample's
// forward/backward runs on its cached encoder tape (graphs are immutable
// across epochs), so steady-state steps rebuild no autodiff graph.
func (a *Advisor) dmlStep(batch []*Sample, wa float64, opt nn.Optimizer) float64 {
	m := len(batch)
	tapes := make([]*gnn.Tape, m)
	embs := make([][]float64, m)
	for i, s := range batch {
		tapes[i] = a.enc.TapeFor(s.Graph)
		embs[i] = tapes[i].Forward().Row(0)
	}
	scores := make([][]float64, m)
	for i, s := range batch {
		scores[i] = s.Score(wa)
	}
	tau := a.effectiveTau(scores)
	var loss float64
	var grads [][]float64
	if a.cfg.Loss == LossBasic {
		loss, grads = basicContrastive(embs, scores, tau)
	} else {
		loss, grads = weightedContrastive(embs, scores, tau, a.cfg.Gamma)
	}
	for i := range tapes {
		tapes[i].Backward(grads[i])
	}
	opt.Step()
	return loss
}

// effectiveTau resolves the similarity threshold for one batch: the fixed
// Tau, or the TauQuantile quantile of the batch's pairwise similarities.
func (a *Advisor) effectiveTau(scores [][]float64) float64 {
	if a.cfg.TauQuantile <= 0 {
		return a.cfg.Tau
	}
	var sims []float64
	for i := range scores {
		for j := i + 1; j < len(scores); j++ {
			sims = append(sims, metrics.CosineSimilarity(scores[i], scores[j]))
		}
	}
	if len(sims) == 0 {
		return a.cfg.Tau
	}
	return metrics.Percentile(sims, a.cfg.TauQuantile*100)
}

// pairSets partitions batch indexes into positive and negative sets per
// anchor using the performance similarity of Eq. 6 and the threshold τ
// (Eq. 7). Self-pairs are excluded.
func pairSets(scores [][]float64, tau float64) (pos, neg [][]int, sims [][]float64) {
	m := len(scores)
	sims = make([][]float64, m)
	pos = make([][]int, m)
	neg = make([][]int, m)
	for i := 0; i < m; i++ {
		sims[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			s := metrics.CosineSimilarity(scores[i], scores[j])
			sims[i][j], sims[j][i] = s, s
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			if sims[i][j] >= tau {
				pos[i] = append(pos[i], j)
			} else {
				neg[i] = append(neg[i], j)
			}
		}
	}
	return pos, neg, sims
}

// pairDistances returns the Euclidean distance matrix of the embeddings.
func pairDistances(embs [][]float64) [][]float64 {
	m := len(embs)
	u := make([][]float64, m)
	for i := range u {
		u[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			d := metrics.EuclideanDistance(embs[i], embs[j])
			u[i][j], u[j][i] = d, d
		}
	}
	return u
}

// weightedContrastive implements Eq. 9 and its analytic gradient with
// respect to each embedding. For every anchor i:
//
//	L_i = log Σ_{k∈P_i} e^{U_ik + Sim_ik} + log Σ_{k∈N_i} e^{γ - U_ik - Sim_ik}
//
// and L = (1/m) Σ_i L_i. The gradients follow the paper's pair-weighting
// analysis (Eq. 11-12): ∂L/∂U_ik is the softmax weight of the pair within
// its positive (or, negated, negative) set.
func weightedContrastive(embs, scores [][]float64, tau, gamma float64) (float64, [][]float64) {
	m := len(embs)
	dim := len(embs[0])
	pos, neg, sims := pairSets(scores, tau)
	u := pairDistances(embs)

	grads := make([][]float64, m)
	for i := range grads {
		grads[i] = make([]float64, dim)
	}
	// dU[i][k] accumulates ∂L/∂U_ik over anchors.
	dU := make([][]float64, m)
	for i := range dU {
		dU[i] = make([]float64, m)
	}
	var loss float64
	inv := 1 / float64(m)
	for i := 0; i < m; i++ {
		if len(pos[i]) > 0 {
			// log-sum-exp with max shift for stability.
			maxe := math.Inf(-1)
			for _, k := range pos[i] {
				if e := u[i][k] + sims[i][k]; e > maxe {
					maxe = e
				}
			}
			var sum float64
			for _, k := range pos[i] {
				sum += math.Exp(u[i][k] + sims[i][k] - maxe)
			}
			loss += inv * (maxe + math.Log(sum))
			for _, k := range pos[i] {
				w := math.Exp(u[i][k]+sims[i][k]-maxe) / sum
				dU[i][k] += inv * w
			}
		}
		if len(neg[i]) > 0 {
			maxe := math.Inf(-1)
			for _, k := range neg[i] {
				if e := gamma - u[i][k] - sims[i][k]; e > maxe {
					maxe = e
				}
			}
			var sum float64
			for _, k := range neg[i] {
				sum += math.Exp(gamma - u[i][k] - sims[i][k] - maxe)
			}
			loss += inv * (maxe + math.Log(sum))
			for _, k := range neg[i] {
				w := math.Exp(gamma-u[i][k]-sims[i][k]-maxe) / sum
				dU[i][k] -= inv * w
			}
		}
	}
	applyDistanceGrads(embs, u, dU, grads)
	return loss, grads
}

// basicContrastive implements Eq. 10: L = (1/m) Σ_i (Σ_{k∈P_i} U_ik −
// Σ_{k∈N_i} U_ik), the loss AutoCE is compared against in Figure 7.
func basicContrastive(embs, scores [][]float64, tau float64) (float64, [][]float64) {
	m := len(embs)
	dim := len(embs[0])
	pos, neg, _ := pairSets(scores, tau)
	u := pairDistances(embs)
	grads := make([][]float64, m)
	for i := range grads {
		grads[i] = make([]float64, dim)
	}
	dU := make([][]float64, m)
	for i := range dU {
		dU[i] = make([]float64, m)
	}
	var loss float64
	inv := 1 / float64(m)
	for i := 0; i < m; i++ {
		for _, k := range pos[i] {
			loss += inv * u[i][k]
			dU[i][k] += inv
		}
		for _, k := range neg[i] {
			loss -= inv * u[i][k]
			dU[i][k] -= inv
		}
	}
	applyDistanceGrads(embs, u, dU, grads)
	return loss, grads
}

// applyDistanceGrads converts ∂L/∂U_ik into embedding gradients through
// the Euclidean distance: ∂U_ik/∂x_i = (x_i - x_k)/U_ik.
func applyDistanceGrads(embs, u, dU [][]float64, grads [][]float64) {
	m := len(embs)
	const eps = 1e-8
	for i := 0; i < m; i++ {
		for k := 0; k < m; k++ {
			g := dU[i][k]
			if g == 0 || i == k {
				continue
			}
			d := u[i][k]
			if d < eps {
				d = eps
			}
			for f := range grads[i] {
				diff := (embs[i][f] - embs[k][f]) / d
				grads[i][f] += g * diff
				grads[k][f] -= g * diff
			}
		}
	}
}
