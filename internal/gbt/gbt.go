// Package gbt implements regression trees and gradient boosting with
// squared loss — the substrate for the LW-XGB cardinality estimator (Dutt
// et al., "Selectivity estimation for range predicates using lightweight
// models"), which the paper evaluates as one of its query-driven models.
//
// The implementation is a standard XGBoost-style additive ensemble: each
// round fits a depth-bounded regression tree to the negative gradient
// (residuals under squared loss), with greedy variance-reduction splits and
// shrinkage. Only the stdlib is used.
package gbt

import (
	"fmt"
	"slices"
)

// Config controls ensemble training.
type Config struct {
	// Rounds is the number of boosting rounds (trees).
	Rounds int
	// MaxDepth bounds tree depth; a depth-0 tree is a single leaf.
	MaxDepth int
	// LearningRate is the shrinkage applied to each tree's predictions.
	LearningRate float64
	// MinLeaf is the minimum number of samples in a leaf.
	MinLeaf int
	// MaxBins caps the number of candidate thresholds evaluated per
	// feature (quantile sketch); 0 means exact splits.
	MaxBins int
}

// DefaultConfig returns the configuration used by the LW-XGB estimator.
func DefaultConfig() Config {
	return Config{Rounds: 60, MaxDepth: 4, LearningRate: 0.2, MinLeaf: 4, MaxBins: 32}
}

type node struct {
	feature   int
	threshold float64
	left      int
	right     int
	leaf      bool
	value     float64
}

// Tree is one fitted regression tree (array-encoded).
type Tree struct {
	nodes []node
}

// Predict returns the tree's output for x.
func (t *Tree) Predict(x []float64) float64 {
	i := 0
	for {
		n := &t.nodes[i]
		if n.leaf {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Ensemble is a trained boosted ensemble.
type Ensemble struct {
	Base  float64 // initial prediction (target mean)
	Trees []*Tree
	LR    float64
}

// Predict returns the ensemble prediction for feature vector x.
func (e *Ensemble) Predict(x []float64) float64 {
	y := e.Base
	for _, t := range e.Trees {
		y += e.LR * t.Predict(x)
	}
	return y
}

// Train fits an ensemble to (xs, ys) under squared loss.
func Train(xs [][]float64, ys []float64, cfg Config) (*Ensemble, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("gbt: empty training set")
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("gbt: %d feature rows for %d targets", len(xs), len(ys))
	}
	if cfg.Rounds < 1 || cfg.LearningRate <= 0 {
		return nil, fmt.Errorf("gbt: invalid config %+v", cfg)
	}
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	var base float64
	for _, y := range ys {
		base += y
	}
	base /= float64(len(ys))

	e := &Ensemble{Base: base, LR: cfg.LearningRate}
	pred := make([]float64, len(ys))
	for i := range pred {
		pred[i] = base
	}
	residual := make([]float64, len(ys))
	idx := make([]int, len(ys))
	for i := range idx {
		idx[i] = i
	}
	for r := 0; r < cfg.Rounds; r++ {
		for i := range ys {
			residual[i] = ys[i] - pred[i]
		}
		t := fitTree(xs, residual, idx, cfg)
		e.Trees = append(e.Trees, t)
		for i := range ys {
			pred[i] += cfg.LearningRate * t.Predict(xs[i])
		}
	}
	return e, nil
}

// fitTree greedily grows one variance-reducing regression tree over the
// sample indexes idx.
func fitTree(xs [][]float64, target []float64, idx []int, cfg Config) *Tree {
	t := &Tree{}
	var grow func(samples []int, depth int) int
	grow = func(samples []int, depth int) int {
		mean := meanAt(target, samples)
		self := len(t.nodes)
		t.nodes = append(t.nodes, node{leaf: true, value: mean})
		if depth >= cfg.MaxDepth || len(samples) < 2*cfg.MinLeaf {
			return self
		}
		feat, thr, gain := bestSplit(xs, target, samples, cfg)
		if gain <= 1e-12 {
			return self
		}
		var left, right []int
		for _, s := range samples {
			if xs[s][feat] <= thr {
				left = append(left, s)
			} else {
				right = append(right, s)
			}
		}
		if len(left) < cfg.MinLeaf || len(right) < cfg.MinLeaf {
			return self
		}
		li := grow(left, depth+1)
		ri := grow(right, depth+1)
		t.nodes[self] = node{feature: feat, threshold: thr, left: li, right: ri}
		return self
	}
	grow(idx, 0)
	return t
}

// bestSplit scans features for the threshold with maximal SSE reduction.
func bestSplit(xs [][]float64, target []float64, samples []int, cfg Config) (feat int, thr float64, gain float64) {
	nf := len(xs[samples[0]])
	total, totalSq := sums(target, samples)
	n := float64(len(samples))
	baseSSE := totalSq - total*total/n

	feat, gain = -1, 0
	buf := make([]pair, 0, len(samples))
	for f := 0; f < nf; f++ {
		buf = buf[:0]
		for _, s := range samples {
			buf = append(buf, pair{xs[s][f], target[s]})
		}
		slices.SortFunc(buf, byX)
		if buf[0].x == buf[len(buf)-1].x {
			continue
		}
		// Candidate cut positions: every value change, optionally thinned
		// to MaxBins quantiles.
		stride := 1
		if cfg.MaxBins > 0 && len(buf) > cfg.MaxBins {
			stride = len(buf) / cfg.MaxBins
		}
		var lSum, lSq float64
		lCnt := 0
		for i := 0; i+1 < len(buf); i++ {
			lSum += buf[i].y
			lSq += buf[i].y * buf[i].y
			lCnt++
			if buf[i].x == buf[i+1].x {
				continue
			}
			if stride > 1 && i%stride != 0 {
				continue
			}
			if lCnt < cfg.MinLeaf || len(buf)-lCnt < cfg.MinLeaf {
				continue
			}
			rSum := total - lSum
			rSq := totalSq - lSq
			rCnt := float64(len(buf) - lCnt)
			sse := (lSq - lSum*lSum/float64(lCnt)) + (rSq - rSum*rSum/rCnt)
			if g := baseSSE - sse; g > gain {
				gain = g
				feat = f
				thr = (buf[i].x + buf[i+1].x) / 2
			}
		}
	}
	if feat == -1 {
		return 0, 0, 0
	}
	return feat, thr, gain
}

// pair is one sample's (feature value, target) during split search.
type pair struct{ x, y float64 }

// byX orders pairs by feature value without sort.Slice's reflection. It
// is negative exactly when a.x < b.x, and slices.SortFunc runs the same
// pdqsort as sort.Slice, so the two make the same swaps (ties included)
// and the split sums do not change.
func byX(a, b pair) int {
	switch {
	case a.x < b.x:
		return -1
	case a.x > b.x:
		return 1
	}
	return 0
}

func meanAt(ys []float64, samples []int) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, i := range samples {
		s += ys[i]
	}
	return s / float64(len(samples))
}

func sums(ys []float64, samples []int) (sum, sumSq float64) {
	for _, i := range samples {
		sum += ys[i]
		sumSq += ys[i] * ys[i]
	}
	return sum, sumSq
}

// MSELoss returns the mean squared error of the ensemble on (xs, ys);
// exported for tests and training diagnostics.
func (e *Ensemble) MSELoss(xs [][]float64, ys []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for i := range xs {
		d := e.Predict(xs[i]) - ys[i]
		s += d * d
	}
	return s / float64(len(xs))
}

// NumLeaves returns the total leaf count across trees, a complexity proxy
// used in tests.
func (e *Ensemble) NumLeaves() int {
	n := 0
	for _, t := range e.Trees {
		for _, nd := range t.nodes {
			if nd.leaf {
				n++
			}
		}
	}
	return n
}
