// Package gbt implements regression trees and gradient boosting with
// squared loss — the substrate for the LW-XGB cardinality estimator (Dutt
// et al., "Selectivity estimation for range predicates using lightweight
// models"), which the paper evaluates as one of its query-driven models.
//
// The implementation is a standard XGBoost-style additive ensemble: each
// round fits a depth-bounded regression tree to the negative gradient
// (residuals under squared loss), with greedy variance-reduction splits and
// shrinkage. Only the stdlib is used.
//
// Split search follows XGBoost's exact greedy algorithm over a presorted
// column block (Chen & Guestrin, "XGBoost", KDD 2016): Train sorts each
// feature's rows once, by (value, row index), and every split stably
// partitions its parent's per-feature lists, so no node sorts. A node's
// row-ascending list is partitioned alongside, and leaf means and split
// totals add their targets in that order.
package gbt

import (
	"cmp"
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
	g := newGrower(xs, cfg)
	for r := 0; r < cfg.Rounds; r++ {
		for i := range ys {
			g.target[i] = ys[i] - pred[i]
		}
		t := g.fitTree()
		e.Trees = append(e.Trees, t)
		for i := range ys {
			pred[i] += cfg.LearningRate * t.Predict(xs[i])
		}
	}
	return e, nil
}

// grower holds one Train call's column block and every buffer its trees
// grow in, allocated once. A node owns the same segment [lo, hi) of rows
// and of each feature's list in work; splitting it partitions each of
// those segments stably into the left rows, then the right rows.
type grower struct {
	cfg    Config
	n, nf  int
	cols   []float64 // nf×n: cols[f*n+r] is row r's value of feature f
	order  []int32   // nf×n: each feature's rows sorted once by (value, row)
	work   []int32   // nf×n: this tree's copy of order, partitioned by its nodes
	rows   []int32   // this tree's rows, ascending within every node's segment
	tmp    []int32   // partition scratch
	left   []bool    // per row: whether it goes left at the node being split
	target []float64 // per row: the residual this tree fits
	nodes  []node    // this tree's nodes while it grows
}

func newGrower(xs [][]float64, cfg Config) *grower {
	n, nf := len(xs), len(xs[0])
	g := &grower{
		cfg: cfg, n: n, nf: nf,
		cols:   make([]float64, nf*n),
		order:  make([]int32, nf*n),
		work:   make([]int32, nf*n),
		rows:   make([]int32, n),
		tmp:    make([]int32, n),
		left:   make([]bool, n),
		target: make([]float64, n),
	}
	for f := 0; f < nf; f++ {
		col := g.cols[f*n : (f+1)*n]
		for r, x := range xs {
			col[r] = x[f]
		}
		list := g.order[f*n : (f+1)*n]
		for r := range list {
			list[r] = int32(r)
		}
		slices.SortFunc(list, func(a, b int32) int {
			if c := cmp.Compare(col[a], col[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	return g
}

// fitTree greedily grows one variance-reducing regression tree over all
// rows, fitting g.target.
func (g *grower) fitTree() *Tree {
	copy(g.work, g.order)
	for r := range g.rows {
		g.rows[r] = int32(r)
	}
	g.nodes = g.nodes[:0]
	g.grow(0, g.n, 0)
	return &Tree{nodes: slices.Clone(g.nodes)}
}

// grow appends the subtree over the rows of segment [lo, hi) and returns
// its root's index. Children are always appended after their parent.
func (g *grower) grow(lo, hi, depth int) int {
	samples := g.rows[lo:hi]
	mean := meanAt(g.target, samples)
	self := len(g.nodes)
	g.nodes = append(g.nodes, node{leaf: true, value: mean})
	if depth >= g.cfg.MaxDepth || len(samples) < 2*g.cfg.MinLeaf {
		return self
	}
	feat, thr, gain := g.bestSplit(lo, hi)
	if gain <= 1e-12 {
		return self
	}
	col := g.cols[feat*g.n : (feat+1)*g.n]
	nl := 0
	for _, r := range samples {
		g.left[r] = col[r] <= thr
		if g.left[r] {
			nl++
		}
	}
	if nl < g.cfg.MinLeaf || len(samples)-nl < g.cfg.MinLeaf {
		return self
	}
	g.partition(samples)
	for f := 0; f < g.nf; f++ {
		g.partition(g.work[f*g.n+lo : f*g.n+hi])
	}
	li := g.grow(lo, lo+nl, depth+1)
	ri := g.grow(lo+nl, hi, depth+1)
	g.nodes[self] = node{feature: feat, threshold: thr, left: li, right: ri}
	return self
}

// partition stably reorders list so that the rows marked left come first.
func (g *grower) partition(list []int32) {
	nl, nr := 0, 0
	for _, r := range list {
		if g.left[r] {
			list[nl] = r
			nl++
		} else {
			g.tmp[nr] = r
			nr++
		}
	}
	copy(list[nl:], g.tmp[:nr])
}

// bestSplit scans features for the threshold with maximal SSE reduction
// over the rows of segment [lo, hi), reading each feature's rows in
// (value, row) order from its presorted list.
func (g *grower) bestSplit(lo, hi int) (feat int, thr float64, gain float64) {
	target := g.target
	total, totalSq := sums(target, g.rows[lo:hi])
	m := hi - lo
	n := float64(m)
	baseSSE := totalSq - total*total/n

	// Candidate cut positions: every value change, optionally thinned to
	// MaxBins quantiles.
	stride := 1
	if g.cfg.MaxBins > 0 && m > g.cfg.MaxBins {
		stride = m / g.cfg.MaxBins
	}
	feat, gain = -1, 0
	for f := 0; f < g.nf; f++ {
		col := g.cols[f*g.n : (f+1)*g.n]
		list := g.work[f*g.n+lo : f*g.n+hi]
		if col[list[0]] == col[list[m-1]] {
			continue
		}
		var lSum, lSq float64
		lCnt := 0
		for i := 0; i+1 < m; i++ {
			y := target[list[i]]
			lSum += y
			lSq += y * y
			lCnt++
			x, next := col[list[i]], col[list[i+1]]
			if x == next {
				continue
			}
			if stride > 1 && i%stride != 0 {
				continue
			}
			if lCnt < g.cfg.MinLeaf || m-lCnt < g.cfg.MinLeaf {
				continue
			}
			rSum := total - lSum
			rSq := totalSq - lSq
			rCnt := float64(m - lCnt)
			sse := (lSq - lSum*lSum/float64(lCnt)) + (rSq - rSum*rSum/rCnt)
			if d := baseSSE - sse; d > gain {
				gain = d
				feat = f
				thr = (x + next) / 2
			}
		}
	}
	if feat == -1 {
		return 0, 0, 0
	}
	return feat, thr, gain
}

func meanAt(ys []float64, samples []int32) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, i := range samples {
		s += ys[i]
	}
	return s / float64(len(samples))
}

func sums(ys []float64, samples []int32) (sum, sumSq float64) {
	for _, i := range samples {
		sum += ys[i]
		sumSq += ys[i] * ys[i]
	}
	return sum, sumSq
}
