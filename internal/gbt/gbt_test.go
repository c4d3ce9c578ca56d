package gbt

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestFitsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([][]float64, 400)
	ys := make([]float64, 400)
	for i := range xs {
		a, b := rng.Float64()*10, rng.Float64()*10
		xs[i] = []float64{a, b}
		ys[i] = 2*a - b
	}
	ens, err := Train(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if mse := mseLoss(ens, xs, ys); mse > 1.0 {
		t.Fatalf("linear fit MSE %g too high", mse)
	}
}

func TestFitsStepFunction(t *testing.T) {
	// Trees should nail axis-aligned steps almost exactly.
	xs := make([][]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		x := float64(i) / 200
		xs[i] = []float64{x}
		if x > 0.5 {
			ys[i] = 10
		}
	}
	ens, err := Train(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := ens.Predict([]float64{0.2}); math.Abs(got) > 0.5 {
		t.Fatalf("step low side = %g", got)
	}
	if got := ens.Predict([]float64{0.9}); math.Abs(got-10) > 0.5 {
		t.Fatalf("step high side = %g", got)
	}
}

func TestBoostingReducesLossMonotonically(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([][]float64, 300)
	ys := make([]float64, 300)
	for i := range xs {
		a, b := rng.Float64(), rng.Float64()
		xs[i] = []float64{a, b}
		ys[i] = math.Sin(5*a) + b*b
	}
	cfg := DefaultConfig()
	prev := math.Inf(1)
	for _, rounds := range []int{5, 20, 60} {
		cfg.Rounds = rounds
		ens, err := Train(xs, ys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mse := mseLoss(ens, xs, ys)
		if mse > prev+1e-9 {
			t.Fatalf("more rounds increased training loss: %g -> %g", prev, mse)
		}
		prev = mse
	}
}

func TestConstantTarget(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}}
	ys := []float64{7, 7, 7}
	ens, err := Train(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := ens.Predict([]float64{1.5}); math.Abs(got-7) > 1e-9 {
		t.Fatalf("constant prediction = %g", got)
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	if _, err := Train(nil, nil, DefaultConfig()); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, DefaultConfig()); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	bad := DefaultConfig()
	bad.Rounds = 0
	if _, err := Train([][]float64{{1}}, []float64{1}, bad); err == nil {
		t.Fatal("zero rounds accepted")
	}
}

func TestMinLeafRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([][]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		xs[i] = []float64{rng.Float64()}
		ys[i] = rng.Float64()
	}
	cfg := DefaultConfig()
	cfg.MinLeaf = 25 // only a root split into two exact halves could satisfy this
	ens, err := Train(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if leaves := numLeaves(ens); leaves > cfg.Rounds*2 {
		t.Fatalf("MinLeaf=25 on 50 samples should cap each tree at 2 leaves, got %d total", leaves)
	}
}

func TestDepthZeroIsLeafOnly(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}, {4}}
	ys := []float64{1, 2, 3, 4}
	cfg := DefaultConfig()
	cfg.MaxDepth = 0
	cfg.Rounds = 3
	ens, err := Train(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if numLeaves(ens) != 3 {
		t.Fatalf("depth-0 trees should be single leaves, got %d leaves over 3 trees", numLeaves(ens))
	}
}

// refFitTree is the sort-per-node tree grower that the presorted column
// block replaced, kept as the reference for TestPresortMatchesSortPerNode:
// every node rebuilds each feature's (value, target) pairs from its
// row-ascending samples and sorts them.
func refFitTree(xs [][]float64, target []float64, idx []int, cfg Config) *Tree {
	t := &Tree{}
	var grow func(samples []int, depth int) int
	grow = func(samples []int, depth int) int {
		var mean float64
		for _, s := range samples {
			mean += target[s]
		}
		mean /= float64(len(samples))
		self := len(t.nodes)
		t.nodes = append(t.nodes, node{leaf: true, value: mean})
		if depth >= cfg.MaxDepth || len(samples) < 2*cfg.MinLeaf {
			return self
		}
		feat, thr, gain := refBestSplit(xs, target, samples, cfg)
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

func refBestSplit(xs [][]float64, target []float64, samples []int, cfg Config) (feat int, thr float64, gain float64) {
	type pair struct{ x, y float64 }
	nf := len(xs[samples[0]])
	var total, totalSq float64
	for _, s := range samples {
		total += target[s]
		totalSq += target[s] * target[s]
	}
	n := float64(len(samples))
	baseSSE := totalSq - total*total/n
	feat, gain = -1, 0
	buf := make([]pair, 0, len(samples))
	for f := 0; f < nf; f++ {
		buf = buf[:0]
		for _, s := range samples {
			buf = append(buf, pair{xs[s][f], target[s]})
		}
		slices.SortFunc(buf, func(a, b pair) int { return cmp.Compare(a.x, b.x) })
		if buf[0].x == buf[len(buf)-1].x {
			continue
		}
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

// refTrain is Train over refFitTree.
func refTrain(xs [][]float64, ys []float64, cfg Config) *Ensemble {
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
		t := refFitTree(xs, residual, idx, cfg)
		e.Trees = append(e.Trees, t)
		for i := range ys {
			pred[i] += cfg.LearningRate * t.Predict(xs[i])
		}
	}
	return e
}

// TestPresortMatchesSortPerNode: on inputs without tied feature values,
// where every sort order is unique, the presorted Train builds the
// sort-per-node reference's ensemble bit for bit, across the split
// thinning, leaf-size and depth settings.
func TestPresortMatchesSortPerNode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfgs := []Config{
		DefaultConfig(),
		{Rounds: 15, MaxDepth: 6, LearningRate: 0.3, MinLeaf: 1, MaxBins: 0},
		{Rounds: 10, MaxDepth: 3, LearningRate: 0.1, MinLeaf: 7, MaxBins: 5},
		{Rounds: 5, MaxDepth: 0, LearningRate: 0.5, MinLeaf: 2, MaxBins: 32},
	}
	for trial := 0; trial < 40; trial++ {
		n, nf := 2+rng.Intn(300), 1+rng.Intn(12)
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = make([]float64, nf)
			for f := range xs[i] {
				xs[i][f] = rng.NormFloat64() * float64(f+1)
			}
			ys[i] = math.Sin(3*xs[i][0]) + rng.NormFloat64()
			if i%5 == 0 {
				ys[i] = ys[i/2] // tied targets are fine; only values must be tie-free
			}
		}
		cfg := cfgs[trial%len(cfgs)]
		got, err := Train(xs, ys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := refTrain(xs, ys, cfg)
		if math.Float64bits(got.Base) != math.Float64bits(want.Base) || len(got.Trees) != len(want.Trees) {
			t.Fatalf("trial %d: base %v/%v, %d/%d trees", trial, got.Base, want.Base, len(got.Trees), len(want.Trees))
		}
		for ti := range want.Trees {
			g, w := got.Trees[ti].nodes, want.Trees[ti].nodes
			if len(g) != len(w) {
				t.Fatalf("trial %d tree %d: %d nodes, reference %d", trial, ti, len(g), len(w))
			}
			for i := range w {
				if g[i].feature != w[i].feature || g[i].left != w[i].left || g[i].right != w[i].right ||
					g[i].leaf != w[i].leaf || math.Float64bits(g[i].threshold) != math.Float64bits(w[i].threshold) ||
					math.Float64bits(g[i].value) != math.Float64bits(w[i].value) {
					t.Fatalf("trial %d tree %d node %d: %+v, reference %+v", trial, ti, i, g[i], w[i])
				}
			}
		}
	}
}

// TestTreeGobDecodeRejectsNonDescendingChildren: a child index at or
// before its own node (here node 0 names itself) would send Predict round
// a loop forever, so decoding rejects it, as it rejects an empty tree.
func TestTreeGobDecodeRejectsNonDescendingChildren(t *testing.T) {
	for name, nodes := range map[string][]node{
		"self loop":   {{feature: 0, left: 0, right: 1}, {leaf: true}},
		"back edge":   {{feature: 0, left: 1, right: 2}, {feature: 0, left: 0, right: 2}, {leaf: true}},
		"no nodes":    {},
		"neg feature": {{feature: -1, left: 1, right: 2}, {leaf: true}, {leaf: true}},
	} {
		data, err := (&Tree{nodes: nodes}).GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if err := new(Tree).GobDecode(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	ok := &Tree{nodes: []node{{feature: 2, left: 1, right: 2}, {leaf: true}, {leaf: true}}}
	data, _ := ok.GobEncode()
	var back Tree
	if err := back.GobDecode(data); err != nil {
		t.Fatalf("a valid tree: %v", err)
	}
	e := &Ensemble{Trees: []*Tree{&back}}
	if err := e.CheckDim(3); err != nil {
		t.Fatalf("feature 2 of 3: %v", err)
	}
	if err := e.CheckDim(2); err == nil {
		t.Fatal("feature 2 of 2 accepted")
	}
}

// mseLoss returns the mean squared error of e on (xs, ys).
func mseLoss(e *Ensemble, xs [][]float64, ys []float64) float64 {
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

// numLeaves returns the total leaf count across e's trees, a complexity
// proxy.
func numLeaves(e *Ensemble) int {
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
