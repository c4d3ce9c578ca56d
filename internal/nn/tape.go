package nn

import "fmt"

// Tape is a recorded autodiff graph that can be replayed. Every training
// step of the estimators in this repository rebuilds an identical graph
// shape — only the input values change — so the graph is built once, its
// operation nodes are captured in topological order, and subsequent steps
// replay the recorded forward/backward closures over the preallocated
// value/gradient buffers. A steady-state Forward+Backward pair performs no
// allocation.
//
// Usage:
//
//	x := nn.Zeros(batch, dim)          // leaf input, rewritten per step
//	target := make([]float64, batch)   // captured by MSE, rewritten per step
//	tape := nn.NewTape(nn.MSE(mlp.Forward(x), target))
//	for step := range steps {
//	    copyBatchInto(x.V, target)
//	    tape.Forward()
//	    tape.BackwardScalar()
//	    opt.Step()
//	}
//
// Parameter gradients accumulate across Backward calls exactly as in the
// dynamic path (the optimizer's Step clears them); gradients of
// intermediate nodes are zeroed at the start of every Backward.
//
// A Tape is not safe for concurrent use: replay mutates the recorded
// buffers in place.
type Tape struct {
	out *Tensor
	// nodes holds the operation nodes (tensors with closures) reachable
	// from out, parents before children.
	nodes []*Tensor
}

// NewTape records the graph rooted at out, which must have been produced
// by at least one operation. The graph is assumed fully built: operations
// added to out's ancestry after recording are not replayed.
func NewTape(out *Tensor) *Tape {
	if out.fwd == nil && out.back == nil {
		panic("nn: NewTape on a leaf tensor")
	}
	tp := &Tape{out: out}
	visited := map[*Tensor]bool{out: true}
	type frame struct {
		t    *Tensor
		next int
	}
	stack := []frame{{t: out}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.t.prev) {
			p := f.t.prev[f.next]
			f.next++
			// Only operation nodes replay; leaves (inputs, params,
			// constants) keep their externally managed values.
			if !visited[p] && (p.fwd != nil || p.back != nil) {
				visited[p] = true
				stack = append(stack, frame{t: p})
			}
			continue
		}
		tp.nodes = append(tp.nodes, f.t)
		stack = stack[:len(stack)-1]
	}
	// Preallocate every gradient buffer so replayed backward passes never
	// allocate.
	for _, n := range tp.nodes {
		n.ensureGrad()
	}
	return tp
}

// Out returns the recorded graph's output tensor.
func (tp *Tape) Out() *Tensor { return tp.out }

// Forward replays the recorded forward closures in topological order and
// returns the output tensor.
func (tp *Tape) Forward() *Tensor {
	for _, n := range tp.nodes {
		if n.fwd != nil {
			n.fwd()
		}
	}
	return tp.out
}

// Backward zeroes the intermediate gradients, seeds the output gradient
// with g (len R*C of the output), and replays the backward closures in
// reverse topological order. Parameter leaves accumulate as usual.
func (tp *Tape) Backward(g []float64) {
	out := tp.out
	if len(g) != out.R*out.C {
		panic(fmt.Sprintf("nn: Tape.Backward got %d values for %dx%d", len(g), out.R, out.C))
	}
	for _, n := range tp.nodes {
		for i := range n.G {
			n.G[i] = 0
		}
	}
	for i := range g {
		out.G[i] = g[i]
	}
	for i := len(tp.nodes) - 1; i >= 0; i-- {
		if tp.nodes[i].back != nil {
			tp.nodes[i].back()
		}
	}
}

var scalarSeed = []float64{1}

// BackwardScalar seeds a 1×1 output (a scalar loss) with gradient 1.
func (tp *Tape) BackwardScalar() {
	if tp.out.R != 1 || tp.out.C != 1 {
		panic("nn: BackwardScalar on non-scalar tape output")
	}
	tp.Backward(scalarSeed)
}

// BatchTapes caches one recorded training graph per batch shape; every
// minibatch trainer in this repository records through it. K is the
// shape key: a plain batch size for trainers whose inputs have a fixed
// width per sample (their epochs see two sizes, the full batch and the
// tail remainder), or a struct of row counts for trainers that pack
// variable-sized samples. T bundles a Tape with whatever input buffers the
// trainer rewrites per step.
type BatchTapes[K comparable, T any] struct {
	build func(K) T
	m     map[K]T
}

// NewBatchTapes returns a cache that records a training graph with build
// on first use of each shape.
func NewBatchTapes[K comparable, T any](build func(K) T) *BatchTapes[K, T] {
	return &BatchTapes[K, T]{build: build, m: map[K]T{}}
}

// For returns the recorded graph for the given shape.
func (c *BatchTapes[K, T]) For(shape K) T {
	t, ok := c.m[shape]
	if !ok {
		t = c.build(shape)
		c.m[shape] = t
	}
	return t
}
