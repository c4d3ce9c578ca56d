// Package gnn implements the Graph Isomorphism Network encoder of the
// paper's Section V-B: L GINConv layers (Eq. 5) followed by sum pooling.
// Each layer computes
//
//	h_i^{l+1} = f_θ( (1+ε)·h_i^l + Σ_{j∈N(i)} e'_{ji}·h_j^l )
//
// with f_θ a two-layer MLP, ε a learnable scalar per layer, and e'_{ji}
// the join correlation on the edge. The encoder maps a feature graph to a
// fixed-size dataset embedding; the deep-metric-learning loop in
// internal/core seeds embedding gradients and backpropagates through it.
package gnn

import (
	"math/rand"
	"sync"

	"repro/internal/feature"
	"repro/internal/nn"
)

// Config controls the encoder architecture.
type Config struct {
	// InDim is the vertex feature length (feature.Config.VertexDim()).
	InDim int
	// Hidden is the per-layer MLP hidden width and message size.
	Hidden int
	// OutDim is the embedding length.
	OutDim int
	// Layers is the number of GINConv layers (L).
	Layers int
	Seed   int64
}

// DefaultConfig returns the architecture used by AutoCE.
func DefaultConfig(inDim int) Config {
	return Config{InDim: inDim, Hidden: 64, OutDim: 32, Layers: 2, Seed: 7}
}

// ginLayer is one GINConv: aggregation then a two-layer MLP.
type ginLayer struct {
	onePlusEps *nn.Tensor // 1×1 learnable (1+ε)
	mlp        *nn.MLP
}

// Encoder is the trained (or trainable) GIN network G.
type Encoder struct {
	cfg    Config
	layers []*ginLayer

	// tapes caches one recorded autodiff tape per training graph: every
	// DML epoch revisits the same graphs, so after the first visit a
	// forward/backward pass is a zero-allocation replay. The input leaves
	// are refreshed from the graph before each replay, so callers that
	// mutate a graph in place still see current values. Only the training
	// loop (TapeFor) populates the cache — its lifetime is bounded by the
	// RCS the advisor pins anyway; inference (Embed) never touches it, so
	// arbitrary one-shot graphs are never retained.
	mu    sync.Mutex
	tapes map[*feature.Graph]*Tape

	// inferPools maps vertex count -> *sync.Pool of inference tapes for
	// Embed. A tape's replay buffers are private to whichever goroutine
	// checked it out, so any number of goroutines can embed concurrently
	// as long as the parameters themselves are not being trained at the
	// same time (the advisor's serving snapshots guarantee that by
	// freezing a parameter copy). Vertex count is the only shape degree
	// of freedom — the feature dimension is fixed by the architecture —
	// and a sync.Map keeps the warm path free of shared locks: lookups
	// hit the map's read-only fast path, and sync.Pool.Get itself works
	// from per-P caches.
	inferPools sync.Map
}

// Tape couples a recorded tape with the input leaves it reads from.
type Tape struct {
	g      *feature.Graph
	x, adj *nn.Tensor
	tape   *nn.Tape
}

// Forward refreshes the input leaves from the graph and replays the tape,
// returning the 1×OutDim embedding tensor.
func (gt *Tape) Forward() *nn.Tensor {
	n := gt.x.C
	for i, row := range gt.g.V {
		copy(gt.x.V[i*n:(i+1)*n], row)
	}
	m := gt.adj.C
	for i, row := range gt.g.E {
		copy(gt.adj.V[i*m:(i+1)*m], row)
	}
	return gt.tape.Forward()
}

// Backward seeds the embedding gradient and replays the tape backward.
func (gt *Tape) Backward(grad []float64) { gt.tape.Backward(grad) }

// New builds a GIN encoder with Xavier-initialized weights and ε = 0.
func New(cfg Config) *Encoder {
	rng := rand.New(rand.NewSource(cfg.Seed))
	e := &Encoder{cfg: cfg, tapes: map[*feature.Graph]*Tape{}}
	in := cfg.InDim
	for l := 0; l < cfg.Layers; l++ {
		out := cfg.Hidden
		if l == cfg.Layers-1 {
			out = cfg.OutDim
		}
		eps := nn.NewParam(1, 1)
		eps.V[0] = 1 // (1+ε) with ε=0
		e.layers = append(e.layers, &ginLayer{
			onePlusEps: eps,
			mlp:        nn.NewMLP(rng, []int{in, cfg.Hidden, out}, nn.ActReLU, nn.ActReLU),
		})
		in = out
	}
	return e
}

// Params returns all trainable tensors.
func (e *Encoder) Params() []*nn.Tensor {
	var out []*nn.Tensor
	for _, l := range e.layers {
		out = append(out, l.onePlusEps)
		out = append(out, l.mlp.Params()...)
	}
	return out
}

// InDim returns the expected per-vertex feature length.
func (e *Encoder) InDim() int { return e.cfg.InDim }

// OutDim returns the embedding length.
func (e *Encoder) OutDim() int { return e.cfg.OutDim }

// Forward encodes a feature graph into a 1×OutDim embedding tensor that is
// connected to the autodiff graph (call BackwardWithGrad on it to train).
func (e *Encoder) Forward(g *feature.Graph) *nn.Tensor {
	h := nn.FromRows(g.V)
	adj := nn.FromRows(g.E) // constant n×n aggregation matrix
	for _, l := range e.layers {
		agg := nn.Add(nn.ScaleByScalar(h, l.onePlusEps), nn.MatMul(adj, h))
		h = l.mlp.Forward(agg)
	}
	return nn.SumRows(h)
}

// buildTape records a fresh tape for g with dedicated input leaves.
func (e *Encoder) buildTape(g *feature.Graph) *Tape {
	n := g.NumVertices()
	dim := 0
	if n > 0 {
		dim = len(g.V[0])
	}
	x := nn.Zeros(n, dim)
	adj := nn.Zeros(n, n)
	h := x
	for _, l := range e.layers {
		agg := nn.Add(nn.ScaleByScalar(h, l.onePlusEps), nn.MatMul(adj, h))
		h = l.mlp.Forward(agg)
	}
	gt := &Tape{g: g, x: x, adj: adj, tape: nn.NewTape(nn.SumRows(h))}
	return gt
}

// TapeFor returns the recorded forward/backward tape of g, building it on
// first use. Replaying the tape (Forward, then Backward with the loss
// gradient of the 1×OutDim embedding) is equivalent to Forward +
// BackwardWithGrad but allocation-free in steady state; parameter
// gradients accumulate across tapes exactly as in the dynamic path.
//
// Only the map lookup is synchronized: replaying a tape mutates its
// recorded buffers, so concurrent replays of the same graph must be
// serialized by the caller (the DML loop is single-goroutine; Embed uses
// its own pooled tapes and never touches this cache).
func (e *Encoder) TapeFor(g *feature.Graph) *Tape {
	e.mu.Lock()
	gt, ok := e.tapes[g]
	if !ok {
		gt = e.buildTape(g)
		e.tapes[g] = gt
	}
	e.mu.Unlock()
	return gt
}

// inferTape is a pooled inference replay: blank input leaves plus a tape
// recorded over them. Unlike the training tapes it is not bound to a
// graph; Embed copies any same-shape graph into the leaves before replay.
type inferTape struct {
	x, adj *nn.Tensor
	tape   *nn.Tape
}

// inferPool returns (building on first use) the pool of inference tapes
// for graphs with n vertices.
func (e *Encoder) inferPool(n int) *sync.Pool {
	if p, ok := e.inferPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := e.inferPools.LoadOrStore(n, &sync.Pool{New: func() any {
		x := nn.Zeros(n, e.cfg.InDim)
		adj := nn.Zeros(n, n)
		h := x
		for _, l := range e.layers {
			agg := nn.Add(nn.ScaleByScalar(h, l.onePlusEps), nn.MatMul(adj, h))
			h = l.mlp.Forward(agg)
		}
		return &inferTape{x: x, adj: adj, tape: nn.NewTape(nn.SumRows(h))}
	}})
	return p.(*sync.Pool)
}

// Embed encodes a feature graph and returns the embedding as a plain
// vector (no gradient bookkeeping needed by callers). It replays a pooled
// per-shape inference tape — each call owns its tape's buffers for the
// duration, so concurrent Embed calls never share mutable state and
// steady-state inference rebuilds no autodiff graph. Only a graph whose
// every vertex row is InDim wide and whose E is n×n fills a tape
// completely; any other graph takes the transient dynamic path, which
// panics on ragged rows rather than embed stale tape values.
func (e *Encoder) Embed(g *feature.Graph) []float64 {
	n := g.NumVertices()
	if n == 0 || !tapeShaped(g, e.cfg.InDim) {
		return e.Forward(g).Row(0)
	}
	pool := e.inferPool(n)
	it := pool.Get().(*inferTape)
	for i, row := range g.V {
		copy(it.x.V[i*it.x.C:(i+1)*it.x.C], row)
	}
	for i, row := range g.E {
		copy(it.adj.V[i*it.adj.C:(i+1)*it.adj.C], row)
	}
	out := it.tape.Forward().Row(0) // Row copies, so the tape can be reused
	pool.Put(it)
	return out
}

// tapeShaped reports whether every vertex row of g is dim wide and E is
// n×n, so that copying g into an inference tape overwrites every input.
func tapeShaped(g *feature.Graph, dim int) bool {
	n := len(g.V)
	if len(g.E) != n {
		return false
	}
	for i := range n {
		if len(g.V[i]) != dim || len(g.E[i]) != n {
			return false
		}
	}
	return true
}
