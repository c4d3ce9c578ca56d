// Package nn is a small, pure-Go neural-network stack: row-major 2-D
// tensors, reverse-mode automatic differentiation, dense layers, and the
// Adam optimizer. It is the substrate for every learned component in
// the repository — the query-driven estimators (MSCN, LW-NN), the
// autoregressive data-driven estimators (NeuroCard, UAE), the MLP selection
// baseline, and AutoCE's GIN graph encoder.
//
// The autodiff design follows the classic "micrograd" scheme — every
// operation returns a Tensor that remembers its parents and a closure that
// propagates gradients to them — extended with a forward closure per
// operation so a recorded graph can be replayed. Training loops that repeat
// the same graph shape every step wrap the built graph in a Tape (tape.go):
// subsequent Forward/Backward passes reset and replay the recorded closures
// in place of rebuilding the graph, making steady-state steps allocation
// free.
//
// Inference has one forward of its own: MLP.Infer, the graph-free twin of
// MLP.Forward, runs the same fused dense kernels into caller-owned
// buffers (InferBuf) and builds no tensors, so a warm call allocates
// nothing and every value is bit-identical to Forward's. The estimators
// use it for a single query, a batch and the measurement after Fit alike.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a row-major matrix participating in the autodiff graph.
// Leaf tensors created with NewParam accumulate gradients; tensors created
// by operations carry forward/backward closures.
type Tensor struct {
	R, C int
	V    []float64 // values, len R*C
	G    []float64 // gradient, allocated lazily

	prev []*Tensor
	// fwd recomputes V from the parents' current values; back propagates
	// G into the parents. Both are nil on leaves.
	fwd  func()
	back func()
	// param marks trainable leaves so Backward propagates into them.
	param bool
}

// New returns a tensor with the given shape and data (which is used
// directly, not copied). It panics when len(data) != r*c.
func New(r, c int, data []float64) *Tensor {
	if len(data) != r*c {
		panic(fmt.Sprintf("nn: New(%d,%d) with %d values", r, c, len(data)))
	}
	return &Tensor{R: r, C: c, V: data}
}

// Zeros returns a zero-valued tensor of the given shape.
func Zeros(r, c int) *Tensor { return New(r, c, make([]float64, r*c)) }

// NewParam returns a trainable zero tensor of the given shape.
func NewParam(r, c int) *Tensor {
	t := Zeros(r, c)
	t.param = true
	t.G = make([]float64, r*c)
	return t
}

// XavierParam returns a trainable tensor initialized with Glorot-uniform
// values scaled by sqrt(6/(r+c)).
func XavierParam(rng *rand.Rand, r, c int) *Tensor {
	t := NewParam(r, c)
	bound := math.Sqrt(6.0 / float64(r+c))
	for i := range t.V {
		t.V[i] = (rng.Float64()*2 - 1) * bound
	}
	return t
}

// FromRow wraps a 1×len(v) tensor around v (no copy).
func FromRow(v []float64) *Tensor { return New(1, len(v), v) }

// FromRows copies a row-major [][]float64 into an R×C tensor.
func FromRows(rows [][]float64) *Tensor {
	if len(rows) == 0 {
		return Zeros(0, 0)
	}
	c := len(rows[0])
	t := Zeros(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic("nn: FromRows with ragged input")
		}
		copy(t.V[i*c:(i+1)*c], r)
	}
	return t
}

// At returns element (i, j).
func (t *Tensor) At(i, j int) float64 { return t.V[i*t.C+j] }

// Set assigns element (i, j).
func (t *Tensor) Set(i, j int, v float64) { t.V[i*t.C+j] = v }

// Row returns a copy of row i.
func (t *Tensor) Row(i int) []float64 {
	out := make([]float64, t.C)
	copy(out, t.V[i*t.C:(i+1)*t.C])
	return out
}

// Scalar returns the single value of a 1×1 tensor and panics otherwise.
func (t *Tensor) Scalar() float64 {
	if t.R != 1 || t.C != 1 {
		panic(fmt.Sprintf("nn: Scalar on %dx%d tensor", t.R, t.C))
	}
	return t.V[0]
}

func (t *Tensor) ensureGrad() {
	if t.G == nil {
		t.G = make([]float64, t.R*t.C)
	}
}

// needsGrad reports whether the gradient should flow through t: it is a
// parameter or has parents that might lead to parameters.
func (t *Tensor) needsGrad() bool { return t.param || t.back != nil }

// ZeroGrad clears the gradient of t.
func (t *Tensor) ZeroGrad() {
	for i := range t.G {
		t.G[i] = 0
	}
}

// Backward runs reverse-mode autodiff from t, which must be 1×1 (a scalar
// loss); the seed gradient is 1.
func (t *Tensor) Backward() {
	if t.R != 1 || t.C != 1 {
		panic("nn: Backward on non-scalar tensor; use BackwardWithGrad")
	}
	t.BackwardWithGrad([]float64{1})
}

// BackwardWithGrad seeds t's gradient with g (len R*C) and propagates
// through the graph. Use it to inject externally computed loss gradients,
// e.g. the weighted contrastive loss over a batch of graph embeddings.
func (t *Tensor) BackwardWithGrad(g []float64) {
	if len(g) != t.R*t.C {
		panic(fmt.Sprintf("nn: BackwardWithGrad got %d values for %dx%d", len(g), t.R, t.C))
	}
	// Topological order via iterative DFS.
	var topo []*Tensor
	visited := map[*Tensor]bool{}
	type frame struct {
		t    *Tensor
		next int
	}
	stack := []frame{{t: t}}
	visited[t] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.t.prev) {
			p := f.t.prev[f.next]
			f.next++
			if !visited[p] && p.needsGrad() {
				visited[p] = true
				stack = append(stack, frame{t: p})
			}
			continue
		}
		topo = append(topo, f.t)
		stack = stack[:len(stack)-1]
	}
	t.ensureGrad()
	for i := range g {
		t.G[i] += g[i]
	}
	for i := len(topo) - 1; i >= 0; i-- {
		if topo[i].back != nil {
			topo[i].back()
		}
	}
}

func sameShape(a, b *Tensor) {
	if a.R != b.R || a.C != b.C {
		panic(fmt.Sprintf("nn: shape mismatch %dx%d vs %dx%d", a.R, a.C, b.R, b.C))
	}
}

// MatMul returns a @ b with a: m×k, b: k×n.
func MatMul(a, b *Tensor) *Tensor {
	if a.C != b.R {
		panic(fmt.Sprintf("nn: MatMul %dx%d @ %dx%d", a.R, a.C, b.R, b.C))
	}
	out := Zeros(a.R, b.C)
	out.fwd = func() { matMulInto(out.V, a.V, b.V, a.R, a.C, b.C, nil) }
	out.fwd()
	out.prev = []*Tensor{a, b}
	out.back = func() {
		if a.needsGrad() {
			a.ensureGrad()
			mulABTAccum(a.G, out.G, b.V, a.R, b.C, a.C, nil) // dA += dOut @ Bᵀ
		}
		if b.needsGrad() {
			b.ensureGrad()
			mulATBAccum(b.G, a.V, out.G, a.R, a.C, b.C, nil) // dB += Aᵀ @ dOut
		}
	}
	return out
}

// Add returns a + b elementwise (same shape).
func Add(a, b *Tensor) *Tensor {
	sameShape(a, b)
	out := Zeros(a.R, a.C)
	out.fwd = func() {
		for i := range out.V {
			out.V[i] = a.V[i] + b.V[i]
		}
	}
	out.fwd()
	out.prev = []*Tensor{a, b}
	out.back = func() {
		if a.needsGrad() {
			a.ensureGrad()
			for i := range out.G {
				a.G[i] += out.G[i]
			}
		}
		if b.needsGrad() {
			b.ensureGrad()
			for i := range out.G {
				b.G[i] += out.G[i]
			}
		}
	}
	return out
}

// Sub returns a - b elementwise (same shape).
func Sub(a, b *Tensor) *Tensor {
	sameShape(a, b)
	out := Zeros(a.R, a.C)
	out.fwd = func() {
		for i := range out.V {
			out.V[i] = a.V[i] - b.V[i]
		}
	}
	out.fwd()
	out.prev = []*Tensor{a, b}
	out.back = func() {
		if a.needsGrad() {
			a.ensureGrad()
			for i := range out.G {
				a.G[i] += out.G[i]
			}
		}
		if b.needsGrad() {
			b.ensureGrad()
			for i := range out.G {
				b.G[i] -= out.G[i]
			}
		}
	}
	return out
}

// Scale returns s * a.
func Scale(a *Tensor, s float64) *Tensor {
	out := Zeros(a.R, a.C)
	out.fwd = func() {
		for i := range out.V {
			out.V[i] = a.V[i] * s
		}
	}
	out.fwd()
	out.prev = []*Tensor{a}
	out.back = func() {
		if a.needsGrad() {
			a.ensureGrad()
			for i := range out.G {
				a.G[i] += out.G[i] * s
			}
		}
	}
	return out
}

// AddBias returns a (m×n) + bias (1×n) broadcast over rows.
func AddBias(a, bias *Tensor) *Tensor {
	if bias.R != 1 || bias.C != a.C {
		panic(fmt.Sprintf("nn: AddBias %dx%d + %dx%d", a.R, a.C, bias.R, bias.C))
	}
	out := Zeros(a.R, a.C)
	out.fwd = func() {
		copy(out.V, a.V)
		addBiasRows(out.V, bias.V, a.R, a.C)
	}
	out.fwd()
	out.prev = []*Tensor{a, bias}
	out.back = func() {
		if a.needsGrad() {
			a.ensureGrad()
			for i := range out.G {
				a.G[i] += out.G[i]
			}
		}
		if bias.needsGrad() {
			bias.ensureGrad()
			colSumAccum(bias.G, out.G, a.R, a.C)
		}
	}
	return out
}

// ReLU returns max(a, 0) elementwise.
func ReLU(a *Tensor) *Tensor {
	out := Zeros(a.R, a.C)
	out.fwd = func() {
		for i, v := range a.V {
			if v > 0 {
				out.V[i] = v
			} else {
				out.V[i] = 0
			}
		}
	}
	out.fwd()
	out.prev = []*Tensor{a}
	out.back = func() {
		if a.needsGrad() {
			a.ensureGrad()
			for i := range out.G {
				if a.V[i] > 0 {
					a.G[i] += out.G[i]
				}
			}
		}
	}
	return out
}

// Sigmoid returns 1/(1+exp(-a)) elementwise.
func Sigmoid(a *Tensor) *Tensor {
	out := Zeros(a.R, a.C)
	out.fwd = func() {
		for i, v := range a.V {
			out.V[i] = 1 / (1 + math.Exp(-v))
		}
	}
	out.fwd()
	out.prev = []*Tensor{a}
	out.back = func() {
		if a.needsGrad() {
			a.ensureGrad()
			for i := range out.G {
				s := out.V[i]
				a.G[i] += out.G[i] * s * (1 - s)
			}
		}
	}
	return out
}

// Tanh returns tanh(a) elementwise.
func Tanh(a *Tensor) *Tensor {
	out := Zeros(a.R, a.C)
	out.fwd = func() {
		for i, v := range a.V {
			out.V[i] = math.Tanh(v)
		}
	}
	out.fwd()
	out.prev = []*Tensor{a}
	out.back = func() {
		if a.needsGrad() {
			a.ensureGrad()
			for i := range out.G {
				th := out.V[i]
				a.G[i] += out.G[i] * (1 - th*th)
			}
		}
	}
	return out
}

// SumRows returns the column sums of a as a 1×C tensor — GIN's sum-pooling
// readout.
func SumRows(a *Tensor) *Tensor {
	out := Zeros(1, a.C)
	out.fwd = func() {
		for j := range out.V {
			out.V[j] = 0
		}
		colSumAccum(out.V, a.V, a.R, a.C)
	}
	out.fwd()
	out.prev = []*Tensor{a}
	out.back = func() {
		if a.needsGrad() {
			a.ensureGrad()
			for i := 0; i < a.R; i++ {
				row := a.G[i*a.C : (i+1)*a.C]
				for j, g := range out.G {
					row[j] += g
				}
			}
		}
	}
	return out
}

// ConcatCols concatenates tensors with equal row counts along columns.
func ConcatCols(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("nn: ConcatCols of nothing")
	}
	r := ts[0].R
	total := 0
	for _, t := range ts {
		if t.R != r {
			panic("nn: ConcatCols row mismatch")
		}
		total += t.C
	}
	out := Zeros(r, total)
	parents := append([]*Tensor(nil), ts...)
	out.fwd = func() {
		off := 0
		for _, t := range parents {
			for i := 0; i < r; i++ {
				copy(out.V[i*total+off:i*total+off+t.C], t.V[i*t.C:(i+1)*t.C])
			}
			off += t.C
		}
	}
	out.fwd()
	out.prev = parents
	out.back = func() {
		off := 0
		for _, t := range parents {
			if t.needsGrad() {
				t.ensureGrad()
				for i := 0; i < r; i++ {
					for j := 0; j < t.C; j++ {
						t.G[i*t.C+j] += out.G[i*total+off+j]
					}
				}
			}
			off += t.C
		}
	}
	return out
}

// MSE returns mean squared error between pred and a constant target of the
// same shape, as a 1×1 tensor. The target slice is captured by reference:
// a Tape replay re-reads it, so batched training loops overwrite it in
// place between steps.
func MSE(pred *Tensor, target []float64) *Tensor {
	if len(target) != pred.R*pred.C {
		panic(fmt.Sprintf("nn: MSE target len %d for %dx%d", len(target), pred.R, pred.C))
	}
	n := float64(len(target))
	out := Zeros(1, 1)
	out.fwd = func() {
		var s float64
		for i := range target {
			d := pred.V[i] - target[i]
			s += d * d
		}
		out.V[0] = s / n
	}
	out.fwd()
	out.prev = []*Tensor{pred}
	out.back = func() {
		if pred.needsGrad() {
			pred.ensureGrad()
			for i := range target {
				pred.G[i] += out.G[0] * 2 * (pred.V[i] - target[i]) / n
			}
		}
	}
	return out
}

// SoftmaxCrossEntropy returns the mean cross-entropy between row-wise
// softmax(logits) and constant soft-target rows, as a 1×1 tensor. Targets
// may be one-hot or arbitrary distributions (each row should sum to 1).
// The target rows are captured by reference for Tape replay.
func SoftmaxCrossEntropy(logits *Tensor, targets [][]float64) *Tensor {
	if len(targets) != logits.R {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy %d target rows for %d logit rows", len(targets), logits.R))
	}
	m, k := logits.R, logits.C
	probs := make([]float64, m*k)
	out := Zeros(1, 1)
	out.fwd = func() {
		var loss float64
		for i := 0; i < m; i++ {
			row := logits.V[i*k : (i+1)*k]
			maxv := row[0]
			for _, v := range row[1:] {
				if v > maxv {
					maxv = v
				}
			}
			var sum float64
			for j, v := range row {
				e := math.Exp(v - maxv)
				probs[i*k+j] = e
				sum += e
			}
			for j := range row {
				probs[i*k+j] /= sum
				if targets[i][j] > 0 {
					loss -= targets[i][j] * math.Log(probs[i*k+j]+1e-12)
				}
			}
		}
		out.V[0] = loss / float64(m)
	}
	out.fwd()
	out.prev = []*Tensor{logits}
	out.back = func() {
		if logits.needsGrad() {
			logits.ensureGrad()
			for i := 0; i < m; i++ {
				for j := 0; j < k; j++ {
					logits.G[i*k+j] += out.G[0] * (probs[i*k+j] - targets[i][j]) / float64(m)
				}
			}
		}
	}
	return out
}
