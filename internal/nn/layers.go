package nn

import "math/rand"

// Activation selects the nonlinearity of a dense layer.
type Activation int

// Supported activations.
const (
	ActNone Activation = iota
	ActReLU
	ActSigmoid
	ActTanh
)

// Dense is a fully connected layer y = act(x@W + b).
type Dense struct {
	W, B *Tensor
	Act  Activation
}

// NewDense returns a Dense layer with Xavier-initialized weights.
func NewDense(rng *rand.Rand, in, out int, act Activation) *Dense {
	return &Dense{W: XavierParam(rng, in, out), B: NewParam(1, out), Act: act}
}

// Forward applies the layer to x (m×in) as one fused Affine node.
func (d *Dense) Forward(x *Tensor) *Tensor {
	return Affine(x, d.W, d.B, d.Act)
}

// Params returns the layer's trainable tensors.
func (d *Dense) Params() []*Tensor { return []*Tensor{d.W, d.B} }

// MLP is a stack of Dense layers.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds an MLP with the given layer sizes (len >= 2); hidden layers
// use hiddenAct and the output layer uses outAct.
func NewMLP(rng *rand.Rand, sizes []int, hiddenAct, outAct Activation) *MLP {
	if len(sizes) < 2 {
		panic("nn: NewMLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		act := hiddenAct
		if i+2 == len(sizes) {
			act = outAct
		}
		m.Layers = append(m.Layers, NewDense(rng, sizes[i], sizes[i+1], act))
	}
	return m
}

// Forward applies all layers in order.
func (m *MLP) Forward(x *Tensor) *Tensor {
	for _, l := range m.Layers {
		x = l.Forward(x)
	}
	return x
}

// InferBuf is the caller-owned scratch of MLP.Infer: two buffers the
// layers write into by turns, grown to the largest shape served. The
// zero value is ready to use; a buffer serves one Infer at a time.
type InferBuf struct{ cur, next []float64 }

// Infer is Forward without the autodiff graph, for inference: it applies
// the layers to x, a rows×in matrix, and returns the rows×out result.
// Each layer writes into buf, so a warm buf allocates nothing; the result
// aliases buf and is overwritten by its next use, and x must not alias
// it. Every layer runs Affine's forward kernels, so each value is
// bit-identical to Forward's.
func (m *MLP) Infer(buf *InferBuf, x []float64, rows int) []float64 {
	for _, l := range m.Layers {
		k, n := l.W.R, l.W.C
		if cap(buf.cur) < rows*n {
			buf.cur = make([]float64, rows*n)
		}
		out := buf.cur[:rows*n]
		affineInto(out, x, l.W.V, l.B.V, rows, k, n, l.Act)
		x = out
		buf.cur, buf.next = buf.next, buf.cur
	}
	return x
}

// Params returns all trainable tensors of the MLP.
func (m *MLP) Params() []*Tensor {
	var out []*Tensor
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
	}
	return out
}
