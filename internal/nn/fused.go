package nn

import (
	"fmt"
	"math"
)

// Fused dense-layer operations. A classic micrograd layer materializes
// three tensors per layer (matmul, bias add, activation); the fused ops
// compute act(x@W + b) as one node with one scratch buffer, which both
// halves the memory traffic of a training step and shrinks the tape. All
// supported activations (ReLU, Sigmoid, Tanh) have derivatives expressible
// from the activated output alone, so no pre-activation values are stored.

// actInPlace applies the activation to x in place.
func actInPlace(act Activation, x []float64) {
	switch act {
	case ActReLU:
		for i, v := range x {
			if v < 0 {
				x[i] = 0
			}
		}
	case ActSigmoid:
		for i, v := range x {
			x[i] = 1 / (1 + math.Exp(-v))
		}
	case ActTanh:
		for i, v := range x {
			x[i] = math.Tanh(v)
		}
	}
}

// actBackward writes dpre = dout ∘ act'(out), deriving the activation
// derivative from the activated outputs.
func actBackward(act Activation, dpre, out, dout []float64) {
	switch act {
	case ActReLU:
		for i, v := range out {
			if v > 0 {
				dpre[i] = dout[i]
			} else {
				dpre[i] = 0
			}
		}
	case ActSigmoid:
		for i, s := range out {
			dpre[i] = dout[i] * s * (1 - s)
		}
	case ActTanh:
		for i, th := range out {
			dpre[i] = dout[i] * (1 - th*th)
		}
	default:
		copy(dpre, dout)
	}
}

// affineInto writes act(x@w + b) into dst, with x: m×k, w: k×n, b: 1×n
// and dst: m×n: the forward of Affine and of MLP.Infer alike.
func affineInto(dst, x, w, b []float64, m, k, n int, act Activation) {
	matMulInto(dst, x, w, m, k, n, nil)
	addBiasRows(dst, b, m, n)
	actInPlace(act, dst[:m*n])
}

// Affine returns act(x@w + b) as a single fused operation.
// x: m×k, w: k×n, b: 1×n.
func Affine(x, w, b *Tensor, act Activation) *Tensor {
	if x.C != w.R {
		panic(fmt.Sprintf("nn: Affine %dx%d @ %dx%d", x.R, x.C, w.R, w.C))
	}
	if b.R != 1 || b.C != w.C {
		panic(fmt.Sprintf("nn: Affine bias %dx%d for width %d", b.R, b.C, w.C))
	}
	m, k, n := x.R, x.C, w.C
	out := Zeros(m, n)
	out.fwd = func() { affineInto(out.V, x.V, w.V, b.V, m, k, n, act) }
	out.fwd()
	out.prev = []*Tensor{x, w, b}
	dpre := make([]float64, m*n)
	out.back = func() {
		actBackward(act, dpre, out.V, out.G)
		if b.needsGrad() {
			b.ensureGrad()
			colSumAccum(b.G, dpre, m, n)
		}
		if w.needsGrad() {
			w.ensureGrad()
			mulATBAccum(w.G, x.V, dpre, m, k, n, nil) // dW += Xᵀ @ dPre
		}
		if x.needsGrad() {
			x.ensureGrad()
			mulABTAccum(x.G, dpre, w.V, m, n, k, nil) // dX += dPre @ Wᵀ
		}
	}
	return out
}

// MaskedAffine returns act(x@(w∘mask) + b) as a single fused operation —
// MADE's masked dense layer. The constant 0/1 mask has w's shape; the
// masked weights are rematerialized into a scratch buffer on every forward
// replay (w changes between steps), so gradients into masked positions are
// zero by construction. The forward, dW and dX products skip each weight
// row's leading run of masked-out columns (see maskedFrom): in MADE's
// output layer that run is about half of every row.
func MaskedAffine(x, w, b *Tensor, mask []float64, act Activation) *Tensor {
	if len(mask) != w.R*w.C {
		panic(fmt.Sprintf("nn: MaskedAffine mask len %d for %dx%d", len(mask), w.R, w.C))
	}
	if x.C != w.R {
		panic(fmt.Sprintf("nn: MaskedAffine %dx%d @ %dx%d", x.R, x.C, w.R, w.C))
	}
	if b.R != 1 || b.C != w.C {
		panic(fmt.Sprintf("nn: MaskedAffine bias %dx%d for width %d", b.R, b.C, w.C))
	}
	m, k, n := x.R, x.C, w.C
	from := maskedFrom(mask, k, n)
	wm := make([]float64, k*n)
	out := Zeros(m, n)
	out.fwd = func() {
		// No product reads a row's skipped prefix, so it stays zero.
		for r, f := range from {
			maskMulInto(wm[r*n+f:(r+1)*n], w.V[r*n+f:(r+1)*n], mask[r*n+f:(r+1)*n])
		}
		matMulInto(out.V, x.V, wm, m, k, n, from)
		addBiasRows(out.V, b.V, m, n)
		actInPlace(act, out.V)
	}
	out.fwd()
	out.prev = []*Tensor{x, w, b}
	dpre := make([]float64, m*n)
	dwm := make([]float64, k*n)
	out.back = func() {
		actBackward(act, dpre, out.V, out.G)
		if b.needsGrad() {
			b.ensureGrad()
			colSumAccum(b.G, dpre, m, n)
		}
		if w.needsGrad() {
			w.ensureGrad()
			for r, f := range from {
				clear(dwm[r*n+f : (r+1)*n])
			}
			mulATBAccum(dwm, x.V, dpre, m, k, n, from)
			for r, f := range from {
				for i := r*n + f; i < (r+1)*n; i++ {
					w.G[i] += dwm[i] * mask[i]
				}
			}
		}
		if x.needsGrad() {
			x.ensureGrad()
			// wm still holds w∘mask from the forward pass.
			mulABTAccum(x.G, dpre, wm, m, n, k, from)
		}
	}
	return out
}

// MadeCrossEntropy returns the summed per-column softmax cross-entropy of a
// MADE logit matrix as a 1×1 tensor: for every row and every column block
// [offsets[c], offsets[c]+bins[c]) it adds -log softmax(block)[target],
// averaged over rows. targets holds the target bin of row i, column c at
// i*len(bins)+c and is captured by reference for Tape replay.
//
// It fuses what the unfused path spells as SliceCols + SoftmaxCrossEntropy
// per column + SumScalars: one node, one probability scratch, no per-column
// tensors.
func MadeCrossEntropy(logits *Tensor, offsets, bins []int, targets []int) *Tensor {
	ncols := len(bins)
	if len(offsets) != ncols {
		panic(fmt.Sprintf("nn: MadeCrossEntropy %d offsets for %d bins", len(offsets), ncols))
	}
	if len(targets) != logits.R*ncols {
		panic(fmt.Sprintf("nn: MadeCrossEntropy %d targets for %d rows × %d cols", len(targets), logits.R, ncols))
	}
	m, w := logits.R, logits.C
	probs := make([]float64, m*w)
	out := Zeros(1, 1)
	out.fwd = func() {
		var loss float64
		for i := 0; i < m; i++ {
			row := logits.V[i*w : (i+1)*w]
			prow := probs[i*w : (i+1)*w]
			for c := 0; c < ncols; c++ {
				off, nb := offsets[c], bins[c]
				block := row[off : off+nb]
				maxv := block[0]
				for _, v := range block[1:] {
					if v > maxv {
						maxv = v
					}
				}
				var sum float64
				for j, v := range block {
					e := math.Exp(v - maxv)
					prow[off+j] = e
					sum += e
				}
				for j := range block {
					prow[off+j] /= sum
				}
				loss -= math.Log(prow[off+targets[i*ncols+c]] + 1e-12)
			}
		}
		out.V[0] = loss / float64(m)
	}
	out.fwd()
	out.prev = []*Tensor{logits}
	out.back = func() {
		if !logits.needsGrad() {
			return
		}
		logits.ensureGrad()
		inv := out.G[0] / float64(m)
		for i := 0; i < m; i++ {
			grow := logits.G[i*w : (i+1)*w]
			prow := probs[i*w : (i+1)*w]
			for c := 0; c < ncols; c++ {
				off, nb := offsets[c], bins[c]
				for j := 0; j < nb; j++ {
					grow[off+j] += inv * prow[off+j]
				}
				grow[off+targets[i*ncols+c]] -= inv
			}
		}
	}
	return out
}
