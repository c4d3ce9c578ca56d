package nn

import "fmt"

// SliceCols returns columns [lo, hi) of a as a new tensor in the autodiff
// graph. The autoregressive estimators use it to extract per-column logit
// blocks from a MADE-style network output.
func SliceCols(a *Tensor, lo, hi int) *Tensor {
	if lo < 0 || hi > a.C || lo >= hi {
		panic(fmt.Sprintf("nn: SliceCols [%d,%d) of %d columns", lo, hi, a.C))
	}
	w := hi - lo
	out := Zeros(a.R, w)
	out.fwd = func() {
		for i := 0; i < a.R; i++ {
			copy(out.V[i*w:(i+1)*w], a.V[i*a.C+lo:i*a.C+hi])
		}
	}
	out.fwd()
	out.prev = []*Tensor{a}
	out.back = func() {
		if a.needsGrad() {
			a.ensureGrad()
			for i := 0; i < a.R; i++ {
				for j := 0; j < w; j++ {
					a.G[i*a.C+lo+j] += out.G[i*w+j]
				}
			}
		}
	}
	return out
}

// SumScalars adds 1×1 tensors into one 1×1 tensor — used to combine
// per-column losses.
func SumScalars(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("nn: SumScalars of nothing")
	}
	out := Zeros(1, 1)
	parents := append([]*Tensor(nil), ts...)
	out.fwd = func() {
		var s float64
		for _, t := range parents {
			if t.R != 1 || t.C != 1 {
				panic("nn: SumScalars with non-scalar input")
			}
			s += t.V[0]
		}
		out.V[0] = s
	}
	out.fwd()
	out.prev = parents
	out.back = func() {
		for _, t := range parents {
			if t.needsGrad() {
				t.ensureGrad()
				t.G[0] += out.G[0]
			}
		}
	}
	return out
}
