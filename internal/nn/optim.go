package nn

import "math"

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update and clears the gradients.
	Step()
	// ZeroGrad clears the gradients without updating.
	ZeroGrad()
}

// Adam implements the Adam optimizer (Kingma & Ba) with bias correction
// and optional gradient clipping.
type Adam struct {
	Params []*Tensor
	LR     float64
	Beta1  float64
	Beta2  float64
	Eps    float64
	Clip   float64

	m, v [][]float64
	t    int
}

// NewAdam returns an Adam optimizer with standard hyperparameters.
func NewAdam(params []*Tensor, lr float64) *Adam {
	a := &Adam{Params: params, LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, Clip: 5}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, len(p.V))
		a.v[i] = make([]float64, len(p.V))
	}
	return a
}

// Step implements Optimizer.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	// Fold the bias corrections into the update constants so the inner
	// loop divides once per element: the step is
	// lr/bc1 * m / (sqrt(v/bc2) + eps) = lrT * m / (sqrt(v)*rbc2 + eps).
	k := adamCoef{
		b1: a.Beta1, c1: 1 - a.Beta1, b2: a.Beta2, c2: 1 - a.Beta2,
		lrT: a.LR / bc1, rbc2: 1 / math.Sqrt(bc2), eps: a.Eps,
		lo: math.Inf(-1), hi: math.Inf(1),
	}
	if a.Clip > 0 {
		k.lo, k.hi = -a.Clip, a.Clip
	}
	for pi, p := range a.Params {
		adamUpdate(p.V, p.G, a.m[pi], a.v[pi], k)
	}
}

// ZeroGrad implements Optimizer.
func (a *Adam) ZeroGrad() { zeroAll(a.Params) }

func zeroAll(params []*Tensor) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
