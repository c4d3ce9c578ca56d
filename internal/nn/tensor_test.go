package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numericGrad estimates d(loss)/d(param[i]) by central differences, where
// loss is recomputed by forward().
func numericGrad(param *Tensor, i int, forward func() float64) float64 {
	const h = 1e-5
	old := param.V[i]
	param.V[i] = old + h
	up := forward()
	param.V[i] = old - h
	down := forward()
	param.V[i] = old
	return (up - down) / (2 * h)
}

func checkGrads(t *testing.T, name string, params []*Tensor, forward func() *Tensor) {
	t.Helper()
	for _, p := range params {
		p.ZeroGrad()
	}
	out := forward()
	out.Backward()
	for pi, p := range params {
		for i := range p.V {
			want := numericGrad(p, i, func() float64 { return forward().Scalar() })
			got := p.G[i]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("%s: param %d elem %d: grad %g, numeric %g", name, pi, i, got, want)
			}
		}
	}
}

func randParam(rng *rand.Rand, r, c int) *Tensor {
	p := NewParam(r, c)
	for i := range p.V {
		p.V[i] = rng.NormFloat64()
	}
	return p
}

func TestMatMulGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randParam(rng, 3, 4)
	b := randParam(rng, 4, 2)
	checkGrads(t, "matmul", []*Tensor{a, b}, func() *Tensor {
		return MSE(MatMul(a, b), make([]float64, 6))
	})
}

func TestAddSubMulGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randParam(rng, 2, 3)
	b := randParam(rng, 2, 3)
	checkGrads(t, "add", []*Tensor{a, b}, func() *Tensor {
		return MSE(Add(a, b), make([]float64, 6))
	})
	checkGrads(t, "sub", []*Tensor{a, b}, func() *Tensor {
		return MSE(Sub(a, b), make([]float64, 6))
	})
}

func TestActivationGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randParam(rng, 2, 5)
	target := make([]float64, 10)
	checkGrads(t, "sigmoid", []*Tensor{a}, func() *Tensor { return MSE(Sigmoid(a), target) })
	checkGrads(t, "tanh", []*Tensor{a}, func() *Tensor { return MSE(Tanh(a), target) })
	// ReLU: keep values away from the kink.
	for i := range a.V {
		if math.Abs(a.V[i]) < 0.1 {
			a.V[i] = 0.5
		}
	}
	checkGrads(t, "relu", []*Tensor{a}, func() *Tensor { return MSE(ReLU(a), target) })
}

func TestBiasScalePoolingGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randParam(rng, 3, 4)
	bias := randParam(rng, 1, 4)
	checkGrads(t, "addbias", []*Tensor{a, bias}, func() *Tensor {
		return MSE(AddBias(a, bias), make([]float64, 12))
	})
	checkGrads(t, "scale", []*Tensor{a}, func() *Tensor {
		return MSE(Scale(a, 2.5), make([]float64, 12))
	})
	checkGrads(t, "sumrows", []*Tensor{a}, func() *Tensor {
		return MSE(SumRows(a), make([]float64, 4))
	})
}

func TestConcatSliceGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randParam(rng, 2, 3)
	b := randParam(rng, 2, 2)
	checkGrads(t, "concat", []*Tensor{a, b}, func() *Tensor {
		return MSE(ConcatCols(a, b), make([]float64, 10))
	})
	checkGrads(t, "slice", []*Tensor{a}, func() *Tensor {
		return MSE(SliceCols(a, 1, 3), make([]float64, 4))
	})
}

func TestScaleByScalarGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randParam(rng, 2, 3)
	s := randParam(rng, 1, 1)
	checkGrads(t, "scalebyscalar", []*Tensor{a, s}, func() *Tensor {
		return MSE(ScaleByScalar(a, s), make([]float64, 6))
	})
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	logits := randParam(rng, 3, 4)
	targets := [][]float64{
		{1, 0, 0, 0},
		{0, 0.5, 0.5, 0},
		{0, 0, 0, 1},
	}
	checkGrads(t, "softmaxce", []*Tensor{logits}, func() *Tensor {
		return SoftmaxCrossEntropy(logits, targets)
	})
}

func TestSumScalarsGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randParam(rng, 1, 1)
	b := randParam(rng, 1, 1)
	checkGrads(t, "sumscalars", []*Tensor{a, b}, func() *Tensor {
		return SumScalars(MSE(a, []float64{1}), MSE(b, []float64{-1}))
	})
}

func TestBackwardWithGradExternalSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randParam(rng, 1, 3)
	out := Scale(a, 3)
	out.BackwardWithGrad([]float64{1, 2, 3})
	want := []float64{3, 6, 9}
	for i := range want {
		if math.Abs(a.G[i]-want[i]) > 1e-12 {
			t.Fatalf("grad[%d] = %g, want %g", i, a.G[i], want[i])
		}
	}
}

func TestChainedGraphReuse(t *testing.T) {
	// A tensor consumed twice must receive both gradient contributions.
	rng := rand.New(rand.NewSource(12))
	a := randParam(rng, 1, 2)
	checkGrads(t, "reuse", []*Tensor{a}, func() *Tensor {
		return MSE(Add(a, a), make([]float64, 2))
	})
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	mlp := NewMLP(rng, []int{2, 8, 1}, ActTanh, ActNone)
	opt := NewAdam(mlp.Params(), 0.05)
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := []float64{0, 1, 1, 0}
	var loss float64
	for epoch := 0; epoch < 500; epoch++ {
		out := mlp.Forward(FromRows(xs))
		l := MSE(out, ys)
		loss = l.Scalar()
		l.Backward()
		opt.Step()
	}
	if loss > 0.01 {
		t.Fatalf("XOR did not converge: final loss %g", loss)
	}
}

func TestShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with mismatched shapes did not panic")
		}
	}()
	MatMul(Zeros(2, 3), Zeros(2, 3))
}

func TestFromRowsAndAccessors(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %g, want 3", m.At(1, 0))
	}
	m.Set(1, 0, 7)
	if r := m.Row(1); r[0] != 7 || r[1] != 4 {
		t.Fatalf("Row(1) = %v", r)
	}
	if Zeros(1, 1).Scalar() != 0 {
		t.Fatal("Scalar of zeros not 0")
	}
}
