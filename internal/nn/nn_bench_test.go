package nn

import (
	"math/rand"
	"testing"
)

func BenchmarkMatMulForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := New(32, 64, randMatrixValues(rng, 32, 64))
	w := New(64, 64, randMatrixValues(rng, 64, 64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, w)
	}
}

func BenchmarkMLPForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	mlp := NewMLP(rng, []int{64, 64, 32, 1}, ActReLU, ActNone)
	x := New(16, 64, randMatrixValues(rng, 16, 64))
	target := make([]float64, 16)
	opt := NewAdam(mlp.Params(), 1e-3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss := MSE(mlp.Forward(x), target)
		loss.Backward()
		opt.Step()
	}
}

// BenchmarkTapeTrainStep is the steady-state counterpart of
// BenchmarkMLPForwardBackward: the same network and batch trained by
// replaying a recorded tape. Expected 0 allocs/op (asserted by
// TestTapeStepZeroAlloc).
func BenchmarkTapeTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	mlp := NewMLP(rng, []int{64, 64, 32, 1}, ActReLU, ActNone)
	x := New(16, 64, randMatrixValues(rng, 16, 64))
	target := make([]float64, 16)
	tape := NewTape(MSE(mlp.Forward(x), target))
	opt := NewAdam(mlp.Params(), 1e-3)
	tape.Forward()
	tape.BackwardScalar()
	opt.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tape.Forward()
		tape.BackwardScalar()
		opt.Step()
	}
}

// BenchmarkMaskedAffineTrainStep measures a full fused masked-layer train
// step (the MADE training inner loop) on a recorded tape.
func BenchmarkMaskedAffineTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := New(16, 80, randMatrixValues(rng, 16, 80))
	w := XavierParam(rng, 80, 40)
	bias := NewParam(1, 40)
	mask := make([]float64, 80*40)
	for i := range mask {
		if rng.Float64() < 0.5 {
			mask[i] = 1
		}
	}
	target := make([]float64, 16*40)
	tape := NewTape(MSE(MaskedAffine(x, w, bias, mask, ActReLU), target))
	opt := NewAdam([]*Tensor{w, bias}, 1e-3)
	tape.Forward()
	tape.BackwardScalar()
	opt.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tape.Forward()
		tape.BackwardScalar()
		opt.Step()
	}
}
