package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestInferMatchesForward: the graph-free forward gives Forward's bits
// for every activation, depth and row count, reuses its buffer across
// shapes, and allocates nothing once the buffer has grown.
func TestInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var buf InferBuf
	for trial := 0; trial < 200; trial++ {
		sizes := []int{1 + rng.Intn(9)}
		for l := 1 + rng.Intn(3); l > 0; l-- {
			sizes = append(sizes, 1+rng.Intn(9))
		}
		m := NewMLP(rng, sizes, Activation(rng.Intn(4)), Activation(rng.Intn(4)))
		for _, p := range m.Params() {
			for i := range p.V {
				p.V[i] = rng.NormFloat64()
			}
		}
		rows := rng.Intn(6)
		x := make([]float64, rows*sizes[0])
		for i := range x {
			if rng.Intn(3) > 0 { // leave some zeros for the kernels' zero skip
				x[i] = rng.NormFloat64() * 4
			}
		}
		want := m.Forward(New(rows, sizes[0], append([]float64(nil), x...))).V
		got := m.Infer(&buf, x, rows)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d outputs, Forward %d", trial, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: output %d = %v, Forward %v", trial, i, got[i], want[i])
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { m.Infer(&buf, x, rows) }); allocs != 0 {
			t.Fatalf("trial %d: a warm Infer allocated %v times", trial, allocs)
		}
	}
}
