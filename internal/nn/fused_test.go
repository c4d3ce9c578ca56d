package nn

import (
	"math"
	"math/rand"
	"testing"
)

// refMaskedAffine is MaskedAffine's forward and backward over full weight
// rows, with no skipped prefix: out = act(x@(w∘mask) + b), then, for the
// upstream gradient g, b.G += Σrows dPre, w.G += (xᵀ@dPre)∘mask and
// x.G += dPre@(w∘mask)ᵀ.
func refMaskedAffine(x, w, b, g, xG, wG, bG, mask []float64, m, k, n int, act Activation) (out []float64) {
	wm := make([]float64, k*n)
	maskMulInto(wm, w, mask)
	out = make([]float64, m*n)
	matMulInto(out, x, wm, m, k, n, nil)
	addBiasRows(out, b, m, n)
	actInPlace(act, out)
	dpre := make([]float64, m*n)
	actBackward(act, dpre, out, g)
	colSumAccum(bG, dpre, m, n)
	dwm := make([]float64, k*n)
	mulATBAccum(dwm, x, dpre, m, k, n, nil)
	for i, v := range dwm {
		wG[i] += v * mask[i]
	}
	mulABTAccum(xG, dpre, wm, m, n, k, nil)
	return out
}

// TestMaskedAffineMatchesFullRows: skipping each weight row's masked-out
// prefix changes no bit of the output or of any gradient, for masks whose
// zero prefixes take every length mod 4, all-zero rows, widths that are
// not a multiple of 4, sparse inputs, negative weights (whose masked
// products are -0) and gradients that already hold values.
func TestMaskedAffineMatchesFullRows(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	bits := func(name string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v, full rows give %v", name, i, got[i], want[i])
			}
		}
	}
	fill := func(v []float64, zeroFrac float64) {
		for i := range v {
			v[i] = rng.NormFloat64()
			if rng.Float64() < zeroFrac {
				v[i] = 0
			}
		}
	}
	prefixes := map[int]bool{}
	for trial := 0; trial < 300; trial++ {
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(9), 1+rng.Intn(14)
		act := []Activation{ActNone, ActReLU, ActSigmoid, ActTanh}[trial%4]
		mask := make([]float64, k*n)
		for r := 0; r < k; r++ {
			z := rng.Intn(n + 1) // z == n: an all-zero row
			if rng.Intn(4) == 0 {
				z = n
			}
			prefixes[z%4] = true
			for j := z; j < n; j++ {
				if j == z || rng.Float64() < 0.7 {
					mask[r*n+j] = 1
				}
			}
		}
		x, w, b := NewParam(m, k), NewParam(k, n), NewParam(1, n)
		fill(x.V, 0.4)
		fill(w.V, 0)
		fill(b.V, 0)
		for _, p := range []*Tensor{x, w, b} {
			p.ensureGrad()
			fill(p.G, 0.5)
		}
		xG := append([]float64(nil), x.G...)
		wG := append([]float64(nil), w.G...)
		bG := append([]float64(nil), b.G...)
		out := MaskedAffine(x, w, b, mask, act)
		for round := 0; round < 2; round++ {
			if round == 1 {
				// A replay after a weight update, as a recorded tape runs it.
				fill(w.V, 0.1)
				out.fwd()
				clear(out.G)
			}
			g := make([]float64, m*n)
			fill(g, 0.2)
			want := refMaskedAffine(x.V, w.V, b.V, g, xG, wG, bG, mask, m, k, n, act)
			bits("out", out.V, want)
			out.BackwardWithGrad(g)
			bits("x.G", x.G, xG)
			bits("w.G", w.G, wG)
			bits("b.G", b.G, bG)
		}
	}
	if len(prefixes) != 4 {
		t.Fatalf("zero prefixes covered %d of the 4 residues mod 4", len(prefixes))
	}
}
