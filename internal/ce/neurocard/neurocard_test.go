package neurocard

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

func TestMadeMaskAutoregressive(t *testing.T) {
	// Column c's logits must not depend on inputs of columns >= c.
	rng := rand.New(rand.NewSource(1))
	bins := []int{4, 3, 5}
	m := NewMade(rng, bins, 16)

	base := make([]float64, m.InDim)
	base[m.Offsets[0]+1] = 1
	base[m.Offsets[1]+2] = 1
	base[m.Offsets[2]+0] = 1

	distBefore := m.columnDist(base, 1)
	// Perturb column 2's input (a later column): column 1's distribution
	// must be unchanged.
	perturbed := append([]float64(nil), base...)
	perturbed[m.Offsets[2]+0] = 0
	perturbed[m.Offsets[2]+4] = 1
	distAfter := m.columnDist(perturbed, 1)
	for i := range distBefore {
		if math.Abs(distBefore[i]-distAfter[i]) > 1e-12 {
			t.Fatalf("column 1 depends on column 2's input: %v vs %v", distBefore, distAfter)
		}
	}
	// Column 0 must be input-independent entirely.
	d0a := m.columnDist(base, 0)
	d0b := m.columnDist(make([]float64, m.InDim), 0)
	for i := range d0a {
		if math.Abs(d0a[i]-d0b[i]) > 1e-12 {
			t.Fatal("column 0 distribution depends on inputs")
		}
	}
	// Column 2 must depend on earlier columns (masks not degenerate):
	// check some weight into column 2's block survives the mask.
	var liveMask bool
	for h := 0; h < 16; h++ {
		for o := m.Offsets[2]; o < m.Offsets[2]+bins[2]; o++ {
			if m.mask2[h*m.InDim+o] == 1 {
				liveMask = true
			}
		}
	}
	if !liveMask {
		t.Fatal("column 2 has no unmasked hidden connections")
	}
}

func TestColumnDistIsDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMade(rng, []int{3, 4}, 8)
	input := make([]float64, m.InDim)
	input[0] = 1
	for c := 0; c < 2; c++ {
		dist := m.columnDist(input, c)
		var sum float64
		for _, p := range dist {
			if p < 0 {
				t.Fatalf("negative probability %g", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("column %d distribution sums to %g", c, sum)
		}
	}
}

func TestTrainMadeLearnsMarginal(t *testing.T) {
	// One 2-bin column, 90/10 split: after training, P(bin 0) ≈ 0.9.
	rng := rand.New(rand.NewSource(3))
	rows := make([][]int, 500)
	for i := range rows {
		b := 0
		if i%10 == 0 {
			b = 1
		}
		rows[i] = []int{b}
	}
	m := NewMade(rng, []int{2}, 8)
	TrainMade(m, rows, 20, 32, 0.05, rng)
	dist := m.columnDist(make([]float64, m.InDim), 0)
	if math.Abs(dist[0]-0.9) > 0.08 {
		t.Fatalf("learned marginal P(bin0) = %g, want ~0.9", dist[0])
	}
}

func TestTrainMadeLearnsConditional(t *testing.T) {
	// Two perfectly coupled columns: P(x1 = x0) should dominate.
	rng := rand.New(rand.NewSource(4))
	rows := make([][]int, 600)
	for i := range rows {
		b := rng.Intn(2)
		rows[i] = []int{b, b}
	}
	m := NewMade(rng, []int{2, 2}, 16)
	TrainMade(m, rows, 25, 32, 0.05, rng)
	input := make([]float64, m.InDim)
	input[m.Offsets[0]+1] = 1 // condition on x0 = 1
	dist := m.columnDist(input, 1)
	if dist[1] < 0.8 {
		t.Fatalf("P(x1=1 | x0=1) = %g, want > 0.8", dist[1])
	}
}

func TestProgressiveSampleBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMade(rng, []int{4, 4}, 8)
	stream := SplitMix64(5)
	// No constraints: probability 1.
	if p := ProgressiveSample(m, nil, 10, &stream); p != 1 {
		t.Fatalf("unconstrained probability %g", p)
	}
	// Full-range constraints: probability ~1.
	full := map[int][2]int{0: {0, 3}, 1: {0, 3}}
	if p := ProgressiveSample(m, full, 20, &stream); math.Abs(p-1) > 1e-9 {
		t.Fatalf("full-range probability %g", p)
	}
	// Constraints bound probability to [0,1].
	partial := map[int][2]int{0: {0, 1}, 1: {2, 3}}
	p := ProgressiveSample(m, partial, 30, &stream)
	if p < 0 || p > 1 {
		t.Fatalf("probability %g outside [0,1]", p)
	}
}

func TestProgressiveSampleMatchesMarginal(t *testing.T) {
	// With one trained column, progressive sampling of {bin 0} should
	// approximate the learned marginal probability.
	rng := rand.New(rand.NewSource(6))
	rows := make([][]int, 400)
	for i := range rows {
		b := 0
		if i%4 == 0 {
			b = 1
		}
		rows[i] = []int{b}
	}
	m := NewMade(rng, []int{2}, 8)
	TrainMade(m, rows, 20, 32, 0.05, rng)
	stream := SplitMix64(6)
	p := ProgressiveSample(m, map[int][2]int{0: {0, 0}}, 50, &stream)
	if math.Abs(p-0.75) > 0.1 {
		t.Fatalf("sampled P(bin0) = %g, want ~0.75", p)
	}
}

// TestMadeGobDecodeRejectsBadLayout: a MADE state whose bins or weight
// shapes disagree decodes to an error, never to a panic while the masks
// are built from it.
func TestMadeGobDecodeRejectsBadLayout(t *testing.T) {
	good := NewMade(rand.New(rand.NewSource(7)), []int{2, 3}, 4)
	tensor := func(r, c int, v ...float64) *nn.Tensor { return &nn.Tensor{R: r, C: c, V: v} }
	for name, st := range map[string]madeState{
		"negative bins":        {Bins: []int{2, -1}, W1: tensor(1, 2, 0, 0), B1: good.B1, W2: good.W2, B2: good.B2},
		"overflowing bins":     {Bins: []int{math.MaxInt, math.MaxInt, 3}, W1: tensor(1, 1, 0), B1: good.B1, W2: good.W2, B2: good.B2},
		"negative tensor dims": {Bins: []int{-1}, W1: tensor(-1, -1, 0), B1: good.B1, W2: good.W2, B2: good.B2},
		"no columns":           {W1: tensor(0, 4), B1: good.B1, W2: good.W2, B2: good.B2},
		"missing bias":         {Bins: good.Bins, W1: good.W1, W2: good.W2, B2: good.B2},
		"hidden mismatch":      {Bins: good.Bins, W1: good.W1, B1: good.B1, W2: tensor(1, good.InDim, make([]float64, good.InDim)...), B2: good.B2},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var m Made
		if err := m.GobDecode(buf.Bytes()); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestSplitMix64ReferenceStream pins the generator to the published
// SplitMix64 outputs for seed 0, so a stream means the same on every
// build and platform.
func TestSplitMix64ReferenceStream(t *testing.T) {
	g := SplitMix64(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := g.Uint64(); got != want {
			t.Fatalf("draw %d = %#x, want %#x", i, got, want)
		}
	}
}

// TestQueryStreamCanonical: the stream depends on the query's table set
// and bin ranges, not on their order (table order, map order), and a
// different range, table set or model seed draws another stream.
func TestQueryStreamCanonical(t *testing.T) {
	ranges := func() map[int][2]int {
		r := map[int][2]int{}
		for c := 0; c < 16; c++ {
			r[c] = [2]int{c, c + 3}
		}
		return r
	}
	base := QueryStream(9, []int{0, 2}, ranges())
	for i := 0; i < 20; i++ {
		if got := QueryStream(9, []int{2, 0}, ranges()); got != base {
			t.Fatalf("respelled query drew stream %d, want %d", got, base)
		}
	}
	other := ranges()
	other[7] = [2]int{7, 9}
	for _, s := range []SplitMix64{
		QueryStream(9, []int{0, 2}, other),
		QueryStream(9, []int{0, 1}, ranges()),
		QueryStream(10, []int{0, 2}, ranges()),
	} {
		if s == base {
			t.Fatalf("a different query or seed drew the same stream %d", s)
		}
	}
}
