package neurocard

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ce"
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
	if p := ProgressiveSample(m, rangesOf(nil), 10, &stream); p != 1 {
		t.Fatalf("unconstrained probability %g", p)
	}
	// Full-range constraints: probability ~1.
	full := map[int][2]int{0: {0, 3}, 1: {0, 3}}
	if p := ProgressiveSample(m, rangesOf(full), 20, &stream); math.Abs(p-1) > 1e-9 {
		t.Fatalf("full-range probability %g", p)
	}
	// Constraints bound probability to [0,1].
	partial := map[int][2]int{0: {0, 1}, 1: {2, 3}}
	p := ProgressiveSample(m, rangesOf(partial), 30, &stream)
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
	p := ProgressiveSample(m, rangesOf(map[int][2]int{0: {0, 0}}), 50, &stream)
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

// rangesOf returns the bin ranges of a column → range map.
func rangesOf(ranges map[int][2]int) *ce.BinRanges {
	var br ce.BinRanges
	for c, r := range ranges {
		br.Set(c, r)
	}
	return &br
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
	base := QueryStream(9, []byte(ce.SubsetKey([]int{0, 2})), rangesOf(ranges()))
	for i := 0; i < 20; i++ {
		if got := QueryStream(9, []byte(ce.SubsetKey([]int{2, 0})), rangesOf(ranges())); got != base {
			t.Fatalf("respelled query drew stream %d, want %d", got, base)
		}
	}
	other := ranges()
	other[7] = [2]int{7, 9}
	for _, s := range []SplitMix64{
		QueryStream(9, []byte(ce.SubsetKey([]int{0, 2})), rangesOf(other)),
		QueryStream(9, []byte(ce.SubsetKey([]int{0, 1})), rangesOf(ranges())),
		QueryStream(10, []byte(ce.SubsetKey([]int{0, 2})), rangesOf(ranges())),
	} {
		if s == base {
			t.Fatalf("a different query or seed drew the same stream %d", s)
		}
	}
}

// refProgressiveSample is the per-path progressive sampler that prefix
// groups replaced, kept as the reference for
// TestProgressiveSampleMatchesPerPath: every path computes its own column
// distribution and pre-activation.
func refProgressiveSample(made *Made, ranges map[int][2]int, samples int, rng *SplitMix64) float64 {
	lastQueried := -1
	for c := range ranges {
		if c > lastQueried {
			lastQueried = c
		}
	}
	if lastQueried == -1 {
		return 1
	}
	sp := made.inf
	pres := make([]float64, samples*sp.hidden)
	pathP := make([]float64, samples)
	scratch := make([]float64, sp.maxBins)
	coef, unit := make([]float64, sp.hidden), make([]int32, sp.hidden)
	for p := 0; p < samples; p++ {
		copy(pres[p*sp.hidden:(p+1)*sp.hidden], made.B1.V)
		pathP[p] = 1
	}
	for c := 0; c <= lastQueried; c++ {
		r, queried := ranges[c]
		for p := 0; p < samples; p++ {
			if pathP[p] == 0 {
				continue
			}
			pre := pres[p*sp.hidden : (p+1)*sp.hidden]
			dist := sp.columnDist(pre, scratch, coef, unit, c)
			var mass float64
			if queried {
				for b := r[0]; b <= r[1] && b < len(dist); b++ {
					mass += dist[b]
				}
				if mass <= 0 {
					pathP[p] = 0
					continue
				}
				pathP[p] *= mass
			} else {
				mass = 1
			}
			u := rng.Float64() * mass
			var acc float64
			pick := -1
			loB, hiB := 0, len(dist)-1
			if queried {
				loB, hiB = r[0], r[1]
				if hiB >= len(dist) {
					hiB = len(dist) - 1
				}
			}
			for b := loB; b <= hiB; b++ {
				acc += dist[b]
				if acc >= u {
					pick = b
					break
				}
			}
			if pick == -1 {
				pick = hiB
			}
			wrow := sp.w1m[(made.Offsets[c]+pick)*sp.hidden:][:sp.hidden]
			for i, v := range wrow {
				pre[i] += v
			}
		}
	}
	var total float64
	for p := 0; p < samples; p++ {
		total += pathP[p]
	}
	return total / float64(samples)
}

// refColumnDist is the sampler's column distribution as a loop that
// branches on each unit's activation and reads W2∘mask2 in place, kept
// as the reference for TestColumnDistMatchesBranchLoop.
func refColumnDist(s *sampler, pre, dist []float64, c int) []float64 {
	m := s.made
	off, nb := m.Offsets[c], m.Bins[c]
	out := dist[:nb]
	copy(out, m.B2.V[off:off+nb])
	for _, i := range s.colUnits[c] {
		v := pre[i]
		if v <= 0 {
			continue
		}
		for j := range out {
			k := i*m.InDim + off + j
			out[j] += v * (m.W2.V[k] * m.mask2[k])
		}
	}
	maxv := out[0]
	for _, v := range out[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for j, v := range out {
		e := math.Exp(v - maxv)
		out[j] = e
		sum += e
	}
	for j := range out {
		out[j] /= sum
	}
	return out
}

// TestColumnDistMatchesBranchLoop: the packed, branch-free columnDist
// returns the branching loop's distribution bit for bit on random
// networks with random output masks (so any unit subset may feed a
// column), bin counts on both sides of the four-bin step, and
// pre-activations that mix positives, negatives, zeros of both signs and
// NaN.
func TestColumnDistMatchesBranchLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	for trial := 0; trial < 500; trial++ {
		bins := make([]int, 1+rng.Intn(5))
		for c := range bins {
			bins[c] = 1 + rng.Intn(11)
		}
		hidden := 1 + rng.Intn(40)
		m := NewMade(rng, bins, hidden)
		for _, p := range m.Params() {
			for i := range p.V {
				p.V[i] = rng.NormFloat64()
			}
		}
		for i := range m.mask2 {
			m.mask2[i] = float64(rng.Intn(2))
		}
		s := m.newSampler()
		pre := make([]float64, hidden)
		coef, unit := make([]float64, hidden), make([]int32, hidden)
		got, want := make([]float64, s.maxBins), make([]float64, s.maxBins)
		for draw := 0; draw < 8; draw++ {
			for i := range pre {
				pre[i] = rng.NormFloat64()
				if rng.Intn(6) == 0 {
					pre[i] = specials[rng.Intn(len(specials))]
				}
			}
			for c := range bins {
				g := s.columnDist(pre, got, coef, unit, c)
				w := refColumnDist(s, pre, want, c)
				for j := range w {
					if math.Float64bits(g[j]) != math.Float64bits(w[j]) && !(math.IsNaN(g[j]) && math.IsNaN(w[j])) {
						t.Fatalf("trial %d column %d bin %d: %v, want %v", trial, c, j, g[j], w[j])
					}
				}
			}
		}
	}
}

// TestProgressiveSampleMatchesPerPath: the prefix-group sampler returns
// the per-path reference's estimate bit for bit and leaves the stream in
// the same state, on random networks (some with weights sharp enough that
// ranges lose all mass on some paths only, or that a path's probability
// underflows to zero), random and empty ranges, and path counts from 1
// to 96.
func TestProgressiveSampleMatchesPerPath(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 1200; trial++ {
		ncols := 1 + rng.Intn(5)
		bins := make([]int, ncols)
		for c := range bins {
			bins[c] = 1 + rng.Intn(7)
		}
		m := NewMade(rng, bins, 1+rng.Intn(24))
		scale := []float64{1, 4, 40, 400}[trial%4]
		for _, p := range m.Params() {
			for i := range p.V {
				p.V[i] = rng.NormFloat64() * scale
			}
		}
		m.inf = m.newSampler()
		for q := 0; q < 5; q++ {
			ranges := map[int][2]int{}
			for c, nb := range bins {
				if rng.Intn(3) == 0 {
					continue
				}
				lo := rng.Intn(nb + 1)
				hi := lo + rng.Intn(nb+1) - 1 // hi < lo: an empty range
				ranges[c] = [2]int{lo, hi}
			}
			samples := 1 + rng.Intn(96)
			seed := SplitMix64(rng.Uint64())
			got, want := seed, seed
			pg := ProgressiveSample(m, rangesOf(ranges), samples, &got)
			pw := refProgressiveSample(m, ranges, samples, &want)
			if math.Float64bits(pg) != math.Float64bits(pw) || got != want {
				t.Fatalf("trial %d: bins %v ranges %v samples %d: got %v (stream %d), per-path %v (stream %d)",
					trial, bins, ranges, samples, pg, got, pw, want)
			}
		}
	}
}

// withMapCount returns the gob stream data with the entry count of the
// one-entry map {[1 2]: 3} in its last message rewritten to count, and
// that message's length prefix re-encoded to match.
func withMapCount(t *testing.T, data []byte, count uint32) []byte {
	t.Helper()
	readUint := func(b []byte) (v uint64, n int) {
		if b[0] < 0x80 {
			return uint64(b[0]), 1
		}
		n = int(-int8(b[0]))
		for _, c := range b[1 : 1+n] {
			v = v<<8 | uint64(c)
		}
		return v, 1 + n
	}
	var msgs [][]byte
	for rest := data; len(rest) > 0; {
		l, n := readUint(rest)
		msgs = append(msgs, rest[n:n+int(l)])
		rest = rest[n+int(l):]
	}
	last := msgs[len(msgs)-1]
	entry := []byte{0x01, 0x02, 0x02, 0x04, 0x06} // count 1; key [2]int{1, 2}; value 3
	i := bytes.Index(last, entry)
	if i < 0 {
		t.Fatal("map entry not found in the gob stream")
	}
	big := []byte{0xfc, byte(count >> 24), byte(count >> 16), byte(count >> 8), byte(count)}
	patched := append(append(append([]byte(nil), last[:i]...), big...), last[i+1:]...)
	var out []byte
	for _, m := range msgs[:len(msgs)-1] {
		out = append(out, byte(len(m)))
		out = append(out, m...)
	}
	if len(patched) >= 0x80 {
		t.Fatal("patched message too long for a one-byte length")
	}
	return append(append(out, byte(len(patched))), patched...)
}

// TestGobDecodeChecksMapCountsFirst: encoding/gob pre-sizes a decoded map
// from its entry count, so a state whose Slots count is corrupt to four
// billion must be rejected before the real decode allocates for it.
func TestGobDecodeChecksMapCountsFirst(t *testing.T) {
	var buf bytes.Buffer
	st := struct {
		Slots      map[[2]int]int
		Degenerate bool
	}{Slots: map[[2]int]int{{1, 2}: 3}, Degenerate: true}
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		t.Fatal(err)
	}
	err := new(Model).GobDecode(withMapCount(t, buf.Bytes(), 1))
	if err == nil || !strings.Contains(err.Error(), "sampling paths") {
		t.Fatalf("the unpatched state should fail only its sample-count check, got %v", err)
	}
	err = new(Model).GobDecode(withMapCount(t, buf.Bytes(), 0xfa3e0231))
	if err == nil || !strings.Contains(err.Error(), "does not decode") {
		t.Fatalf("a corrupt map count decoded to %v", err)
	}
}

// TestGobDecodeRejectsSampleCounts: a persisted model must sample between
// 1 and MaxSamples paths; with 0 every estimate would be 0/0.
func TestGobDecodeRejectsSampleCounts(t *testing.T) {
	for _, n := range []int{-1, 0, MaxSamples + 1} {
		m := New(DefaultConfig())
		m.cfg.Samples, m.degenerate = n, true
		data, err := m.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if err := new(Model).GobDecode(data); err == nil {
			t.Errorf("Samples = %d decoded without error", n)
		}
	}
}
