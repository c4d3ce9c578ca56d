package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The row kernels (axpyRows, dotRows, adamUpdate) must give every output
// bit of the Go reference loops; on amd64 they are assembly, elsewhere
// the reference itself. A NaN output need only be NaN on both paths (see
// kernels.go).

// specials are the values that break a kernel which reorders, fuses or
// skips the wrong terms: signed zeros, subnormals, overflow, infinities
// and NaNs with different payloads.
var specials = []float64{
	0, math.Copysign(0, -1), 0, 1, -1, 0.5, 3,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, 1e300, -1e-300,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000abc),
}

// kernelInput draws the operands of one kernel case.
type kernelInput struct {
	next func() uint64
}

func (in kernelInput) intn(n int) int { return int(in.next() % uint64(n)) }

// value is a special, a float of any bit pattern, or an ordinary value in
// [-4, 4), in the ratio 1:1:2.
func (in kernelInput) value() float64 {
	u := in.next()
	switch u & 3 {
	case 0:
		return specials[(u>>2)%uint64(len(specials))]
	case 1:
		return math.Float64frombits(u)
	default:
		return (float64(u>>12)/(1<<52) - 0.5) * 8
	}
}

// values returns n values; with sparse set, most of them are zero.
func (in kernelInput) values(n int, sparse bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		if sparse && in.intn(4) != 0 {
			continue
		}
		v[i] = in.value()
	}
	return v
}

// from returns nil or a valid offset per row: all zero, all at the last
// multiple of 4, or mixed.
func (in kernelInput) from(rows, n int) []int {
	mode := in.intn(4)
	if mode == 0 {
		return nil
	}
	from := make([]int, rows)
	for r := range from {
		switch mode {
		case 2:
			from[r] = n &^ 3
		case 3:
			from[r] = in.intn(n/4+1) * 4
		}
	}
	return from
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func checkSame(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkKernels runs each row kernel and its reference on one drawn case.
func checkKernels(t *testing.T, in kernelInput) {
	t.Helper()
	rows, n := in.intn(7), in.intn(71)
	from := in.from(rows, n)

	// axpyRows, both stride patterns: one output row for all of a
	// (forward), or one output row per element of a (weight gradient).
	a := in.values(rows, in.intn(2) == 0)
	for _, forward := range []bool{true, false} {
		ds, xs, dstRows, xRows := 0, n, 1, rows
		if !forward {
			ds, xs, dstRows, xRows = n, 0, rows, 1
		}
		dst := in.values(dstRows*n, false)
		x := in.values(xRows*n, false)
		want := append([]float64(nil), dst...)
		axpyRowsGeneric(want, ds, x, xs, a, n, from)
		axpyRows(dst, ds, x, xs, a, n, from)
		checkSame(t, "axpyRows dst", dst, want)
	}

	// dotRows.
	{
		dst := in.values(rows, false)
		av := in.values(n, in.intn(2) == 0)
		b := in.values(rows*n, false)
		want := append([]float64(nil), dst...)
		dotRowsGeneric(want, av, b, n, from)
		dotRows(dst, av, b, n, from)
		checkSame(t, "dotRows dst", dst, want)
	}

	// adamUpdate, over the values of a real step or drawn ones.
	{
		k := adamCoef{b1: 0.9, c1: 1 - 0.9, b2: 0.999, c2: 1 - 0.999,
			lrT: 5e-3 / (1 - 0.9), rbc2: 1 / math.Sqrt(1-0.999), eps: 1e-8,
			lo: -5, hi: 5}
		if in.intn(2) == 0 {
			k.lo, k.hi = math.Inf(-1), math.Inf(1)
		}
		if in.intn(4) == 0 {
			// Drawn constants, with bounds as Step sets them.
			k = adamCoef{b1: in.value(), c1: in.value(), b2: in.value(), c2: in.value(),
				lrT: in.value(), rbc2: in.value(), eps: in.value(),
				lo: math.Inf(-1), hi: math.Inf(1)}
			if clip := in.value(); clip > 0 {
				k.lo, k.hi = -clip, clip
			}
		}
		pv, pg := in.values(n, false), in.values(n, false)
		m, v := in.values(n, false), in.values(n, false)
		wpv, wpg := append([]float64(nil), pv...), append([]float64(nil), pg...)
		wm, wv := append([]float64(nil), m...), append([]float64(nil), v...)
		adamUpdateGeneric(wpv, wpg, wm, wv, k)
		adamUpdate(pv, pg, m, v, k)
		checkSame(t, "adamUpdate pv", pv, wpv)
		checkSame(t, "adamUpdate pg", pg, wpg)
		checkSame(t, "adamUpdate m", m, wm)
		checkSame(t, "adamUpdate v", v, wv)
	}
}

func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	in := kernelInput{next: rng.Uint64}
	for trial := 0; trial < 20000; trial++ {
		checkKernels(t, in)
	}
}

// TestRowKernelsRejectShortOperands: the assembly indexes memory
// unchecked, so each row kernel must panic, not read or write past an
// operand, when a slice is shorter than its rows.
func TestRowKernelsRejectShortOperands(t *testing.T) {
	short := make([]float64, 7)
	long := make([]float64, 64)
	ones := []float64{1, 1}
	k := adamCoef{lo: -1, hi: 1}
	for name, call := range map[string]func(){
		"axpyRows dst":  func() { axpyRows(short, 4, long, 4, ones, 4, nil) },
		"axpyRows x":    func() { axpyRows(long, 4, short, 4, ones, 4, nil) },
		"axpyRows from": func() { axpyRows(long, 4, long, 4, ones, 4, []int{0}) },
		"dotRows a":     func() { dotRows(ones, short, long, 8, nil) },
		"dotRows b":     func() { dotRows(ones, long, short, 4, nil) },
		"dotRows from":  func() { dotRows(ones, long, long, 4, []int{0}) },
		"adamUpdate pv": func() { adamUpdate(short, long, long, long, k) },
		"adamUpdate m":  func() { adamUpdate(long, long, short, long, k) },
		"adamUpdate v":  func() { adamUpdate(long, long, long, short, k) },
		"checkFrom":     func() { matMulInto(long, ones, long, 1, 2, 8, []int{0, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: short operand accepted", name)
				}
			}()
			call()
		}()
	}
}

// TestAdamStepMatchesReference: Adam.Step, through adamUpdate, takes the
// same steps as the plain per-element loop, with and without clipping.
func TestAdamStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, clip := range []float64{5, 0.01, 0, -1} {
		p := NewParam(7, 9)
		for i := range p.V {
			p.V[i] = rng.NormFloat64()
		}
		opt := NewAdam([]*Tensor{p}, 5e-3)
		opt.Clip = clip
		want := append([]float64(nil), p.V...)
		m, v := make([]float64, len(want)), make([]float64, len(want))
		for step := 1; step <= 6; step++ {
			grad := make([]float64, len(want))
			for i := range grad {
				grad[i] = 10 * rng.NormFloat64()
				if i%11 == 0 {
					grad[i] = specials[(i+step)%len(specials)]
				}
			}
			copy(p.G, grad)
			opt.Step()
			b1, b2 := opt.Beta1, opt.Beta2
			lrT := opt.LR / (1 - math.Pow(b1, float64(step)))
			rbc2 := 1 / math.Sqrt(1-math.Pow(b2, float64(step)))
			for i, g := range grad {
				if clip > 0 {
					g = clamp(g, -clip, clip)
				}
				m[i] = float64(b1*m[i]) + float64((1-b1)*g)
				v[i] = float64(b2*v[i]) + float64(float64((1-b2)*g)*g)
				want[i] -= float64(lrT*m[i]) / (float64(math.Sqrt(v[i])*rbc2) + opt.Eps)
			}
			checkSame(t, "Adam.Step values", p.V, want)
			checkSame(t, "Adam.Step gradients", p.G, make([]float64, len(want)))
		}
	}
}

// FuzzKernels runs each row kernel against the Go reference on cases
// drawn from the fuzzer's bytes, eight bytes per draw (zero once they run
// out).
func FuzzKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03\x00\x00\x00\x00\x00\x00\x00\x45\x00\x00\x00\x00\x00\x00\x00\x03"))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64+rng.Intn(512))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := kernelInput{next: func() uint64 {
			var w [8]byte
			k := copy(w[:], data)
			data = data[k:]
			return binary.LittleEndian.Uint64(w[:])
		}}
		checkKernels(t, in)
	})
}
