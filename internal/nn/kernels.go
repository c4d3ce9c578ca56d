package nn

import (
	"fmt"
	"math"
)

// Dense float64 kernels shared by the autodiff ops. All matrices are
// row-major. The three shapes cover every pass of a dense layer:
//
//	matMulInto   out  = A @ B        (forward)
//	mulABTAccum  dA  += dOut @ Bᵀ    (input gradient; B read by rows, so the
//	                                  transposed operand streams contiguously)
//	mulATBAccum  dW  += Aᵀ @ dOut    (weight gradient)
//
// The forward and weight-gradient kernels skip zero elements of A: the
// MADE estimators and the GIN encoder feed one-hot or highly sparse rows,
// where the skip removes most of the work.
//
// Each kernel also takes from, nil or one entry per row of the weight
// matrix (B in the first two shapes, dW in the third): weight row r is
// read and written only from column from[r] on. A caller passes it only
// where the weight row is zero before that column, so every skipped
// product is exactly zero and adds nothing. Each from[r] is a multiple of
// 4, so dot's four partial sums still see the same terms in the same
// order, and the products keep every bit (for finite values).
//
// The kernels hand whole rows to three row kernels: axpyRows and dotRows
// for the products and adamUpdate for Adam's step. On amd64 these are
// SSE2 assembly (kernels_amd64.s); on every other GOARCH they are the Go
// loops in this file, which are also the reference the assembly is
// tested against (TestKernelsMatchReference, FuzzKernels). The assembly
// must give every output bit of the reference:
//
//   - no fused multiply-add: each product is rounded before it is added,
//     as Go compiles these loops for GOAMD64=v1 (the explicit float64
//     conversions below forbid fusing on the architectures where Go would);
//   - axpy is element-wise dst[i] + s·x[i], which packed lanes keep;
//   - dot keeps four partial sums, lane l summing the terms i ≡ l (mod 4)
//     in index order, finishes them as ((s0+s1)+s2)+s3 and then adds the
//     tail terms one at a time; the assembly keeps the same four lanes for
//     each row it carries;
//   - Adam's step is the expression order of adamUpdateGeneric, with the
//     clamp sending -Inf and +Inf to the bounds and passing NaN through.
//
// A NaN result is NaN on both paths, but its payload is not part of the
// contract: x86 passes on an operand NaN's payload, and which operand
// comes first is the compiler's register choice.

// matMulInto computes dst = a@b with a: m×k, b: k×n, dst: m×n,
// overwriting dst.
func matMulInto(dst, a, b []float64, m, k, n int, from []int) {
	dst, a, b = dst[:m*n], a[:m*k], b[:k*n]
	checkFrom(from, k, n)
	clear(dst)
	for i := 0; i < m; i++ {
		axpyRows(dst[i*n:(i+1)*n], 0, b, n, a[i*k:(i+1)*k], n, from)
	}
}

// mulABTAccum accumulates dst += a@bᵀ with a: m×n, b: k×n, dst: m×k.
func mulABTAccum(dst, a, b []float64, m, n, k int, from []int) {
	dst, a, b = dst[:m*k], a[:m*n], b[:k*n]
	checkFrom(from, k, n)
	for i := 0; i < m; i++ {
		dotRows(dst[i*k:(i+1)*k], a[i*n:(i+1)*n], b, n, from)
	}
}

// mulATBAccum accumulates dst += aᵀ@b with a: m×k, b: m×n, dst: k×n,
// skipping zero elements of a.
func mulATBAccum(dst, a, b []float64, m, k, n int, from []int) {
	dst, a, b = dst[:k*n], a[:m*k], b[:m*n]
	checkFrom(from, k, n)
	for i := 0; i < m; i++ {
		axpyRows(dst, n, b[i*n:(i+1)*n], 0, a[i*k:(i+1)*k], n, from)
	}
}

// checkFrom panics unless from is nil or holds, for each of k weight rows
// of width n, a multiple of 4 in [0, n]. The assembly row kernels index
// memory by these offsets unchecked.
func checkFrom(from []int, k, n int) {
	if from == nil {
		return
	}
	if len(from) != k {
		panic(fmt.Sprintf("nn: %d row offsets for %d rows", len(from), k))
	}
	for r, f := range from {
		if f < 0 || f > n || f&3 != 0 {
			panic(fmt.Sprintf("nn: row %d offset %d for width %d", r, f, n))
		}
	}
}

// rowFrom returns the first column weight row r is read from.
func rowFrom(from []int, r int) int {
	if from == nil {
		return 0
	}
	return from[r]
}

// maskedFrom returns, for each row of a k×n 0/1 mask, where the row's
// leading run of zeros ends, rounded down to a multiple of 4: the from
// argument of the kernels for weights multiplied by the mask.
func maskedFrom(mask []float64, k, n int) []int {
	from := make([]int, k)
	for r := range from {
		row := mask[r*n : (r+1)*n]
		z := 0
		for z < n && row[z] == 0 {
			z++
		}
		from[r] = z &^ 3
	}
	return from
}

// axpyRowsGeneric is the reference for axpyRows: for each r with
// a[r] != 0 and f = rowFrom(from, r), it adds a[r]·x[r*xs+f : r*xs+n]
// into dst[r*ds+f : r*ds+n]. A stride of 0 reuses one row for every r:
// the forward product accumulates into one output row (ds = 0), the
// weight gradient reads one upstream row (xs = 0).
func axpyRowsGeneric(dst []float64, ds int, x []float64, xs int, a []float64, n int, from []int) {
	for r, av := range a {
		if av == 0 {
			continue
		}
		f := rowFrom(from, r)
		axpy(dst[r*ds+f:r*ds+n], x[r*xs+f:r*xs+n], av)
	}
}

// dotRowsGeneric is the reference for dotRows: for each j < len(dst) and
// f = rowFrom(from, j), it adds dot(a[f:n], b[j*n+f:(j+1)*n]) into dst[j].
func dotRowsGeneric(dst, a, b []float64, n int, from []int) {
	for j := range dst {
		f := rowFrom(from, j)
		dst[j] += dot(a[f:n], b[j*n+f:(j+1)*n])
	}
}

// axpy computes dst += s*x over equal-length slices.
func axpy(dst, x []float64, s float64) {
	n := len(dst)
	x = x[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += float64(s * x[i])
		dst[i+1] += float64(s * x[i+1])
		dst[i+2] += float64(s * x[i+2])
		dst[i+3] += float64(s * x[i+3])
	}
	for ; i < n; i++ {
		dst[i] += float64(s * x[i])
	}
}

// dot returns the inner product of equal-length slices.
func dot(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += float64(a[i] * b[i])
		s1 += float64(a[i+1] * b[i+1])
		s2 += float64(a[i+2] * b[i+2])
		s3 += float64(a[i+3] * b[i+3])
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += float64(a[i] * b[i])
	}
	return s
}

// adamCoef holds one Adam step's constants (see Adam.Step). The clamp
// bounds are -clip and clip, or -Inf and +Inf without clipping, where
// clamp changes nothing; the assembly relies on lo <= hi.
type adamCoef struct {
	b1, c1, b2, c2 float64 // β1, 1-β1, β2, 1-β2
	lrT, rbc2, eps float64 // lr/(1-β1ᵗ), 1/√(1-β2ᵗ), ε
	lo, hi         float64 // gradient clamp bounds
}

// adamUpdateGeneric is the reference for adamUpdate: one Adam step of the
// parameter values pv from their gradients pg, with first and second
// moments m and v, clearing pg.
func adamUpdateGeneric(pv, pg, m, v []float64, k adamCoef) {
	for i, g := range pg {
		g = clamp(g, k.lo, k.hi)
		mi := float64(k.b1*m[i]) + float64(k.c1*g)
		vi := float64(k.b2*v[i]) + float64(float64(k.c2*g)*g)
		m[i], v[i] = mi, vi
		pv[i] -= float64(k.lrT*mi) / (float64(math.Sqrt(vi)*k.rbc2) + k.eps)
		pg[i] = 0
	}
}

// maskMulInto computes dst = w∘mask elementwise.
func maskMulInto(dst, w, mask []float64) {
	for i, wv := range w {
		dst[i] = wv * mask[i]
	}
}

// addBiasRows adds the 1×n bias to every row of the m×n matrix in place.
func addBiasRows(x, bias []float64, m, n int) {
	for i := 0; i < m; i++ {
		row := x[i*n : (i+1)*n]
		for j, bv := range bias[:n] {
			row[j] += bv
		}
	}
}

// colSumAccum accumulates the column sums of the m×n matrix x into the
// length-n dst.
func colSumAccum(dst, x []float64, m, n int) {
	for i := 0; i < m; i++ {
		row := x[i*n : (i+1)*n]
		for j, v := range row {
			dst[j] += v
		}
	}
}
