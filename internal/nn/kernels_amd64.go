package nn

// The row kernels on amd64 are SSE2 assembly (kernels_amd64.s) with the
// Go reference's arithmetic (see kernels.go). The wrappers check every
// bound the assembly relies on; the callers have checked from.

//go:noescape
func axpyRowsSSE2(dst []float64, ds int, x []float64, xs int, a []float64, n int, from []int)

//go:noescape
func dotRowsSSE2(dst, a, b []float64, n int, from []int)

//go:noescape
func adamUpdateSSE2(pv, pg, m, v []float64, k adamCoef)

func axpyRows(dst []float64, ds int, x []float64, xs int, a []float64, n int, from []int) {
	if len(a) == 0 || n == 0 {
		return
	}
	last := len(a) - 1
	if len(dst) < last*ds+n || len(x) < last*xs+n || (from != nil && len(from) <= last) {
		panic("nn: axpyRows operands shorter than their rows")
	}
	axpyRowsSSE2(dst, ds, x, xs, a, n, from)
}

// dotRows carries two weight rows per pass in assembly; an odd last row
// takes the Go loop.
func dotRows(dst, a, b []float64, n int, from []int) {
	k := len(dst)
	if k == 0 {
		return
	}
	if len(a) < n || len(b) < k*n || (from != nil && len(from) < k) {
		panic("nn: dotRows operands shorter than their rows")
	}
	if pairs := k &^ 1; pairs > 0 {
		dotRowsSSE2(dst[:pairs], a, b, n, from)
	}
	if k&1 != 0 {
		f := rowFrom(from, k-1)
		dst[k-1] += dot(a[f:n], b[(k-1)*n+f:k*n])
	}
}

func adamUpdate(pv, pg, m, v []float64, k adamCoef) {
	n := len(pg)
	if len(pv) < n || len(m) < n || len(v) < n {
		panic("nn: adamUpdate operands shorter than the gradient")
	}
	adamUpdateSSE2(pv, pg, m, v, k)
}
