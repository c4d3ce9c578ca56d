//go:build !amd64

package nn

// The Go loops are the row kernels off amd64 (see kernels.go).

func axpyRows(dst []float64, ds int, x []float64, xs int, a []float64, n int, from []int) {
	axpyRowsGeneric(dst, ds, x, xs, a, n, from)
}

func dotRows(dst, a, b []float64, n int, from []int) {
	dotRowsGeneric(dst, a, b, n, from)
}

func adamUpdate(pv, pg, m, v []float64, k adamCoef) {
	adamUpdateGeneric(pv, pg, m, v, k)
}
