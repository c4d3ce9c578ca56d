package nn

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
// where the skip removes most of the work. The inner loops run over
// contiguous 4-way unrolled slices so the compiler keeps them in registers.
//
// Each kernel also takes from, nil or one entry per row of the weight
// matrix (B in the first two shapes, dW in the third): weight row r is
// read and written only from column from[r] on. A caller passes it only
// where the weight row is zero before that column, so every skipped
// product is exactly zero and adds nothing. Each from[r] is a multiple of
// 4, so dot's four partial sums still see the same terms in the same
// order, and the products keep every bit (for finite values).

// matMulInto computes dst = a@b with a: m×k, b: k×n, dst: m×n,
// overwriting dst.
func matMulInto(dst, a, b []float64, m, k, n int, from []int) {
	for i := range dst[:m*n] {
		dst[i] = 0
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			f := rowFrom(from, kk)
			axpy(orow[f:], b[kk*n+f:(kk+1)*n], av)
		}
	}
}

// mulABTAccum accumulates dst += a@bᵀ with a: m×n, b: k×n, dst: m×k.
func mulABTAccum(dst, a, b []float64, m, n, k int, from []int) {
	for i := 0; i < m; i++ {
		arow := a[i*n : (i+1)*n]
		drow := dst[i*k : (i+1)*k]
		for j := 0; j < k; j++ {
			f := rowFrom(from, j)
			drow[j] += dot(arow[f:], b[j*n+f:(j+1)*n])
		}
	}
}

// mulATBAccum accumulates dst += aᵀ@b with a: m×k, b: m×n, dst: k×n,
// skipping zero elements of a.
func mulATBAccum(dst, a, b []float64, m, k, n int, from []int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		brow := b[i*n : (i+1)*n]
		for c, av := range arow {
			if av == 0 {
				continue
			}
			f := rowFrom(from, c)
			axpy(dst[c*n+f:(c+1)*n], brow[f:], av)
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

// axpy computes dst += s*x over equal-length slices.
func axpy(dst, x []float64, s float64) {
	n := len(dst)
	x = x[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += s * x[i]
		dst[i+1] += s * x[i+1]
		dst[i+2] += s * x[i+2]
		dst[i+3] += s * x[i+3]
	}
	for ; i < n; i++ {
		dst[i] += s * x[i]
	}
}

// dot returns the inner product of equal-length slices.
func dot(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
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
