package dataset

// ColStats bundles the per-column moments and distribution features that
// AutoCE's feature engineering extracts (Section V-A): skewness, kurtosis,
// standard and mean deviation, range, and domain size.
type ColStats struct {
	Count      int
	Mean       float64
	Std        float64 // population standard deviation
	MeanDev    float64 // mean absolute deviation from the mean
	Skewness   float64 // standardized third moment
	Kurtosis   float64 // excess kurtosis (normal = 0)
	Min, Max   int64
	Range      float64
	DomainSize int // number of distinct values
}

// ColumnStats computes ColStats for one column. It routes through the
// same statistics kernel as the fused Summary sweep (summary.go), so the
// per-call API and the summaries are bit-identical by construction; the
// kernel's two paths (single-pass histogram for bounded integer domains,
// classic two-pass moments for wide spans) are mathematically exact
// reorderings of the textbook formulas — the seed's ordered two-pass
// reference lives on in the differential tests.
func ColumnStats(c *Column) ColStats {
	sc := scratchPool.Get().(*summaryScratch)
	defer scratchPool.Put(sc)
	return sc.colStatsKernel(c.Data, nil)
}

// EqualFraction returns the fraction of positions where a and b hold the
// same value. This is exactly the paper's column-correlation notion (F2):
// the probability that two columns have the same value at the same position.
// It returns 0 when lengths differ or are zero.
func EqualFraction(a, b *Column) float64 {
	n := len(a.Data)
	if n == 0 || n != len(b.Data) {
		return 0
	}
	eq := 0
	for i := 0; i < n; i++ {
		if a.Data[i] == b.Data[i] {
			eq++
		}
	}
	return float64(eq) / float64(n)
}

// JoinCorrelation measures the paper's join-correlation feature for an FK
// edge: the ratio of the FK column's distinct values over the referenced PK
// column's distinct values (Section V-A: "we compute the join correlation by
// taking the set of the FK column data of a table, then calculating its
// ratio over the PK column data of a joined table"). It returns 0 when the
// PK column has no values.
func JoinCorrelation(fk, pk *Column) float64 {
	pkSet := make(map[int64]struct{}, len(pk.Data))
	for _, v := range pk.Data {
		pkSet[v] = struct{}{}
	}
	if len(pkSet) == 0 {
		return 0
	}
	fkSet := make(map[int64]struct{}, len(fk.Data))
	for _, v := range fk.Data {
		fkSet[v] = struct{}{}
	}
	inter := 0
	for v := range fkSet {
		if _, ok := pkSet[v]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(pkSet))
}
