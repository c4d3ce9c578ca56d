// Package datagen implements the paper's training-data generation stage
// (Section IV-A): single- and multi-table synthetic dataset generation
// driven by three data features — column skewness (F1, Pareto-family
// distribution), column correlation (F2, positional value equality with
// probability r), and PK-FK join correlation (F3, FK values drawn from a
// p-fraction of the referenced PK values).
//
// It also provides "real-world-like" generators that stand in for the
// paper's IMDB-light and STATS-light datasets: fixed-seed multi-table
// datasets whose value distributions (mixtures, plateaus, heavy tails) fall
// outside the Pareto training manifold, split into 20 sub-datasets following
// the paper's IMDB-20/STATS-20 protocol.
package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/dataset"
)

// Params controls the generation of one synthetic dataset.
type Params struct {
	// Tables is the number of tables (>= 1).
	Tables int
	// MinCols and MaxCols bound the per-table column count, inclusive.
	// Tables with a primary key receive one extra key column.
	MinCols, MaxCols int
	// MinRows and MaxRows bound the per-table row count, inclusive.
	MinRows, MaxRows int
	// Domain is the maximum domain size d of a generated column; actual
	// per-column domains are drawn in [2, Domain].
	Domain int
	// SkewLo and SkewHi bound the per-column skew parameter in [0,1];
	// skew = 0 yields a uniform distribution (F1).
	SkewLo, SkewHi float64
	// CorrLo and CorrHi bound the adjacent-column correlation r (F2).
	CorrLo, CorrHi float64
	// JoinLo and JoinHi bound the PK-FK join correlation p (F3),
	// the paper's [jmin, jmax].
	JoinLo, JoinHi float64
	// Seed seeds the deterministic generator.
	Seed int64
}

// DefaultParams returns generation parameters mirroring the paper's
// synthetic-dataset regime (1-5 tables, 2-25 columns total, 10K-50K rows,
// bounded domain), scaled so that a full labeling run stays CPU-friendly.
func DefaultParams(seed int64) Params {
	return Params{
		Tables:  1,
		MinCols: 2, MaxCols: 5,
		MinRows: 800, MaxRows: 2500,
		Domain: 120,
		SkewLo: 0, SkewHi: 1,
		CorrLo: 0, CorrHi: 1,
		JoinLo: 0.2, JoinHi: 1,
		Seed: seed,
	}
}

func (p Params) validate() error {
	if p.Tables < 1 {
		return fmt.Errorf("datagen: Tables must be >= 1, got %d", p.Tables)
	}
	if p.MinCols < 1 || p.MaxCols < p.MinCols {
		return fmt.Errorf("datagen: invalid column bounds [%d,%d]", p.MinCols, p.MaxCols)
	}
	if p.MinRows < 1 || p.MaxRows < p.MinRows {
		return fmt.Errorf("datagen: invalid row bounds [%d,%d]", p.MinRows, p.MaxRows)
	}
	if p.Domain < 2 {
		return fmt.Errorf("datagen: Domain must be >= 2, got %d", p.Domain)
	}
	if p.SkewLo < 0 || p.SkewHi > 1 || p.SkewHi < p.SkewLo {
		return fmt.Errorf("datagen: invalid skew bounds [%g,%g]", p.SkewLo, p.SkewHi)
	}
	if p.JoinLo < 0 || p.JoinHi > 1 || p.JoinHi < p.JoinLo {
		return fmt.Errorf("datagen: invalid join-correlation bounds [%g,%g]", p.JoinLo, p.JoinHi)
	}
	return nil
}

// ParetoColumn generates k values over the integer domain [1, domain]
// following the paper's F1 skewed distribution. skew = 0 yields a uniform
// distribution over the domain; as skew grows toward 1 the probability mass
// concentrates on the low values, matching the Pareto-family density of
// Eq. 1 (we realize it as a power-law probability mass function over the
// bounded domain, which is the discrete equivalent).
func ParetoColumn(rng *rand.Rand, k, domain int, skew float64) []int64 {
	data := make([]int64, k)
	if skew <= 1e-9 {
		for i := range data {
			data[i] = 1 + int64(rng.Intn(domain))
		}
		return data
	}
	// Power-law pmf: P(v) ∝ v^(-alpha), alpha grows with skew. alpha in
	// (0, 3]: skew=1 gives a strongly Zipfian column, skew→0 approaches
	// uniform.
	alpha := 3 * skew
	cdf := make([]float64, domain)
	var sum float64
	for v := 1; v <= domain; v++ {
		sum += math.Pow(float64(v), -alpha)
		cdf[v-1] = sum
	}
	for i := range data {
		u := rng.Float64() * sum
		// Binary search the CDF.
		lo, hi := 0, domain-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		data[i] = int64(lo + 1)
	}
	return data
}

// Correlate applies the paper's F2 column correlation in place: for each
// row position, with probability r the value of dst is replaced by the
// value of src at the same position, so the measured EqualFraction of the
// pair approaches r (plus the baseline accidental-equality rate).
func Correlate(rng *rand.Rand, src, dst []int64, r float64) {
	n := len(src)
	if n != len(dst) {
		panic(fmt.Sprintf("datagen: Correlate length mismatch %d vs %d", n, len(dst)))
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < r {
			dst[i] = src[i]
		}
	}
}

// SingleTable generates one table per the paper's single-table procedure:
// n columns of k rows each, every column drawn with its own skew in
// [SkewLo, SkewHi] over a per-column domain, then every adjacent column
// pair correlated with its own r in [CorrLo, CorrHi].
func SingleTable(rng *rand.Rand, name string, p Params) *dataset.Table {
	ncols := p.MinCols + rng.Intn(p.MaxCols-p.MinCols+1)
	rows := p.MinRows + rng.Intn(p.MaxRows-p.MinRows+1)
	t := &dataset.Table{Name: name, PKCol: -1}
	for c := 0; c < ncols; c++ {
		domain := 2 + rng.Intn(p.Domain-1)
		skew := p.SkewLo + rng.Float64()*(p.SkewHi-p.SkewLo)
		col := dataset.NewColumn(fmt.Sprintf("col%d", c), ParetoColumn(rng, rows, domain, skew))
		t.Cols = append(t.Cols, col)
	}
	for c := 0; c+1 < ncols; c++ {
		r := p.CorrLo + rng.Float64()*(p.CorrHi-p.CorrLo)
		Correlate(rng, t.Cols[c].Data, t.Cols[c+1].Data, r)
	}
	// Beyond the adjacent chain, some tables get non-tree correlation
	// topologies: extra random pairs that close triangles. Chains are
	// exactly representable by tree-structured models (Chow-Liu); loops
	// are not, which keeps the model zoo's relative strengths diverse —
	// the property the paper's Figure 1 motivation rests on.
	if ncols >= 3 && rng.Float64() < 0.5 {
		extra := 1 + rng.Intn(2)
		for e := 0; e < extra; e++ {
			a := rng.Intn(ncols)
			b := rng.Intn(ncols)
			if a == b {
				continue
			}
			r := p.CorrLo + rng.Float64()*(p.CorrHi-p.CorrLo)
			Correlate(rng, t.Cols[a].Data, t.Cols[b].Data, r)
		}
	}
	return t
}

// addPrimaryKey prepends a unique key column (values 1..rows) to a table
// and marks it as the primary key.
func addPrimaryKey(t *dataset.Table) {
	rows := t.Rows()
	pk := make([]int64, rows)
	for i := range pk {
		pk[i] = int64(i + 1)
	}
	t.Cols = append([]*dataset.Column{dataset.NewColumn("id", pk)}, t.Cols...)
	t.PKCol = 0
}

// PopulateFK implements the paper's F3 join correlation: it draws a
// p-fraction of the PK column's distinct values without replacement and
// fills a fresh FK column of length rows by sampling uniformly from that
// portion. Higher p means the FK covers a larger portion of the PK domain.
func PopulateFK(rng *rand.Rand, pk []int64, rows int, p float64) []int64 {
	distinct := make(map[int64]struct{}, len(pk))
	for _, v := range pk {
		distinct[v] = struct{}{}
	}
	vals := make([]int64, 0, len(distinct))
	for v := range distinct {
		vals = append(vals, v)
	}
	// Sort before shuffling: map iteration order would otherwise make
	// generation non-deterministic under a fixed seed.
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	take := int(math.Ceil(p * float64(len(vals))))
	if take < 1 {
		take = 1
	}
	if take > len(vals) {
		take = len(vals)
	}
	portion := vals[:take]
	fk := make([]int64, rows)
	// Seed each portion value once (as far as rows allow) so the measured
	// coverage matches the requested p, then fill the rest uniformly.
	for i := range fk {
		if i < len(portion) {
			fk[i] = portion[i]
		} else {
			fk[i] = portion[rng.Intn(len(portion))]
		}
	}
	rng.Shuffle(len(fk), func(i, j int) { fk[i], fk[j] = fk[j], fk[i] })
	return fk
}

// Generate produces one synthetic dataset per the paper's multi-table
// procedure: generate Tables tables independently, pick main tables and
// assign primary keys, then correlate every non-main table (and possibly
// main tables) to a main table through a PK-FK edge with join correlation
// p in [JoinLo, JoinHi]. With Tables = 1 it degenerates to single-table
// generation.
func Generate(name string, p Params) (*dataset.Dataset, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	d := &dataset.Dataset{Name: name}
	for i := 0; i < p.Tables; i++ {
		d.Tables = append(d.Tables, SingleTable(rng, fmt.Sprintf("table%d", i), p))
	}
	if p.Tables == 1 {
		return d, d.Validate()
	}

	// Select m main tables (at least one, at most Tables-1 so there is
	// always at least one pure-FK table) and give each a primary key.
	m := 1
	if p.Tables > 2 {
		m += rng.Intn(p.Tables - 1)
	}
	mains := rng.Perm(p.Tables)[:m]
	isMain := make(map[int]bool, m)
	for _, idx := range mains {
		addPrimaryKey(d.Tables[idx])
		isMain[idx] = true
	}

	// Every non-main table gets an FK to a random main table; main tables
	// after the first reference an earlier main, so the join graph is
	// always connected (a tree over the mains with stars hanging off).
	mainPos := map[int]int{}
	for pos, idx := range mains {
		mainPos[idx] = pos
	}
	for ti := 0; ti < p.Tables; ti++ {
		var target int
		if isMain[ti] {
			pos := mainPos[ti]
			if pos == 0 {
				continue // the root main table is referenced-only
			}
			target = mains[rng.Intn(pos)] // an earlier main: keeps a tree
		} else {
			target = mains[rng.Intn(m)]
		}
		pcorr := p.JoinLo + rng.Float64()*(p.JoinHi-p.JoinLo)
		pkCol := d.Tables[target].Col(d.Tables[target].PKCol)
		fkData := PopulateFK(rng, pkCol.Data, d.Tables[ti].Rows(), pcorr)
		fkName := fmt.Sprintf("fk_%s", d.Tables[target].Name)
		fkCol := dataset.NewColumn(fkName, fkData)
		d.Tables[ti].Cols = append(d.Tables[ti].Cols, fkCol)
		d.FKs = append(d.FKs, dataset.ForeignKey{
			FromTable: ti, FromCol: d.Tables[ti].NumCols() - 1,
			ToTable: target, ToCol: d.Tables[target].PKCol,
		})
	}
	return d, d.Validate()
}

// GenerateCorpus generates n datasets with varied table counts (1..maxTables)
// and per-dataset random parameters, seeded deterministically from seed.
// This is the paper's Stage 1 corpus used for training-data generation.
func GenerateCorpus(n, maxTables int, base Params, seed int64) ([]*dataset.Dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*dataset.Dataset, 0, n)
	for i := 0; i < n; i++ {
		p := base
		p.Tables = 1 + rng.Intn(maxTables)
		p.Seed = rng.Int63()
		ds, err := Generate(fmt.Sprintf("syn%04d", i), p)
		if err != nil {
			return nil, err
		}
		out = append(out, ds)
	}
	return out, nil
}
