package datagen

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

func TestParetoColumnUniformWhenSkewZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := ParetoColumn(rng, 20000, 10, 0)
	counts := make([]int, 11)
	for _, v := range data {
		if v < 1 || v > 10 {
			t.Fatalf("value %d outside domain [1,10]", v)
		}
		counts[v]++
	}
	for v := 1; v <= 10; v++ {
		frac := float64(counts[v]) / 20000
		if math.Abs(frac-0.1) > 0.02 {
			t.Fatalf("value %d frequency %.3f, want ~0.1", v, frac)
		}
	}
}

func TestParetoColumnSkewConcentratesMass(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	low := ParetoColumn(rng, 20000, 50, 0.2)
	high := ParetoColumn(rng, 20000, 50, 1.0)
	topFrac := func(data []int64) float64 {
		n := 0
		for _, v := range data {
			if v <= 5 {
				n++
			}
		}
		return float64(n) / float64(len(data))
	}
	if topFrac(high) <= topFrac(low) {
		t.Fatalf("higher skew should concentrate mass on low values: %.3f vs %.3f",
			topFrac(high), topFrac(low))
	}
	if topFrac(high) < 0.5 {
		t.Fatalf("skew=1 should put most mass in the head, got %.3f", topFrac(high))
	}
}

func TestParetoColumnDomainProperty(t *testing.T) {
	// Property: all values in [1, domain] for any skew in [0,1].
	f := func(seed int64, rawSkew uint8, rawDomain uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		skew := float64(rawSkew) / 255
		domain := 2 + int(rawDomain)%100
		data := ParetoColumn(rng, 200, domain, skew)
		for _, v := range data {
			if v < 1 || v > int64(domain) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelateMatchesTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, r := range []float64{0.2, 0.5, 0.9} {
		src := ParetoColumn(rng, 10000, 100, 0)
		dst := ParetoColumn(rng, 10000, 100, 0)
		Correlate(rng, src, dst, r)
		a := dataset.NewColumn("a", src)
		b := dataset.NewColumn("b", dst)
		got := dataset.EqualFraction(a, b)
		// Expected: r plus accidental equality (1-r)/domain ≈ 0.01.
		if math.Abs(got-r) > 0.05 {
			t.Fatalf("r=%.1f: measured equal fraction %.3f", r, got)
		}
	}
}

func TestPopulateFKPortionAndContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pk := make([]int64, 500)
	for i := range pk {
		pk[i] = int64(i + 1)
	}
	for _, p := range []float64{0.3, 0.7, 1.0} {
		fk := PopulateFK(rng, pk, 5000, p)
		pkSet := map[int64]bool{}
		for _, v := range pk {
			pkSet[v] = true
		}
		distinct := map[int64]bool{}
		for _, v := range fk {
			if !pkSet[v] {
				t.Fatalf("p=%.1f: FK value %d not in PK", p, v)
			}
			distinct[v] = true
		}
		ratio := float64(len(distinct)) / float64(len(pk))
		if ratio > p+0.01 {
			t.Fatalf("p=%.1f: FK covers %.3f of PK, more than requested", p, ratio)
		}
		// With 10x oversampling nearly the whole portion appears.
		if ratio < p*0.85 {
			t.Fatalf("p=%.1f: FK covers only %.3f of PK", p, ratio)
		}
	}
}

func TestGenerateSingleTable(t *testing.T) {
	p := DefaultParams(5)
	d, err := Generate("t", p)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTables() != 1 || len(d.FKs) != 0 {
		t.Fatalf("single-table dataset has %d tables, %d fks", d.NumTables(), len(d.FKs))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateMultiTableConnected(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		p := DefaultParams(seed)
		p.Tables = 2 + int(seed%4)
		d, err := Generate("t", p)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The FK graph must connect all tables.
		adj := map[int][]int{}
		for _, fk := range d.FKs {
			adj[fk.FromTable] = append(adj[fk.FromTable], fk.ToTable)
			adj[fk.ToTable] = append(adj[fk.ToTable], fk.FromTable)
		}
		seen := map[int]bool{0: true}
		stack := []int{0}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		if len(seen) != d.NumTables() {
			t.Fatalf("seed %d: join graph disconnected (%d of %d reachable)",
				seed, len(seen), d.NumTables())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := DefaultParams(99)
	p.Tables = 3
	d1, _ := Generate("a", p)
	d2, _ := Generate("b", p)
	if d1.NumTables() != d2.NumTables() {
		t.Fatal("same seed produced different table counts")
	}
	for ti := range d1.Tables {
		for ci := range d1.Tables[ti].Cols {
			a := d1.Tables[ti].Cols[ci].Data
			b := d2.Tables[ti].Cols[ci].Data
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("same seed produced different data at t%d c%d row %d", ti, ci, i)
				}
			}
		}
	}
}

func TestGenerateCorpus(t *testing.T) {
	base := DefaultParams(0)
	base.MinRows, base.MaxRows = 50, 100
	corpus, err := GenerateCorpus(12, 4, base, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != 12 {
		t.Fatalf("corpus size %d, want 12", len(corpus))
	}
	counts := map[int]int{}
	for _, d := range corpus {
		counts[d.NumTables()]++
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if len(counts) < 2 {
		t.Fatal("corpus lacks table-count diversity")
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	bad := []Params{
		{Tables: 0, MinCols: 1, MaxCols: 2, MinRows: 1, MaxRows: 2, Domain: 5},
		{Tables: 1, MinCols: 3, MaxCols: 2, MinRows: 1, MaxRows: 2, Domain: 5},
		{Tables: 1, MinCols: 1, MaxCols: 2, MinRows: 5, MaxRows: 2, Domain: 5},
		{Tables: 1, MinCols: 1, MaxCols: 2, MinRows: 1, MaxRows: 2, Domain: 1},
		{Tables: 1, MinCols: 1, MaxCols: 2, MinRows: 1, MaxRows: 2, Domain: 5, SkewHi: 2},
	}
	for i, p := range bad {
		if _, err := Generate("x", p); err == nil {
			t.Fatalf("case %d: invalid params accepted", i)
		}
	}
}

func TestRealWorldGenerators(t *testing.T) {
	imdb := IMDBLike(1)
	stats := STATSLike(1)
	power := PowerLike(1)
	if imdb.NumTables() != 6 {
		t.Fatalf("imdb-like has %d tables, want 6", imdb.NumTables())
	}
	if stats.NumTables() != 8 {
		t.Fatalf("stats-like has %d tables, want 8", stats.NumTables())
	}
	if power.NumTables() != 1 {
		t.Fatalf("power-like has %d tables, want 1", power.NumTables())
	}
	for _, d := range []*dataset.Dataset{imdb, stats, power} {
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
	}
	if len(imdb.FKs) != 5 || len(stats.FKs) != 7 {
		t.Fatalf("fk counts: imdb %d stats %d", len(imdb.FKs), len(stats.FKs))
	}
}

func TestSplitProtocol(t *testing.T) {
	src := IMDBLike(2)
	splits := Split(src, 20, 5, 3)
	if len(splits) != 20 {
		t.Fatalf("got %d splits, want 20", len(splits))
	}
	for i, sub := range splits {
		if err := sub.Validate(); err != nil {
			t.Fatalf("split %d: %v", i, err)
		}
		if sub.NumTables() < 1 || sub.NumTables() > 5 {
			t.Fatalf("split %d has %d tables", i, sub.NumTables())
		}
		// Every FK must reference valid kept columns.
		for _, fk := range sub.FKs {
			if fk.FromTable >= sub.NumTables() || fk.ToTable >= sub.NumTables() {
				t.Fatalf("split %d: dangling FK", i)
			}
		}
		// Non-key column budget: 1-2 per table plus key columns.
		for _, tbl := range sub.Tables {
			nonKey := 0
			fkCols := map[int]bool{}
			for _, fk := range sub.FKs {
				for ti2, t2 := range sub.Tables {
					if t2 == tbl && fk.FromTable == ti2 {
						fkCols[fk.FromCol] = true
					}
				}
			}
			for ci := range tbl.Cols {
				if ci != tbl.PKCol && !fkCols[ci] {
					nonKey++
				}
			}
			if nonKey > 3 {
				t.Fatalf("split %d table %s keeps %d non-key columns", i, tbl.Name, nonKey)
			}
		}
	}
}

// TestSplitDeterministic: one source and seed give the same sub-datasets,
// down to every kept column's data. The column draws used to follow map
// order, so reruns kept different columns.
func TestSplitDeterministic(t *testing.T) {
	for _, src := range []*dataset.Dataset{STATSLike(4), IMDBLike(5)} {
		want := Split(src, 6, 4, 11)
		for run := 0; run < 3; run++ {
			got := Split(src, 6, 4, 11)
			for i := range want {
				if g, w := contentHash(got[i]), contentHash(want[i]); g != w {
					t.Fatalf("%s run %d split %d: content hash %x, want %x", src.Name, run, i, g, w)
				}
			}
		}
	}
}

// contentHash digests a dataset's schema, data and foreign keys.
func contentHash(d *dataset.Dataset) uint64 {
	h := fnv.New64a()
	fmt.Fprintln(h, d.Name)
	for _, tb := range d.Tables {
		fmt.Fprintln(h, tb.Name, tb.PKCol)
		for _, c := range tb.Cols {
			fmt.Fprintln(h, c.Name, c.Data)
		}
	}
	fmt.Fprintf(h, "%+v\n", d.FKs)
	return h.Sum64()
}

func TestSyntheticEmbeddingsShapeAndDeterminism(t *testing.T) {
	a := SyntheticEmbeddings(500, 16, 8, 3)
	b := SyntheticEmbeddings(500, 16, 8, 3)
	if len(a) != 500 {
		t.Fatalf("got %d vectors, want 500", len(a))
	}
	for i := range a {
		if len(a[i]) != 16 {
			t.Fatalf("vector %d has dim %d, want 16", i, len(a[i]))
		}
		for f := range a[i] {
			if a[i][f] != b[i][f] {
				t.Fatal("same seed produced different embeddings")
			}
		}
	}
	if c := SyntheticEmbeddings(100, 4, 8, 4); len(c) != 100 {
		t.Fatalf("got %d vectors, want 100", len(c))
	}
	// Clustered structure: the spread across cluster centers (sigma 6)
	// dwarfs within-cluster noise (sigma 1), so the corpus variance must
	// clearly exceed the isotropic unit variance.
	var mean, sq float64
	for _, v := range a {
		mean += v[0]
	}
	mean /= float64(len(a))
	for _, v := range a {
		d := v[0] - mean
		sq += d * d
	}
	if variance := sq / float64(len(a)); variance < 4 {
		t.Fatalf("corpus variance %.2f looks isotropic, want clustered spread", variance)
	}
}
