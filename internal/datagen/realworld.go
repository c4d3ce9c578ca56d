package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/dataset"
)

// This file provides the substitutes for the paper's real-world datasets
// (IMDB-light, STATS-light, and the Power dataset of Figure 1). We cannot
// ship the originals, so we generate fixed-seed datasets whose value
// distributions deliberately fall outside the Pareto training manifold of
// the synthetic corpus: mixtures of modes, plateaus, truncated normals, and
// heavy tails. What the paper's experiments need from these datasets is
// exactly "unseen data whose feature distribution differs from training",
// and these generators provide that gap reproducibly.

// mixtureColumn draws from a mixture of a few Gaussian-ish modes plus a
// uniform background — a shape common in real attribute distributions
// (ratings, years, counts) and absent from the Pareto generator.
func mixtureColumn(rng *rand.Rand, k, domain, modes int) []int64 {
	centers := make([]float64, modes)
	widths := make([]float64, modes)
	for i := range centers {
		centers[i] = 1 + rng.Float64()*float64(domain-1)
		widths[i] = (0.02 + 0.08*rng.Float64()) * float64(domain)
	}
	data := make([]int64, k)
	for i := range data {
		if rng.Float64() < 0.15 { // uniform background
			data[i] = 1 + int64(rng.Intn(domain))
			continue
		}
		m := rng.Intn(modes)
		v := centers[m] + rng.NormFloat64()*widths[m]
		iv := int64(math.Round(v))
		if iv < 1 {
			iv = 1
		}
		if iv > int64(domain) {
			iv = int64(domain)
		}
		data[i] = iv
	}
	return data
}

// plateauColumn draws from a small set of frequent values plus a long tail,
// the shape of categorical real-world attributes (genres, tags, states).
func plateauColumn(rng *rand.Rand, k, domain, heavy int) []int64 {
	data := make([]int64, k)
	for i := range data {
		if rng.Float64() < 0.7 {
			data[i] = 1 + int64(rng.Intn(heavy))
		} else {
			data[i] = 1 + int64(rng.Intn(domain))
		}
	}
	return data
}

// realTable builds a table mixing the above distribution shapes, with
// cross-column structure created by sorting-coupled columns rather than
// positional equality (again unlike the synthetic generator).
func realTable(rng *rand.Rand, name string, rows, ncols, domain int) *dataset.Table {
	t := &dataset.Table{Name: name, PKCol: -1}
	for c := 0; c < ncols; c++ {
		var data []int64
		switch c % 3 {
		case 0:
			data = mixtureColumn(rng, rows, domain, 2+rng.Intn(3))
		case 1:
			data = plateauColumn(rng, rows, domain, 3+rng.Intn(5))
		default:
			data = ParetoColumn(rng, rows, domain, 0.9+0.1*rng.Float64())
		}
		t.Cols = append(t.Cols, dataset.NewColumn(fmt.Sprintf("col%d", c), data))
	}
	// Functional-ish dependency: col1 ≈ f(col0) with noise, when present.
	if ncols >= 2 {
		for i := 0; i < rows; i++ {
			if rng.Float64() < 0.6 {
				t.Cols[1].Data[i] = 1 + (t.Cols[0].Data[i]*7)%int64(domain)
			}
		}
	}
	return t
}

// realWorldSpec describes one fixed real-world-like schema.
type realWorldSpec struct {
	name    string
	tables  []struct{ rows, cols, domain int }
	fks     []struct{ from, to int } // table indexes; FK column appended to from
	seedMix int64
}

func buildRealWorld(spec realWorldSpec, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed ^ spec.seedMix))
	d := &dataset.Dataset{Name: spec.name}
	for i, ts := range spec.tables {
		d.Tables = append(d.Tables, realTable(rng, fmt.Sprintf("%s_t%d", spec.name, i), ts.rows, ts.cols, ts.domain))
	}
	// Assign primary keys to all FK targets.
	needPK := map[int]bool{}
	for _, fk := range spec.fks {
		needPK[fk.to] = true
	}
	for ti := range d.Tables {
		if needPK[ti] {
			addPrimaryKey(d.Tables[ti])
		}
	}
	for _, fk := range spec.fks {
		p := 0.3 + 0.65*rng.Float64()
		pkCol := d.Tables[fk.to].Col(d.Tables[fk.to].PKCol)
		fkData := PopulateFK(rng, pkCol.Data, d.Tables[fk.from].Rows(), p)
		fkCol := dataset.NewColumn(fmt.Sprintf("fk_%s", d.Tables[fk.to].Name), fkData)
		d.Tables[fk.from].Cols = append(d.Tables[fk.from].Cols, fkCol)
		d.FKs = append(d.FKs, dataset.ForeignKey{
			FromTable: fk.from, FromCol: d.Tables[fk.from].NumCols() - 1,
			ToTable: fk.to, ToCol: d.Tables[fk.to].PKCol,
		})
	}
	return d
}

// IMDBLike returns the stand-in for IMDB-light: six tables in a star-plus-
// chain schema (title at the center, as in the movie-rating schema of the
// paper's Table I), with mixture/plateau value distributions.
func IMDBLike(seed int64) *dataset.Dataset {
	spec := realWorldSpec{
		name:    "imdb-light",
		seedMix: 0x1D4B,
		tables: []struct{ rows, cols, domain int }{
			{3000, 3, 150}, // title (hub)
			{2400, 2, 90},  // movie_info
			{1800, 2, 60},  // movie_companies
			{2600, 3, 120}, // cast_info
			{1200, 2, 40},  // movie_keyword
			{900, 2, 30},   // company
		},
		fks: []struct{ from, to int }{
			{1, 0}, {2, 0}, {3, 0}, {4, 0}, {2, 5},
		},
	}
	return buildRealWorld(spec, seed)
}

// STATSLike returns the stand-in for STATS-light: eight tables from the
// Stack-Exchange-style schema (users/posts hub-and-spoke) with
// heavier-tailed distributions and larger domains.
func STATSLike(seed int64) *dataset.Dataset {
	spec := realWorldSpec{
		name:    "stats-light",
		seedMix: 0x57A7,
		tables: []struct{ rows, cols, domain int }{
			{2800, 3, 200}, // users (hub)
			{3200, 3, 180}, // posts (hub)
			{2000, 2, 80},  // comments
			{1500, 2, 60},  // badges
			{1800, 3, 100}, // votes
			{1000, 2, 50},  // postHistory
			{800, 2, 40},   // postLinks
			{600, 2, 30},   // tags
		},
		fks: []struct{ from, to int }{
			{2, 1}, {3, 0}, {4, 1}, {5, 1}, {6, 1}, {1, 0}, {2, 0},
		},
	}
	return buildRealWorld(spec, seed)
}

// PowerLike returns the stand-in for the Power dataset of Figure 1: a
// single wide table with smooth, highly correlated sensor-style columns.
func PowerLike(seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed ^ 0x90E6))
	rows, domain := 4000, 200
	t := &dataset.Table{Name: "power", PKCol: -1}
	base := make([]float64, rows)
	v := float64(domain) / 2
	for i := range base {
		v += rng.NormFloat64() * 4 // random walk, strongly autocorrelated
		if v < 1 {
			v = 1
		}
		if v > float64(domain) {
			v = float64(domain)
		}
		base[i] = v
	}
	for c := 0; c < 6; c++ {
		data := make([]int64, rows)
		scale := 0.5 + rng.Float64()
		for i := range data {
			x := base[i]*scale + rng.NormFloat64()*3
			iv := int64(math.Round(x))
			if iv < 1 {
				iv = 1
			}
			if iv > int64(domain) {
				iv = int64(domain)
			}
			data[i] = iv
		}
		t.Cols = append(t.Cols, dataset.NewColumn(fmt.Sprintf("col%d", c), data))
	}
	return &dataset.Dataset{Name: "power", Tables: []*dataset.Table{t}}
}

// Split implements the paper's IMDB-20/STATS-20 protocol: derive n testing
// sub-datasets from a source dataset by (1) randomly selecting 1..maxTables
// joined tables with their join keys, and (2) randomly keeping 1-2 non-key
// columns per chosen table. Each split is a self-contained Dataset.
func Split(src *dataset.Dataset, n, maxTables int, seed int64) []*dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*dataset.Dataset, 0, n)
	adj := src.JoinGraphAdjacency()
	for s := 0; s < n; s++ {
		want := 1 + rng.Intn(maxTables)
		// Grow a connected set of tables through the FK graph.
		start := rng.Intn(len(src.Tables))
		chosen := map[int]bool{start: true}
		var chosenFKs []int
		frontier := []int{start}
		for len(chosen) < want && len(frontier) > 0 {
			ti := frontier[rng.Intn(len(frontier))]
			var candidates []int
			for _, fki := range adj[ti] {
				fk := src.FKs[fki]
				other := fk.FromTable
				if other == ti {
					other = fk.ToTable
				}
				if !chosen[other] {
					candidates = append(candidates, fki)
				}
			}
			if len(candidates) == 0 {
				// Remove exhausted frontier node.
				for i, f := range frontier {
					if f == ti {
						frontier = append(frontier[:i], frontier[i+1:]...)
						break
					}
				}
				continue
			}
			fki := candidates[rng.Intn(len(candidates))]
			fk := src.FKs[fki]
			other := fk.FromTable
			if other == ti {
				other = fk.ToTable
			}
			chosen[other] = true
			chosenFKs = append(chosenFKs, fki)
			frontier = append(frontier, other)
		}

		sub := &dataset.Dataset{Name: fmt.Sprintf("%s-split%02d", src.Name, s)}
		// Map source table index -> new index, and per table the kept
		// column indexes (key columns demanded by the chosen FKs plus 1-2
		// random non-key columns).
		tmap := map[int]int{}
		colmaps := map[int]map[int]int{}
		keep := map[int]map[int]bool{}
		// Chosen tables in index order: the column draws below consume the
		// RNG per table, so map order would make the split irreproducible.
		order := make([]int, 0, len(chosen))
		for ti := range chosen {
			order = append(order, ti)
			keep[ti] = map[int]bool{}
		}
		sort.Ints(order)
		for _, fki := range chosenFKs {
			fk := src.FKs[fki]
			keep[fk.FromTable][fk.FromCol] = true
			keep[fk.ToTable][fk.ToCol] = true
		}
		for _, ti := range order {
			t := src.Tables[ti]
			if t.PKCol >= 0 {
				keep[ti][t.PKCol] = true
			}
			nonKey := t.NonKeyCols()
			rng.Shuffle(len(nonKey), func(i, j int) { nonKey[i], nonKey[j] = nonKey[j], nonKey[i] })
			take := 1 + rng.Intn(2)
			for i := 0; i < take && i < len(nonKey); i++ {
				keep[ti][nonKey[i]] = true
			}
		}
		for _, ti := range order {
			st := src.Tables[ti]
			nt := &dataset.Table{Name: st.Name, PKCol: -1}
			colmap := map[int]int{}
			for ci, c := range st.Cols {
				if keep[ti][ci] {
					colmap[ci] = len(nt.Cols)
					nt.Cols = append(nt.Cols, c)
				}
			}
			if st.PKCol >= 0 {
				if nc, ok := colmap[st.PKCol]; ok {
					nt.PKCol = nc
				}
			}
			tmap[ti] = len(sub.Tables)
			sub.Tables = append(sub.Tables, nt)
			colmaps[ti] = colmap
		}
		for _, fki := range chosenFKs {
			fk := src.FKs[fki]
			sub.FKs = append(sub.FKs, dataset.ForeignKey{
				FromTable: tmap[fk.FromTable], FromCol: colmaps[fk.FromTable][fk.FromCol],
				ToTable: tmap[fk.ToTable], ToCol: colmaps[fk.ToTable][fk.ToCol],
			})
		}
		out = append(out, sub)
	}
	return out
}
