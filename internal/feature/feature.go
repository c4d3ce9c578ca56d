// Package feature implements AutoCE's feature engineering (Section V-A):
// it extracts the CE-relevant data features of a dataset and models them as
// a feature graph whose vertices are tables and whose weighted edges are
// PK-FK joins.
//
// Vertex modeling follows the paper exactly: with m the maximum column
// count and k per-column features, every table becomes a vector of
// (k+m)*m + 2 features — k distribution features per column (skewness,
// kurtosis, standard deviation, mean deviation, range, domain size), an
// m×m column-to-column correlation block, and the table's row and column
// counts — padded with zeros for missing columns. Edge modeling stores the
// measured join correlation of each FK edge in an n×n matrix.
//
// Extraction reads every statistic through the dataset package's fused
// Summary/Stats engine: one cache-friendly sweep per table instead of
// per-feature passes, per-dataset distinct-set reuse for the edge
// weights, and a shared cache (dataset.StatsFor) so repeated
// extraction of the same dataset is nearly free. ExtractBatch fans the
// per-table summary builds of many datasets over par.For. Every feature
// is exact: the advisor's RCS is built from exact features, so a target
// is featurized the same way.
package feature

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/dataset"
	"repro/internal/par"
)

// K is the number of per-column distribution features.
const K = 6

// Config fixes the feature-graph geometry. MaxCols is the paper's m; it
// must be constant across a corpus so one graph encoder can consume every
// dataset.
type Config struct {
	// MaxCols is the padded per-table column budget m.
	MaxCols int
}

// DefaultConfig covers the synthetic and real-world-like corpora of this
// repository (tables never exceed 8 columns including keys).
func DefaultConfig() Config { return Config{MaxCols: 10} }

// VertexDim returns the per-vertex feature length (k+m)*m + 2.
func (c Config) VertexDim() int { return (K+c.MaxCols)*c.MaxCols + 2 }

// Graph is a feature graph: V is the n×VertexDim vertex matrix, E the
// n×n weighted adjacency (join correlation) matrix.
type Graph struct {
	Name string
	V    [][]float64
	E    [][]float64
}

// NumVertices returns the vertex (table) count.
func (g *Graph) NumVertices() int { return len(g.V) }

// Clone deep-copies the graph.
func (g *Graph) Clone() *Graph {
	ng := &Graph{Name: g.Name, V: make([][]float64, len(g.V)), E: make([][]float64, len(g.E))}
	for i, r := range g.V {
		ng.V[i] = append([]float64(nil), r...)
	}
	for i, r := range g.E {
		ng.E[i] = append([]float64(nil), r...)
	}
	return ng
}

// Extract builds the feature graph of a dataset. Tables with more than
// MaxCols columns contribute their first MaxCols columns; this never
// triggers for the corpora in this repository.
//
// Every statistic is read from the dataset's shared dataset.StatsFor
// view, which lives on d; callers that mutate d's data in place
// afterwards must call dataset.InvalidateStats.
func Extract(d *dataset.Dataset, cfg Config) (*Graph, error) {
	if cfg.MaxCols < 1 {
		return nil, fmt.Errorf("feature: MaxCols must be positive")
	}
	return extractWith(d, dataset.StatsFor(d), cfg)
}

// extractWith assembles the graph from a prepared statistics view.
func extractWith(d *dataset.Dataset, st *dataset.Stats, cfg Config) (*Graph, error) {
	m := cfg.MaxCols
	g := &Graph{Name: d.Name}
	for ti, t := range d.Tables {
		g.V = append(g.V, vertexFeatures(t, st.Summary(ti), m))
	}
	n := len(d.Tables)
	g.E = make([][]float64, n)
	for i := range g.E {
		g.E[i] = make([]float64, n)
	}
	corrs := st.FKCorrelations()
	for fi, fk := range d.FKs {
		// E[i][j] with i = PK side, j = FK side (paper's Edge Modeling);
		// mirrored so the GIN aggregation treats joins as undirected.
		g.E[fk.ToTable][fk.FromTable] = corrs[fi]
		g.E[fk.FromTable][fk.ToTable] = corrs[fi]
	}
	return g, nil
}

// vertexFeatures flattens one table into its (k+m)*m+2 vector.
func vertexFeatures(t *dataset.Table, sum *dataset.Summary, m int) []float64 {
	ncols := t.NumCols()
	if ncols > m {
		ncols = m
	}
	v := make([]float64, (K+m)*m+2)
	// Per-column distribution features, normalized into comparable scales:
	// skewness and kurtosis squashed with tanh, magnitudes log-compressed.
	for c := 0; c < ncols; c++ {
		st := &sum.Cols[c]
		base := c * K
		v[base+0] = math.Tanh(st.Skewness / 4)
		v[base+1] = math.Tanh(st.Kurtosis / 10)
		v[base+2] = math.Log1p(st.Std) / 10
		v[base+3] = math.Log1p(st.MeanDev) / 10
		v[base+4] = math.Log1p(st.Range) / 12
		v[base+5] = math.Log1p(float64(st.DomainSize)) / 12
	}
	// m×m column-to-column correlation block (the paper's positional
	// value-equality notion, symmetric, diagonal = 1).
	corrBase := K * m
	for a := 0; a < ncols; a++ {
		for b := 0; b < ncols; b++ {
			var corr float64
			if a == b {
				corr = 1
			} else {
				corr = sum.EqualFrac(a, b)
			}
			v[corrBase+a*m+b] = corr
		}
	}
	v[(K+m)*m] = math.Log1p(float64(t.Rows())) / 14
	v[(K+m)*m+1] = float64(t.NumCols()) / float64(m)
	return v
}

// ExtractBatch extracts the feature graphs of many datasets with every
// per-table summary build (and per-dataset FK-correlation pass) fanned
// over par.For with the given worker count (GOMAXPROCS when workers <= 0).
// The result is byte-identical to calling Extract per dataset, in order,
// and leaves each dataset's dataset.StatsFor view built.
func ExtractBatch(ds []*dataset.Dataset, cfg Config, workers int) ([]*Graph, error) {
	if cfg.MaxCols < 1 {
		return nil, fmt.Errorf("feature: MaxCols must be positive")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sts := make([]*dataset.Stats, len(ds))
	type job struct{ di, ti int } // ti == -1: FK correlations
	var jobs []job
	for di, d := range ds {
		sts[di] = dataset.StatsFor(d)
		for ti := range d.Tables {
			jobs = append(jobs, job{di, ti})
		}
		jobs = append(jobs, job{di, -1})
	}
	par.For(len(jobs), workers, func(i int) error {
		if j := jobs[i]; j.ti < 0 {
			sts[j.di].FKCorrelations()
		} else {
			sts[j.di].Summary(j.ti)
		}
		return nil
	})

	out := make([]*Graph, len(ds))
	for di, d := range ds {
		g, err := extractWith(d, sts[di], cfg)
		if err != nil {
			return nil, err
		}
		out[di] = g
	}
	return out, nil
}

// Mixup implements the paper's Eq. 14 data augmentation on feature graphs:
// an elementwise convex combination G' = λ·Gi + (1-λ)·Gj. Graphs of
// different vertex counts are zero-padded to the larger one, consistent
// with the vertex padding convention.
func Mixup(gi, gj *Graph, lambda float64) *Graph {
	if lambda < 0 {
		lambda = 0
	}
	if lambda > 1 {
		lambda = 1
	}
	n := len(gi.V)
	if len(gj.V) > n {
		n = len(gj.V)
	}
	dim := 0
	if len(gi.V) > 0 {
		dim = len(gi.V[0])
	} else if len(gj.V) > 0 {
		dim = len(gj.V[0])
	}
	out := &Graph{Name: gi.Name + "+mix"}
	out.V = make([][]float64, n)
	out.E = make([][]float64, n)
	for i := 0; i < n; i++ {
		out.V[i] = make([]float64, dim)
		out.E[i] = make([]float64, n)
		for f := 0; f < dim; f++ {
			var a, b float64
			if i < len(gi.V) {
				a = gi.V[i][f]
			}
			if i < len(gj.V) {
				b = gj.V[i][f]
			}
			out.V[i][f] = lambda*a + (1-lambda)*b
		}
		for j := 0; j < n; j++ {
			var a, b float64
			if i < len(gi.E) && j < len(gi.E) {
				a = gi.E[i][j]
			}
			if i < len(gj.E) && j < len(gj.E) {
				b = gj.E[i][j]
			}
			out.E[i][j] = lambda*a + (1-lambda)*b
		}
	}
	return out
}

// MixupLabels interpolates two label vectors with the same λ (Eq. 14).
func MixupLabels(yi, yj []float64, lambda float64) []float64 {
	if len(yi) != len(yj) {
		panic(fmt.Sprintf("feature: MixupLabels length mismatch %d vs %d", len(yi), len(yj)))
	}
	out := make([]float64, len(yi))
	for i := range yi {
		out[i] = lambda*yi[i] + (1-lambda)*yj[i]
	}
	return out
}
