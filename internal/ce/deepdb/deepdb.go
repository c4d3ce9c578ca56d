// Package deepdb implements a Sum-Product Network cardinality estimator in
// the style of DeepDB (Hilprecht et al., VLDB 2020), the paper's
// data-driven baseline (4). The SPN is learned over a sample of the full
// join: sum nodes split rows into clusters (k-means, k=2), product nodes
// split columns into (approximately) independent groups detected through
// pairwise mutual information, and leaves hold per-bin histograms. Range
// queries evaluate bottom-up with unqueried columns marginalized; the
// resulting join-space selectivity is scaled by the unfiltered size of the
// queried table subset.
package deepdb

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ce"
	"repro/internal/workload"
)

func init() {
	// Registry rank 3: the paper's data-driven baseline (4). SPN
	// evaluation is read-only, so inference is concurrent.
	ce.Register(ce.Spec{
		Rank: 3, Name: "DeepDB", Kind: ce.DataDriven, Candidate: true, Concurrent: true,
		New: func(c ce.Config) ce.Model {
			cfg := DefaultConfig()
			cfg.Seed = c.Seed + 13
			return New(cfg)
		},
	})
	gob.Register(&Model{})
}

// Config controls SPN learning.
type Config struct {
	// MaxBins bounds per-column discretization.
	MaxBins int
	// MinRows stops row clustering below this count.
	MinRows int
	// MITreshold is the mutual-information cutoff for declaring two
	// columns dependent.
	MIThreshold float64
	// MaxDepth bounds recursion.
	MaxDepth int
	Seed     int64
}

// DefaultConfig returns the configuration used by the testbed.
func DefaultConfig() Config {
	return Config{MaxBins: 16, MinRows: 96, MIThreshold: 0.08, MaxDepth: 8, Seed: 3}
}

type node interface {
	// prob returns the probability of the bin ranges (keyed by sample
	// column slot) under this node's scope; absent columns marginalize.
	prob(ranges *ce.BinRanges) float64
}

type leaf struct {
	col  int
	dist []float64
}

func (l *leaf) prob(ranges *ce.BinRanges) float64 {
	r, ok := ranges.Range(l.col)
	if !ok {
		return 1
	}
	var p float64
	for b := r[0]; b <= r[1] && b < len(l.dist); b++ {
		p += l.dist[b]
	}
	return p
}

type product struct{ children []node }

func (p *product) prob(ranges *ce.BinRanges) float64 {
	out := 1.0
	for _, c := range p.children {
		out *= c.prob(ranges)
	}
	return out
}

type sum struct {
	children []node
	weights  []float64
}

func (s *sum) prob(ranges *ce.BinRanges) float64 {
	var out float64
	for i, c := range s.children {
		out += s.weights[i] * c.prob(ranges)
	}
	return out
}

// Model is a trained DeepDB-style SPN estimator.
type Model struct {
	cfg    Config
	bounds *ce.ColBounds
	binner *ce.Binner
	slots  map[[2]int]int
	sizes  *ce.SubsetSizes
	root   node

	degenerate bool
	scratch    ce.ScratchPool[ce.QueryScratch]
}

// New returns an untrained model.
func New(cfg Config) *Model { return &Model{cfg: cfg} }

// Name implements ce.Estimator.
func (m *Model) Name() string { return "DeepDB" }

// Fit implements ce.Model (data-driven: consumes Dataset, Sample, and the
// shared Sizes when provided).
func (m *Model) Fit(in *ce.TrainInput) error {
	d, sample := in.Dataset, in.Sample
	if len(sample.Rows) == 0 {
		// Degenerate dataset (e.g. an aggressively sampled copy whose
		// full join is empty): fall back to an estimator that always
		// answers 1 rather than failing the whole labeling run.
		m.degenerate = true
		return nil
	}
	m.bounds = ce.NewColBounds(d)
	m.binner = ce.NewBinner(sample, m.cfg.MaxBins)
	m.slots = ce.ColSlots(sample)
	m.sizes = in.Sizes
	if m.sizes == nil {
		m.sizes = ce.ComputeSubsetSizes(d)
	}
	rows := m.binner.BinRows(sample)
	scope := make([]int, len(sample.Cols))
	for i := range scope {
		scope[i] = i
	}
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	m.root = m.build(rows, idx, scope, 0, rng)
	return nil
}

// build recursively constructs the SPN over the given row subset and
// column scope.
func (m *Model) build(rows [][]int, idx []int, scope []int, depth int, rng *rand.Rand) node {
	if len(scope) == 1 {
		return m.makeLeaf(rows, idx, scope[0])
	}
	if len(idx) < m.cfg.MinRows || depth >= m.cfg.MaxDepth {
		return m.factorize(rows, idx, scope)
	}
	// Try a product decomposition: connected components of the
	// dependence graph under pairwise mutual information.
	groups := m.independentGroups(rows, idx, scope)
	if len(groups) > 1 {
		p := &product{}
		for _, g := range groups {
			p.children = append(p.children, m.build(rows, idx, g, depth+1, rng))
		}
		return p
	}
	// Otherwise a sum decomposition: k-means (k=2) over the rows.
	left, right := kmeans2(rows, idx, scope, rng)
	if len(left) == 0 || len(right) == 0 {
		return m.factorize(rows, idx, scope)
	}
	n := float64(len(idx))
	return &sum{
		children: []node{
			m.build(rows, left, scope, depth+1, rng),
			m.build(rows, right, scope, depth+1, rng),
		},
		weights: []float64{float64(len(left)) / n, float64(len(right)) / n},
	}
}

// factorize returns a product of independent leaves over the scope — the
// base case that assumes independence within the fragment.
func (m *Model) factorize(rows [][]int, idx []int, scope []int) node {
	p := &product{}
	for _, c := range scope {
		p.children = append(p.children, m.makeLeaf(rows, idx, c))
	}
	return p
}

func (m *Model) makeLeaf(rows [][]int, idx []int, col int) *leaf {
	nb := m.binner.NumBins(col)
	dist := make([]float64, nb)
	for _, r := range idx {
		dist[rows[r][col]]++
	}
	// Laplace smoothing keeps zero-probability bins from zeroing out
	// conjunctions entirely.
	total := float64(len(idx)) + float64(nb)*0.1
	for b := range dist {
		dist[b] = (dist[b] + 0.1) / total
	}
	return &leaf{col: col, dist: dist}
}

// independentGroups partitions the scope into connected components of the
// MI-dependence graph; one component means no product split is possible.
func (m *Model) independentGroups(rows [][]int, idx []int, scope []int) [][]int {
	k := len(scope)
	adj := make([][]bool, k)
	for i := range adj {
		adj[i] = make([]bool, k)
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			mi := mutualInformation(rows, idx, scope[i], scope[j],
				m.binner.NumBins(scope[i]), m.binner.NumBins(scope[j]))
			if mi > m.cfg.MIThreshold {
				adj[i][j], adj[j][i] = true, true
			}
		}
	}
	seen := make([]bool, k)
	var groups [][]int
	for i := 0; i < k; i++ {
		if seen[i] {
			continue
		}
		var comp []int
		stack := []int{i}
		seen[i] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, scope[v])
			for w := 0; w < k; w++ {
				if adj[v][w] && !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		groups = append(groups, comp)
	}
	return groups
}

// mutualInformation estimates MI between two binned columns over idx.
func mutualInformation(rows [][]int, idx []int, a, b, na, nb int) float64 {
	joint := make([]float64, na*nb)
	pa := make([]float64, na)
	pb := make([]float64, nb)
	n := float64(len(idx))
	for _, r := range idx {
		va, vb := rows[r][a], rows[r][b]
		joint[va*nb+vb]++
		pa[va]++
		pb[vb]++
	}
	var mi float64
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			pij := joint[i*nb+j] / n
			if pij == 0 {
				continue
			}
			mi += pij * math.Log(pij*n*n/(pa[i]*pb[j]))
		}
	}
	return mi
}

// kmeans2 clusters rows (restricted to scope columns) into two groups.
func kmeans2(rows [][]int, idx []int, scope []int, rng *rand.Rand) (left, right []int) {
	k := len(scope)
	c0 := make([]float64, k)
	c1 := make([]float64, k)
	// k-means++-style init: a random first centroid, then the farthest
	// point as the second, so identical draws cannot collapse the split.
	i0 := idx[rng.Intn(len(idx))]
	for j, c := range scope {
		c0[j] = float64(rows[i0][c])
	}
	i1, best := i0, -1.0
	for _, r := range idx {
		var dist float64
		for j, c := range scope {
			d := float64(rows[r][c]) - c0[j]
			dist += d * d
		}
		if dist > best {
			i1, best = r, dist
		}
	}
	for j, c := range scope {
		c1[j] = float64(rows[i1][c])
	}
	assign := make([]bool, len(idx)) // true = cluster 1
	for iter := 0; iter < 8; iter++ {
		changed := false
		for p, r := range idx {
			var d0, d1 float64
			for j, c := range scope {
				v := float64(rows[r][c])
				d0 += (v - c0[j]) * (v - c0[j])
				d1 += (v - c1[j]) * (v - c1[j])
			}
			a := d1 < d0
			if a != assign[p] {
				assign[p] = a
				changed = true
			}
		}
		var n0, n1 float64
		s0 := make([]float64, k)
		s1 := make([]float64, k)
		for p, r := range idx {
			if assign[p] {
				n1++
				for j, c := range scope {
					s1[j] += float64(rows[r][c])
				}
			} else {
				n0++
				for j, c := range scope {
					s0[j] += float64(rows[r][c])
				}
			}
		}
		if n0 == 0 || n1 == 0 {
			break
		}
		for j := range scope {
			c0[j] = s0[j] / n0
			c1[j] = s1[j] / n1
		}
		if !changed {
			break
		}
	}
	for p, r := range idx {
		if assign[p] {
			right = append(right, r)
		} else {
			left = append(left, r)
		}
	}
	return left, right
}

// Estimate implements ce.Estimator.
func (m *Model) Estimate(q *workload.Query) float64 {
	if m.degenerate {
		return 1
	}
	sc := m.scratch.Get()
	defer m.scratch.Put(sc)
	if !ce.QueryBinRanges(&sc.Ranges, m.binner, m.slots, q) {
		return 1
	}
	p := m.root.prob(&sc.Ranges)
	// Predicates on key/FK columns (outside the join-space model) fall
	// back to uniform selectivity over the column range.
	for _, pr := range sc.Ranges.Unresolved {
		p *= m.bounds.UniformSel(pr)
	}
	est := p * float64(m.sizes.Size(sc.SubsetKey(q.Tables), q.Tables))
	return workload.ClampCard(est)
}

// EstimateBatch implements ce.Estimator with the shared parallel fan-out.
func (m *Model) EstimateBatch(qs []*workload.Query) []float64 {
	return ce.ParallelEstimates(m, qs)
}

// spnNode is the flattened gob form of one SPN node; children always
// precede their parent, and the last node is the root.
type spnNode struct {
	Kind     int // 0 leaf, 1 product, 2 sum
	Col      int
	Dist     []float64
	Children []int
	Weights  []float64
}

// flattenSPN serializes the node tree into post-order.
func flattenSPN(n node, out []spnNode) ([]spnNode, int) {
	switch t := n.(type) {
	case *leaf:
		out = append(out, spnNode{Kind: 0, Col: t.col, Dist: t.dist})
	case *product:
		var kids []int
		for _, c := range t.children {
			var ci int
			out, ci = flattenSPN(c, out)
			kids = append(kids, ci)
		}
		out = append(out, spnNode{Kind: 1, Children: kids})
	case *sum:
		var kids []int
		for _, c := range t.children {
			var ci int
			out, ci = flattenSPN(c, out)
			kids = append(kids, ci)
		}
		out = append(out, spnNode{Kind: 2, Children: kids, Weights: t.weights})
	}
	return out, len(out) - 1
}

// buildSPN reconstructs the node tree from its post-order flattening. A
// node may be the child of one parent only: evaluation walks a tree, so
// a shared child would be evaluated once per path to it.
func buildSPN(nodes []spnNode) (node, error) {
	built := make([]node, len(nodes))
	adopted := make([]bool, len(nodes))
	for i, sn := range nodes {
		children := func() ([]node, error) {
			out := make([]node, len(sn.Children))
			for j, ci := range sn.Children {
				if ci < 0 || ci >= i || adopted[ci] {
					return nil, fmt.Errorf("deepdb: SPN node %d references child %d", i, ci)
				}
				adopted[ci] = true
				out[j] = built[ci]
			}
			return out, nil
		}
		switch sn.Kind {
		case 0:
			built[i] = &leaf{col: sn.Col, dist: sn.Dist}
		case 1:
			kids, err := children()
			if err != nil {
				return nil, err
			}
			built[i] = &product{children: kids}
		case 2:
			kids, err := children()
			if err != nil {
				return nil, err
			}
			if len(sn.Weights) != len(kids) {
				return nil, fmt.Errorf("deepdb: SPN sum node %d has %d weights for %d children",
					i, len(sn.Weights), len(kids))
			}
			built[i] = &sum{children: kids, weights: sn.Weights}
		default:
			return nil, fmt.Errorf("deepdb: SPN node %d has unknown kind %d", i, sn.Kind)
		}
	}
	if len(built) == 0 {
		return nil, fmt.Errorf("deepdb: empty SPN")
	}
	return built[len(built)-1], nil
}

// modelState is the gob form of a trained model.
type modelState struct {
	Cfg        Config
	Bounds     *ce.ColBounds
	Binner     *ce.Binner
	Slots      map[[2]int]int
	Sizes      *ce.SubsetSizes
	Nodes      []spnNode
	Degenerate bool
}

// GobEncode implements gob.GobEncoder (ce.Persistable).
func (m *Model) GobEncode() ([]byte, error) {
	st := &modelState{
		Cfg: m.cfg, Bounds: m.bounds, Binner: m.binner, Slots: m.slots,
		Sizes: m.sizes, Degenerate: m.degenerate,
	}
	if m.degenerate {
		// A degenerate model carries no learned structure.
		st.Bounds, st.Binner, st.Sizes = nil, nil, nil
	} else if m.root == nil {
		return nil, fmt.Errorf("deepdb: cannot persist an untrained model")
	} else {
		st.Nodes, _ = flattenSPN(m.root, nil)
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(st)
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder (ce.Persistable).
func (m *Model) GobDecode(data []byte) error {
	// The state holds maps (Slots, Sizes.Sizes): check their counts first.
	if err := ce.CheckGobCounts(data, &struct{ Degenerate bool }{}); err != nil {
		return fmt.Errorf("deepdb: %w", err)
	}
	var st modelState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("deepdb: decoding model: %w", err)
	}
	m.cfg, m.bounds, m.binner, m.slots = st.Cfg, st.Bounds, st.Binner, st.Slots
	m.sizes, m.degenerate = st.Sizes, st.Degenerate
	m.root = nil
	if !st.Degenerate {
		if err := ce.CheckDataParts(st.Bounds, st.Binner, st.Slots, st.Sizes); err != nil {
			return fmt.Errorf("deepdb: %w", err)
		}
		root, err := buildSPN(st.Nodes)
		if err != nil {
			return err
		}
		m.root = root
	}
	return nil
}
