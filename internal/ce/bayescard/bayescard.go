// Package bayescard implements a Bayesian-network cardinality estimator in
// the style of BayesCard (Wu et al., 2020), the paper's data-driven
// baseline (5). The network structure is a Chow-Liu tree: the maximum
// spanning tree of the pairwise mutual-information graph over the binned
// join-sample columns. Conditional probability tables are estimated with
// Laplace smoothing, and range queries run exact belief propagation on the
// tree with interval evidence, marginalizing unqueried columns.
package bayescard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"slices"

	"repro/internal/ce"
	"repro/internal/workload"
)

func init() {
	// Registry rank 4: the paper's data-driven baseline (5). Belief
	// propagation is read-only, so inference is concurrent.
	ce.Register(ce.Spec{
		Rank: 4, Name: "BayesCard", Kind: ce.DataDriven, Candidate: true, Concurrent: true,
		New: func(ce.Config) ce.Model { return New(DefaultConfig()) },
	})
	gob.Register(&Model{})
}

// Config controls BN learning.
type Config struct {
	// MaxBins bounds per-column discretization.
	MaxBins int
	// Alpha is the Laplace smoothing pseudo-count.
	Alpha float64
}

// DefaultConfig returns the configuration used by the testbed.
func DefaultConfig() Config { return Config{MaxBins: 16, Alpha: 0.1} }

// Model is a trained Chow-Liu tree Bayesian network.
type Model struct {
	cfg    Config
	bounds *ce.ColBounds
	binner *ce.Binner
	slots  map[[2]int]int
	sizes  *ce.SubsetSizes

	parent []int // parent column per column, -1 for the root
	// prior[c][b] = P(c=b) for the root; cpt[c][pb*nbins(c)+b] =
	// P(c=b | parent(c)=pb) for non-roots.
	prior [][]float64
	cpt   [][]float64
	// children[c] lists c's children in the tree.
	children [][]int
	root     int

	degenerate bool
	scratch    ce.ScratchPool[bpScratch]
}

// New returns an untrained model.
func New(cfg Config) *Model { return &Model{cfg: cfg} }

// Name implements ce.Estimator.
func (m *Model) Name() string { return "BayesCard" }

// Fit implements ce.Model (data-driven: consumes Dataset, Sample, and the
// shared Sizes when provided).
func (m *Model) Fit(in *ce.TrainInput) error {
	d, sample := in.Dataset, in.Sample
	if len(sample.Rows) == 0 {
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
	k := len(sample.Cols)

	// Pairwise mutual information.
	mi := make([][]float64, k)
	for i := range mi {
		mi[i] = make([]float64, k)
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			v := pairMI(rows, i, j, m.binner.NumBins(i), m.binner.NumBins(j))
			mi[i][j], mi[j][i] = v, v
		}
	}

	// Maximum spanning tree via Prim's algorithm.
	m.root = 0
	m.parent = make([]int, k)
	inTree := make([]bool, k)
	best := make([]float64, k)
	from := make([]int, k)
	for i := range best {
		best[i] = -1
		from[i] = -1
		m.parent[i] = -1
	}
	inTree[m.root] = true
	for j := 0; j < k; j++ {
		if j != m.root {
			best[j] = mi[m.root][j]
			from[j] = m.root
		}
	}
	for added := 1; added < k; added++ {
		pick, pickVal := -1, -1.0
		for j := 0; j < k; j++ {
			if !inTree[j] && best[j] > pickVal {
				pick, pickVal = j, best[j]
			}
		}
		if pick == -1 {
			break
		}
		inTree[pick] = true
		m.parent[pick] = from[pick]
		for j := 0; j < k; j++ {
			if !inTree[j] && mi[pick][j] > best[j] {
				best[j] = mi[pick][j]
				from[j] = pick
			}
		}
	}
	m.children = make([][]int, k)
	for c := 0; c < k; c++ {
		if p := m.parent[c]; p >= 0 {
			m.children[p] = append(m.children[p], c)
		}
	}

	// Parameter estimation with Laplace smoothing.
	m.prior = make([][]float64, k)
	m.cpt = make([][]float64, k)
	n := float64(len(rows))
	for c := 0; c < k; c++ {
		nb := m.binner.NumBins(c)
		if m.parent[c] == -1 {
			pr := make([]float64, nb)
			for _, r := range rows {
				pr[r[c]]++
			}
			for b := range pr {
				pr[b] = (pr[b] + m.cfg.Alpha) / (n + m.cfg.Alpha*float64(nb))
			}
			m.prior[c] = pr
			continue
		}
		p := m.parent[c]
		np := m.binner.NumBins(p)
		counts := make([]float64, np*nb)
		pcounts := make([]float64, np)
		for _, r := range rows {
			counts[r[p]*nb+r[c]]++
			pcounts[r[p]]++
		}
		tbl := make([]float64, np*nb)
		for pb := 0; pb < np; pb++ {
			for b := 0; b < nb; b++ {
				tbl[pb*nb+b] = (counts[pb*nb+b] + m.cfg.Alpha) /
					(pcounts[pb] + m.cfg.Alpha*float64(nb))
			}
		}
		m.cpt[c] = tbl
	}
	return nil
}

func pairMI(rows [][]int, a, b, na, nb int) float64 {
	joint := make([]float64, na*nb)
	pa := make([]float64, na)
	pb := make([]float64, nb)
	n := float64(len(rows))
	for _, r := range rows {
		joint[r[a]*nb+r[b]]++
		pa[r[a]]++
		pb[r[b]]++
	}
	var mi float64
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			pij := joint[i*nb+j]
			if pij == 0 {
				continue
			}
			mi += pij / n * math.Log(pij*n/(pa[i]*pb[j]))
		}
	}
	return mi
}

// bpScratch is the working memory of one estimate: the query's bin
// ranges and the message pass's per-column buffers.
type bpScratch struct {
	ce.QueryScratch
	factor [][]float64 // per column c: the product of its children's messages, by bin of c
	msg    [][]float64 // per non-root column c: its message, by bin of c's parent
}

// evidenceProb returns P(evidence) for the ranges in sc by an upward
// message pass on the tree; columns without a range are unconstrained.
func (m *Model) evidenceProb(sc *bpScratch) float64 {
	if len(sc.factor) != len(m.parent) {
		sc.factor = make([][]float64, len(m.parent))
		sc.msg = make([][]float64, len(m.parent))
	}
	return m.up(m.root, sc)
}

// up passes column c's subtree. A non-root c leaves in sc.msg[c], for
// each bin of c's parent, the probability of the evidence in c's subtree
// given that bin; the root returns the total probability.
func (m *Model) up(c int, sc *bpScratch) float64 {
	nb := m.binner.NumBins(c)
	lo, hi := 0, nb-1
	if r, ok := sc.Ranges.Range(c); ok {
		lo, hi = r[0], min(r[1], nb-1)
	}
	sc.factor[c] = resize(sc.factor[c], nb)
	factor := sc.factor[c]
	for b := range factor {
		factor[b] = 1
	}
	for _, ch := range m.children[c] {
		m.up(ch, sc)
		for b, v := range sc.msg[ch][:nb] {
			factor[b] *= v
		}
	}
	if m.parent[c] == -1 {
		total := 0.0
		for b := lo; b <= hi; b++ {
			total += m.prior[c][b] * factor[b]
		}
		return total
	}
	np := m.binner.NumBins(m.parent[c])
	sc.msg[c] = resize(sc.msg[c], np)
	for pb := range sc.msg[c] {
		cpt := m.cpt[c][pb*nb : (pb+1)*nb]
		var s float64
		for b := lo; b <= hi; b++ {
			s += cpt[b] * factor[b]
		}
		sc.msg[c][pb] = s
	}
	return 0
}

// resize returns s with length n, reallocated when its capacity is short.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
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
	p := m.evidenceProb(sc)
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

// modelState is the gob form of a trained model.
type modelState struct {
	Cfg        Config
	Bounds     *ce.ColBounds
	Binner     *ce.Binner
	Slots      map[[2]int]int
	Sizes      *ce.SubsetSizes
	Parent     []int
	Prior      [][]float64
	CPT        [][]float64
	Children   [][]int
	Root       int
	Degenerate bool
}

// GobEncode implements gob.GobEncoder (ce.Persistable).
func (m *Model) GobEncode() ([]byte, error) {
	if !m.degenerate && m.binner == nil {
		return nil, fmt.Errorf("bayescard: cannot persist an untrained model")
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&modelState{
		Cfg: m.cfg, Bounds: m.bounds, Binner: m.binner, Slots: m.slots, Sizes: m.sizes,
		Parent: m.parent, Prior: m.prior, CPT: m.cpt, Children: m.children,
		Root: m.root, Degenerate: m.degenerate,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder (ce.Persistable).
func (m *Model) GobDecode(data []byte) error {
	// The state holds maps (Slots, Sizes.Sizes): check their counts first.
	if err := ce.CheckGobCounts(data, &struct{ Degenerate bool }{}); err != nil {
		return fmt.Errorf("bayescard: %w", err)
	}
	var st modelState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("bayescard: decoding model: %w", err)
	}
	if !st.Degenerate {
		if err := st.check(); err != nil {
			return fmt.Errorf("bayescard: %w", err)
		}
	}
	m.cfg, m.bounds, m.binner, m.slots, m.sizes = st.Cfg, st.Bounds, st.Binner, st.Slots, st.Sizes
	m.parent, m.prior, m.cpt, m.children = st.Parent, st.Prior, st.CPT, st.Children
	m.root, m.degenerate = st.Root, st.Degenerate
	return nil
}

// check reports an error unless a trained model's parts agree
// (ce.CheckDataParts) and its state is one Chow-Liu tree over the binned
// columns: children lists that match the parents and
// reach every column once from the root (so the message pass ends), and
// a prior or conditional table of the right size at every column.
func (st *modelState) check() error {
	if err := ce.CheckDataParts(st.Bounds, st.Binner, st.Slots, st.Sizes); err != nil {
		return err
	}
	n := len(st.Binner.Edges)
	if n == 0 || len(st.Parent) != n || len(st.Prior) != n || len(st.CPT) != n || len(st.Children) != n {
		return fmt.Errorf("tree tables do not cover the %d binned columns", n)
	}
	if st.Root < 0 || st.Root >= n || st.Parent[st.Root] != -1 {
		return fmt.Errorf("root %d is not a parentless column", st.Root)
	}
	seen := make([]bool, n)
	seen[st.Root] = true
	stack := []int{st.Root}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nb := st.Binner.NumBins(c)
		if c == st.Root && len(st.Prior[c]) != nb {
			return fmt.Errorf("root prior has %d entries for %d bins", len(st.Prior[c]), nb)
		}
		if p := st.Parent[c]; c != st.Root && len(st.CPT[c]) != st.Binner.NumBins(p)*nb {
			return fmt.Errorf("column %d's table has %d entries for %dx%d bins", c, len(st.CPT[c]), st.Binner.NumBins(p), nb)
		}
		for _, ch := range st.Children[c] {
			if ch < 0 || ch >= n || seen[ch] || st.Parent[ch] != c {
				return fmt.Errorf("column %d lists child %d, which is not its own", c, ch)
			}
			seen[ch] = true
			stack = append(stack, ch)
		}
	}
	if slices.Contains(seen, false) {
		return fmt.Errorf("the tree does not reach every column from root %d", st.Root)
	}
	return nil
}
