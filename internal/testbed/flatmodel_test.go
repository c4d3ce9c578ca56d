package testbed

import (
	"math"
	"sort"

	"repro/internal/ce"
	"repro/internal/workload"
)

// flatConfig controls FSPN learning.
type flatConfig struct {
	// MaxBins bounds per-column discretization.
	MaxBins int
	// MIThreshold is the mutual-information cutoff: column pairs above it
	// are forced into the same jointly-modeled group.
	MIThreshold float64
	// MaxGroupCols caps a joint group's width (joint histograms grow
	// exponentially in it).
	MaxGroupCols int
	// Alpha is the Laplace smoothing pseudo-count per joint cell.
	Alpha float64
}

// defaultFLATConfig returns the configuration the tests use.
func defaultFLATConfig() flatConfig {
	return flatConfig{MaxBins: 12, MIThreshold: 0.15, MaxGroupCols: 3, Alpha: 0.05}
}

// flatGroup is one jointly modeled column set: a sparse joint histogram over
// the group's bin tuples. The histogram is stored as parallel slices in
// sorted key order — not a map — so that prob's accumulation order (and
// with it the estimate's float rounding) is identical on every call and
// every run.
type flatGroup struct {
	cols  []int     // sample column slots, ascending
	keys  []string  // joint-histogram cell keys, sorted
	cnts  []float64 // cnts[i] is the count of keys[i]
	total float64
	// bins[i] is the bin count of cols[i], for smoothing volume.
	bins []int
}

// flatModel is an FSPN-style cardinality estimator in the spirit of FLAT
// (Zhu et al., VLDB 2021), the data-driven model the paper's related-work
// section highlights as one of the few that improve PostgreSQL
// end-to-end. FLAT's defining idea is to *factorize adaptively*: highly
// correlated attribute groups are modeled jointly (multi-dimensional
// histograms), weakly correlated groups are split with product nodes —
// avoiding both the SPN's deep sum hierarchies and the full joint's
// blow-up.
//
// It is not registered in the nine-model registry (which mirrors the
// paper's evaluation): it is the fixture of the extensibility test
// (TestPrepareModelsOnboardsFLAT), onboarded through PrepareModels exactly
// as the paper describes onboarding a newly emerged model. To promote a
// model like this into the zoo, add a ce.Register call in an init function
// (see any registered model package) and import the package from
// repro/internal/ce/zoo.
type flatModel struct {
	cfg    flatConfig
	bounds *ce.ColBounds
	binner *ce.Binner
	slots  map[[2]int]int
	sizes  *ce.SubsetSizes
	groups []*flatGroup

	degenerate bool
}

// newFLAT returns an untrained model.
func newFLAT(cfg flatConfig) *flatModel { return &flatModel{cfg: cfg} }

// Name implements ce.Estimator.
func (m *flatModel) Name() string { return "FLAT" }

// Fit implements ce.Model (data-driven: consumes Dataset, Sample, and the
// shared Sizes when provided).
func (m *flatModel) Fit(in *ce.TrainInput) error {
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

	// Group columns: union-find over high-MI pairs, respecting the group
	// width cap (widest pairs first would be ideal; simple order is fine
	// at our scale).
	parent := make([]int, k)
	size := make([]int, k)
	for i := range parent {
		parent[i] = i
		size[i] = 1
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if flatPairMI(rows, i, j, m.binner.NumBins(i), m.binner.NumBins(j)) < m.cfg.MIThreshold {
				continue
			}
			ri, rj := find(i), find(j)
			if ri == rj || size[ri]+size[rj] > m.cfg.MaxGroupCols {
				continue
			}
			parent[rj] = ri
			size[ri] += size[rj]
		}
	}
	members := map[int][]int{}
	for c := 0; c < k; c++ {
		r := find(c)
		members[r] = append(members[r], c)
	}
	// Assemble groups in ascending root order: m.groups' order decides the
	// product order in Estimate, and float products round differently under
	// reassociation — iterating the members map directly made two Fits on
	// identical input disagree in the last ulp.
	roots := make([]int, 0, len(members))
	for r := range members {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	for _, r := range roots {
		cols := members[r]
		g := &flatGroup{cols: cols}
		for _, c := range cols {
			g.bins = append(g.bins, m.binner.NumBins(c))
		}
		counts := map[string]float64{}
		for _, row := range rows {
			counts[flatGroupKey(row, cols)]++
			g.total++
		}
		g.keys = make([]string, 0, len(counts))
		for key := range counts {
			g.keys = append(g.keys, key)
		}
		sort.Strings(g.keys)
		g.cnts = make([]float64, len(g.keys))
		for i, key := range g.keys {
			g.cnts[i] = counts[key]
		}
		m.groups = append(m.groups, g)
	}
	return nil
}

func flatGroupKey(row []int, cols []int) string {
	key := make([]byte, 0, len(cols)*2)
	for _, c := range cols {
		key = append(key, byte(row[c]>>8), byte(row[c]))
	}
	return string(key)
}

// prob returns the probability of the bin ranges under one group,
// marginalizing unconstrained member columns: it sums the joint histogram
// over all cells whose constrained coordinates fall in range.
func (g *flatGroup) prob(ranges map[int][2]int, alpha float64) float64 {
	constrained := false
	for _, c := range g.cols {
		if _, ok := ranges[c]; ok {
			constrained = true
			break
		}
	}
	if !constrained {
		return 1
	}
	// Smoothing: total cell volume for Laplace correction.
	volume := 1.0
	for _, nb := range g.bins {
		volume *= float64(nb)
	}
	var hits float64
	for i, key := range g.keys {
		if g.keyInRanges(key, ranges) {
			hits += g.cnts[i]
		}
	}
	// Allowed-region volume for the smoothing mass.
	allowed := 1.0
	for i, c := range g.cols {
		if r, ok := ranges[c]; ok {
			w := float64(r[1] - r[0] + 1)
			if max := float64(g.bins[i]); w > max {
				w = max
			}
			allowed *= w
		} else {
			allowed *= float64(g.bins[i])
		}
	}
	return (hits + alpha*allowed) / (g.total + alpha*volume)
}

func (g *flatGroup) keyInRanges(key string, ranges map[int][2]int) bool {
	for i, c := range g.cols {
		bin := int(key[2*i])<<8 | int(key[2*i+1])
		if r, ok := ranges[c]; ok {
			if bin < r[0] || bin > r[1] {
				return false
			}
		}
	}
	return true
}

// Estimate implements ce.Estimator: product over group probabilities,
// scaled by the queried subset's unfiltered join size.
func (m *flatModel) Estimate(q *workload.Query) float64 {
	if m.degenerate {
		return 1
	}
	var br ce.BinRanges
	if !ce.QueryBinRanges(&br, m.binner, m.slots, q) {
		return 1
	}
	ranges := map[int][2]int{}
	for _, c := range br.Cols {
		ranges[c], _ = br.Range(c)
	}
	unresolved := br.Unresolved
	p := 1.0
	for _, g := range m.groups {
		p *= g.prob(ranges, m.cfg.Alpha)
	}
	for _, pr := range unresolved {
		p *= m.bounds.UniformSel(pr)
	}
	est := p * float64(m.sizes.Size([]byte(ce.SubsetKey(q.Tables)), q.Tables))
	if est < 1 {
		return 1
	}
	return est
}

// EstimateBatch implements ce.Estimator with the shared parallel fan-out
// (group evaluation is read-only).
func (m *flatModel) EstimateBatch(qs []*workload.Query) []float64 {
	return ce.ParallelEstimates(m, qs)
}

// NumGroups exposes the factorization width for tests.
func (m *flatModel) NumGroups() int { return len(m.groups) }

func flatPairMI(rows [][]int, a, b, na, nb int) float64 {
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
