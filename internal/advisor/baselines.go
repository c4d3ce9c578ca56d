package advisor

import (
	"math/rand"

	"repro/internal/ce"
	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/metrics"
	"repro/internal/testbed"
)

// Rule implements the paper's rule-based selection: data-driven models for
// single-table datasets, query-driven models for multi-table datasets,
// chosen at random within the class. The classes are derived from the
// registered candidate kinds, so a newly registered estimator joins its
// class automatically.
type Rule struct {
	rng *rand.Rand
}

// NewRule returns the rule-based selector.
func NewRule(seed int64) *Rule { return &Rule{rng: rand.New(rand.NewSource(seed))} }

// Name implements Selector.
func (r *Rule) Name() string { return "Rule" }

// Select implements Selector. The registry-derived class members are
// translated into candidate positions, the index space the returned
// selection shares with the label score vectors.
func (r *Rule) Select(t Target, _ float64) int {
	dataDriven := candidatePositions(ce.CandidateIndexesOfKind(ce.DataDriven))
	queryDriven := candidatePositions(ce.CandidateIndexesOfKind(ce.QueryDriven))
	if t.Dataset.NumTables() <= 1 {
		return dataDriven[r.rng.Intn(len(dataDriven))]
	}
	return queryDriven[r.rng.Intn(len(queryDriven))]
}

// candidatePositions maps registry indexes to candidate-set positions.
func candidatePositions(registryIdx []int) []int {
	out := make([]int, len(registryIdx))
	for i, ri := range registryIdx {
		out[i] = ce.CandidatePos(ri)
	}
	return out
}

// RawKNN implements the paper's Knn-based baseline: nearest neighbors on
// the raw (flattened, padded) feature graphs instead of the learned
// embeddings, labels averaged as in AutoCE's predictor.
type RawKNN struct {
	K       int
	samples []*TrainSample
	vecs    [][]float64
	maxN    int
	dim     int
}

// NewRawKNN builds the raw-feature KNN over the labeled corpus.
func NewRawKNN(samples []*TrainSample, k int) *RawKNN {
	r := &RawKNN{K: k, samples: samples}
	for _, s := range samples {
		if n := s.Graph.NumVertices(); n > r.maxN {
			r.maxN = n
		}
		if len(s.Graph.V) > 0 && len(s.Graph.V[0]) > r.dim {
			r.dim = len(s.Graph.V[0])
		}
	}
	for _, s := range samples {
		r.vecs = append(r.vecs, r.flatten(s.Graph))
	}
	return r
}

func (r *RawKNN) flatten(g *feature.Graph) []float64 {
	out := make([]float64, r.maxN*r.dim)
	for i, row := range g.V {
		if i >= r.maxN {
			break
		}
		copy(out[i*r.dim:], row)
	}
	return out
}

// Name implements Selector.
func (r *RawKNN) Name() string { return "Knn" }

// Select implements Selector.
func (r *RawKNN) Select(t Target, wa float64) int {
	x := r.flatten(t.Graph)
	type cand struct {
		idx  int
		dist float64
	}
	best := make([]cand, 0, r.K+1)
	for i, v := range r.vecs {
		d := metrics.EuclideanDistance(x, v)
		best = append(best, cand{i, d})
		for j := len(best) - 1; j > 0 && best[j].dist < best[j-1].dist; j-- {
			best[j], best[j-1] = best[j-1], best[j]
		}
		if len(best) > r.K {
			best = best[:r.K]
		}
	}
	if len(best) == 0 {
		return -1
	}
	dim := len(r.samples[0].Sa)
	avg := make([]float64, dim)
	for _, c := range best {
		sv := metrics.CombineScores(r.samples[c.idx].Sa, r.samples[c.idx].Se, wa)
		for j := range avg {
			avg[j] += sv[j]
		}
	}
	return metrics.ArgMax(avg)
}

// Sampling implements the paper's sampling-based online baseline: train
// and test every candidate model against a row sample of the target
// dataset, then pick the best performer under the requested weights. Its
// cost is a (reduced) candidate-only testbed run per selection, and its
// quality suffers from the variance the paper describes.
type Sampling struct {
	// Fraction of rows retained per table.
	Fraction float64
	// Testbed configuration for the sampled run.
	Cfg testbed.Config
}

// NewSampling returns the sampling baseline.
func NewSampling(fraction float64, cfg testbed.Config) *Sampling {
	return &Sampling{Fraction: fraction, Cfg: cfg}
}

// Name implements Selector.
func (s *Sampling) Name() string { return "Sampling" }

// Select implements Selector.
func (s *Sampling) Select(t Target, wa float64) int {
	return bestCandidate(SampleDataset(t.Dataset, s.Fraction, s.Cfg.Seed), s.Cfg, wa)
}

// LearningAll implements Figure 12's "learning-all" online method: a
// testbed run of every candidate on the complete dataset per selection —
// near-optimal quality at maximal cost.
type LearningAll struct {
	Cfg testbed.Config
}

// NewLearningAll returns the learning-all selector.
func NewLearningAll(cfg testbed.Config) *LearningAll { return &LearningAll{Cfg: cfg} }

// Name implements Selector.
func (l *LearningAll) Name() string { return "Learning-All" }

// Select implements Selector.
func (l *LearningAll) Select(t Target, wa float64) int {
	return bestCandidate(t.Dataset, l.Cfg, wa)
}

// bestCandidate labels the candidate set M on d and returns the best
// candidate under weight wa, or -1 when labeling fails. The label is the
// candidates' part of a full-registry run with the same cfg, so the pick
// is too.
func bestCandidate(d *dataset.Dataset, cfg testbed.Config, wa float64) int {
	p, err := testbed.PrepareCandidates(d, cfg)
	if err != nil {
		return -1
	}
	res, err := p.Run()
	if err != nil {
		return -1
	}
	return res.Label.BestModel(wa)
}

// SampleDataset returns a row-sampled copy of d: every table keeps a
// uniform fraction of its rows (at least 10). Referenced (PK) tables are
// sampled first and referencing tables prefer rows whose FK values survive
// in the sampled targets, so PK-FK joins stay non-empty — the same
// correlated-sampling discipline real sampling-based selection needs.
func SampleDataset(d *dataset.Dataset, fraction float64, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	out := &dataset.Dataset{Name: d.Name + "-sample", FKs: append([]dataset.ForeignKey(nil), d.FKs...)}
	out.Tables = make([]*dataset.Table, len(d.Tables))

	// Order tables so FK targets are sampled before their referencers.
	targets := map[int][]dataset.ForeignKey{}
	for _, fk := range d.FKs {
		targets[fk.FromTable] = append(targets[fk.FromTable], fk)
	}
	done := make([]bool, len(d.Tables))
	keptPK := make([]map[int64]bool, len(d.Tables))
	var order []int
	for len(order) < len(d.Tables) {
		progressed := false
		for ti := range d.Tables {
			if done[ti] {
				continue
			}
			ready := true
			for _, fk := range targets[ti] {
				if !done[fk.ToTable] && fk.ToTable != ti {
					ready = false
					break
				}
			}
			if ready {
				order = append(order, ti)
				done[ti] = true
				progressed = true
			}
		}
		if !progressed { // FK cycle: take the rest in index order
			for ti := range d.Tables {
				if !done[ti] {
					order = append(order, ti)
					done[ti] = true
				}
			}
		}
	}

	for _, ti := range order {
		t := d.Tables[ti]
		rows := t.Rows()
		keep := int(fraction * float64(rows))
		if keep < 10 {
			keep = 10
		}
		if keep > rows {
			keep = rows
		}
		// Prefer rows whose FK values survive in the sampled targets.
		var candidates []int
		for r := 0; r < rows; r++ {
			ok := true
			for _, fk := range targets[ti] {
				kept := keptPK[fk.ToTable]
				if kept == nil {
					continue
				}
				if !kept[t.Col(fk.FromCol).Data[r]] {
					ok = false
					break
				}
			}
			if ok {
				candidates = append(candidates, r)
			}
		}
		if len(candidates) == 0 {
			candidates = make([]int, rows)
			for r := range candidates {
				candidates[r] = r
			}
		}
		if keep > len(candidates) {
			keep = len(candidates)
		}
		rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
		idx := candidates[:keep]

		nt := &dataset.Table{Name: t.Name, PKCol: t.PKCol}
		for _, c := range t.Cols {
			data := make([]int64, keep)
			for i, r := range idx {
				data[i] = c.Data[r]
			}
			nt.Cols = append(nt.Cols, dataset.NewColumn(c.Name, data))
		}
		out.Tables[ti] = nt
		if t.PKCol >= 0 {
			kept := make(map[int64]bool, keep)
			for _, r := range idx {
				kept[t.Col(t.PKCol).Data[r]] = true
			}
			keptPK[ti] = kept
		}
	}
	return out
}
