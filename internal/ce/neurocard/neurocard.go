// Package neurocard implements a deep autoregressive cardinality estimator
// in the style of NeuroCard (Yang et al., VLDB 2021), the paper's
// data-driven baseline (6). A MADE-style masked network factorizes the
// joint distribution over the binned join-sample columns as
// P(x1..xn) = Π P(xi | x<i); range queries are answered with progressive
// sampling: draw S conditioned samples, accumulating the probability mass
// of the allowed bins column by column.
//
// The per-query sampling loop makes inference structurally the slowest of
// the model zoo — the property the paper's Figure 1(c) and Table V hinge
// on for NeuroCard and UAE.
package neurocard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ce"
	"repro/internal/nn"
	"repro/internal/workload"
)

func init() {
	// Registry rank 5: the paper's data-driven baseline (6).
	ce.Register(ce.Spec{
		Rank: 5, Name: "NeuroCard", Kind: ce.DataDriven, Candidate: true, Concurrent: false,
		New: func(c ce.Config) ce.Model {
			cfg := DefaultConfig()
			if c.Fast {
				cfg.Epochs = 2
				cfg.Samples = 24
			}
			cfg.Seed = c.Seed + 14
			return New(cfg)
		},
	})
	gob.Register(&Model{})
}

// Config controls training and progressive sampling.
type Config struct {
	MaxBins int // per-column discretization bound
	Hidden  int // hidden width of the masked network
	Epochs  int
	Batch   int
	LR      float64
	Samples int // progressive-sampling paths per query
	Seed    int64
}

// DefaultConfig returns the configuration used by the testbed.
func DefaultConfig() Config {
	return Config{MaxBins: 12, Hidden: 40, Epochs: 6, Batch: 32, LR: 5e-3, Samples: 48, Seed: 4}
}

// MaxSamples bounds the sampling paths a decoded model may ask for. Each
// ProgressiveSample call sizes its scratch at about Samples × (2·hidden +
// 2·bins) values and draws up to Samples numbers per column, so a corrupt
// count would cost every estimate that much memory and time; the registry
// configurations use 24 or 48.
const MaxSamples = 1 << 12

// CheckSamples reports an error unless a model may sample n paths per
// query: with none, an estimate would be 0/0.
func CheckSamples(n int) error {
	if n < 1 || n > MaxSamples {
		return fmt.Errorf("%d sampling paths per query, want 1 to %d", n, MaxSamples)
	}
	return nil
}

// CheckParts reports an error unless the parts of a decoded, trained
// sampling model are present and fit together (ce.CheckDataParts), and
// the network has one block per binned column with that column's bin
// count. UAE shares it.
func CheckParts(bounds *ce.ColBounds, binner *ce.Binner, slots map[[2]int]int, sizes *ce.SubsetSizes, made *Made) error {
	if err := ce.CheckDataParts(bounds, binner, slots, sizes); err != nil {
		return err
	}
	if made == nil || len(binner.Edges) != len(made.Bins) {
		return fmt.Errorf("%d binned columns lack a network with a block each", len(binner.Edges))
	}
	for j, b := range made.Bins {
		if binner.NumBins(j) != b {
			return fmt.Errorf("column %d has %d bins, its network block %d", j, binner.NumBins(j), b)
		}
	}
	return nil
}

// Made is a two-layer MADE network over concatenated one-hot column
// blocks; exported for reuse by the UAE hybrid estimator.
type Made struct {
	// Offsets[i] is the start of column i's block in the input/output.
	Offsets []int
	Bins    []int
	InDim   int

	W1, B1 *nn.Tensor
	W2, B2 *nn.Tensor
	mask1  []float64
	mask2  []float64

	// inf is the inference view of the trained weights, rebuilt whenever
	// they change and only read by ProgressiveSample; scratch pools the
	// per-call path buffers, so concurrent calls share nothing mutable.
	inf     *sampler
	scratch ce.ScratchPool[pathScratch]
}

// NewMade builds the masked network for the given per-column bin counts.
// Hidden-unit degrees are assigned round-robin over [0, ncols-1); input
// block of column c has degree c; output block of column c has degree c
// and is connected only to hidden units with degree < c, so column 0's
// logits depend on the bias alone and column i sees exactly columns < i.
func NewMade(rng *rand.Rand, bins []int, hidden int) *Made {
	m := &Made{Bins: bins}
	for _, b := range bins {
		m.Offsets = append(m.Offsets, m.InDim)
		m.InDim += b
	}
	m.W1 = nn.XavierParam(rng, m.InDim, hidden)
	m.B1 = nn.NewParam(1, hidden)
	m.W2 = nn.XavierParam(rng, hidden, m.InDim)
	m.B2 = nn.NewParam(1, m.InDim)
	m.buildMasks(hidden)
	m.inf = m.newSampler()
	return m
}

// buildMasks derives the autoregressive masks from Bins/Offsets/InDim —
// purely structural state, recomputed rather than serialized on decode.
func (m *Made) buildMasks(hidden int) {
	ncols := len(m.Bins)
	hDeg := make([]int, hidden)
	for h := range hDeg {
		if ncols > 1 {
			hDeg[h] = h % (ncols - 1) // degrees 0..ncols-2
		}
	}
	inDeg := make([]int, m.InDim)
	outDeg := make([]int, m.InDim)
	for c, off := range m.Offsets {
		for j := 0; j < m.Bins[c]; j++ {
			inDeg[off+j] = c
			outDeg[off+j] = c
		}
	}
	m.mask1 = make([]float64, m.InDim*hidden)
	for i := 0; i < m.InDim; i++ {
		for h := 0; h < hidden; h++ {
			if hDeg[h] >= inDeg[i] {
				m.mask1[i*hidden+h] = 1
			}
		}
	}
	m.mask2 = make([]float64, hidden*m.InDim)
	for h := 0; h < hidden; h++ {
		for o := 0; o < m.InDim; o++ {
			if outDeg[o] > hDeg[h] {
				m.mask2[h*m.InDim+o] = 1
			}
		}
	}
}

// madeState is the gob form of a Made network: the weights plus the bin
// layout; offsets and masks are rebuilt on decode.
type madeState struct {
	Bins           []int
	W1, B1, W2, B2 *nn.Tensor
}

// GobEncode implements gob.GobEncoder.
func (m *Made) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&madeState{
		Bins: m.Bins, W1: m.W1, B1: m.B1, W2: m.W2, B2: m.B2,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (m *Made) GobDecode(data []byte) error {
	var st madeState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("neurocard: decoding MADE: %w", err)
	}
	*m = Made{Bins: st.Bins, W1: st.W1, B1: st.B1, W2: st.W2, B2: st.B2}
	for _, b := range st.Bins {
		if b < 1 || b > math.MaxInt-m.InDim {
			return fmt.Errorf("neurocard: MADE column with %d bins", b)
		}
		m.Offsets = append(m.Offsets, m.InDim)
		m.InDim += b
	}
	// Every weight must match the layout before the masks are sized from
	// it: with at least one bin per column, W1's own values bound the
	// hidden width.
	if len(m.Bins) == 0 || m.W1 == nil || m.B1 == nil || m.W2 == nil || m.B2 == nil ||
		m.W1.R != m.InDim || m.W1.C < 1 || m.B1.R != 1 || m.B1.C != m.W1.C ||
		m.W2.R != m.W1.C || m.W2.C != m.InDim || m.B2.R != 1 || m.B2.C != m.InDim {
		return fmt.Errorf("neurocard: MADE weights do not match bin layout")
	}
	m.buildMasks(m.W1.C)
	m.inf = m.newSampler()
	return nil
}

// Forward returns the full logit matrix for a batch of one-hot rows.
func (m *Made) Forward(x *nn.Tensor) *nn.Tensor {
	h := nn.MaskedAffine(x, m.W1, m.B1, m.mask1, nn.ActReLU)
	return nn.MaskedAffine(h, m.W2, m.B2, m.mask2, nn.ActNone)
}

// Params returns the trainable tensors.
func (m *Made) Params() []*nn.Tensor { return []*nn.Tensor{m.W1, m.B1, m.W2, m.B2} }

// columnDist returns the softmax distribution of column c's logits given
// the (partially filled) one-hot input row, through the full network; the
// tests check the masks and training with it.
func (m *Made) columnDist(input []float64, c int) []float64 {
	logits := m.Forward(nn.FromRow(input))
	off, nb := m.Offsets[c], m.Bins[c]
	out := make([]float64, nb)
	maxv := math.Inf(-1)
	for j := 0; j < nb; j++ {
		if v := logits.V[off+j]; v > maxv {
			maxv = v
		}
	}
	var sum float64
	for j := 0; j < nb; j++ {
		e := math.Exp(logits.V[off+j] - maxv)
		out[j] = e
		sum += e
	}
	for j := range out {
		out[j] /= sum
	}
	return out
}

// Model is a trained NeuroCard-style estimator.
type Model struct {
	cfg    Config
	bounds *ce.ColBounds
	binner *ce.Binner
	slots  map[[2]int]int
	sizes  *ce.SubsetSizes
	made   *Made

	degenerate bool
	scratch    ce.ScratchPool[ce.QueryScratch]
}

// New returns an untrained model.
func New(cfg Config) *Model { return &Model{cfg: cfg} }

// Name implements ce.Estimator.
func (m *Model) Name() string { return "NeuroCard" }

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
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	rows := m.binner.BinRows(sample)

	bins := make([]int, len(sample.Cols))
	for j := range bins {
		bins[j] = m.binner.NumBins(j)
	}
	m.made = NewMade(rng, bins, m.cfg.Hidden)
	TrainMade(m.made, rows, m.cfg.Epochs, m.cfg.Batch, m.cfg.LR, rng)
	return nil
}

// TrainMade fits a Made network to binned rows by maximum likelihood
// (sum of per-column softmax cross-entropies). Exported for UAE.
//
// The training graph — two fused masked-affine layers plus the fused
// per-column cross-entropy — is recorded once per batch size and replayed
// every step; only the one-hot inputs and target bins are rewritten.
func TrainMade(made *Made, rows [][]int, epochs, batch int, lr float64, rng *rand.Rand) {
	defer func() { made.inf = made.newSampler() }() // weights changed
	opt := nn.NewAdam(made.Params(), lr)
	order := rng.Perm(len(rows))
	ncols := len(made.Bins)
	type batchTape struct {
		x       *nn.Tensor
		targets []int
		tape    *nn.Tape
	}
	tapes := nn.NewBatchTapes(func(bsz int) *batchTape {
		x := nn.Zeros(bsz, made.InDim)
		targets := make([]int, bsz*ncols)
		h := nn.MaskedAffine(x, made.W1, made.B1, made.mask1, nn.ActReLU)
		logits := nn.MaskedAffine(h, made.W2, made.B2, made.mask2, nn.ActNone)
		loss := nn.MadeCrossEntropy(logits, made.Offsets, made.Bins, targets)
		return &batchTape{x: x, targets: targets, tape: nn.NewTape(loss)}
	})
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += batch {
			end := start + batch
			if end > len(order) {
				end = len(order)
			}
			bt := tapes.For(end - start)
			for i := range bt.x.V {
				bt.x.V[i] = 0
			}
			for bi, ri := range order[start:end] {
				base := bi * made.InDim
				for c, b := range rows[ri] {
					bt.x.V[base+made.Offsets[c]+b] = 1
					bt.targets[bi*ncols+c] = b
				}
			}
			bt.tape.Forward()
			bt.tape.BackwardScalar()
			opt.Step()
		}
	}
}

// sampler is an allocation-light vectorized inference path for
// progressive sampling. A full Made.Forward per column rebuilds the whole
// autodiff graph and multiplies the entire masked network even though
// progressive sampling only ever (a) adds one observed one-hot input at a
// time and (b) reads one column block of logits. The sampler snapshots the
// masked weights once, maintains every path's hidden pre-activation
// incrementally as columns are observed, and advances all S sampling paths
// through a column together, so each column costs O(S·hidden·bins) with a
// zero-skip over the ReLU-sparse hidden units instead of S full network
// passes.
//
// A sampler reads frozen weights and is never written after it is built,
// so concurrent calls share it; each call's path state lives in a
// pathScratch.
type sampler struct {
	made    *Made
	hidden  int
	maxBins int
	w1m     []float64 // InDim×hidden, W1∘mask1
	// colUnits[c] lists the hidden units whose mask2 block for column c is
	// nonzero (units of autoregressive degree < c): the only units that
	// can move column c's logits. Column 0 has none by construction.
	colUnits [][]int
	// colW[c] packs column c's block of W2∘mask2 for its colUnits
	// contiguously: units × bins, the k-th unit's row at k·bins.
	colW [][]float64
}

// pathScratch is the working memory of one ProgressiveSample call, taken
// from the Made's pool and grown to the largest request it has served.
// Paths that have drawn the same bins so far form a prefix group: they
// share one pre-activation vector and one accumulated probability, so a
// group's column distribution, range mass and next pre-activation are
// computed once for all of its paths.
type pathScratch struct {
	pre   [2][]float64 // groups×hidden pre-activations: this column's, the next column's
	prob  [2][]float64 // per group: its paths' accumulated probability (0 = dead)
	dist  []float64    // groups×maxBins: each group's column distribution
	mass  []float64    // per group: its mass in this column (0: its paths draw nothing)
	child []int32      // groups×maxBins: (group, bin) → next column's group, -1 if none yet
	group []int32      // per path: its group (-1 = dead path)
	coef  []float64    // per hidden unit: an active unit's activation (columnDist)
	unit  []int32      // per hidden unit: that unit's row in colW (columnDist)
}

// newSampler snapshots the trained network for inference.
func (m *Made) newSampler() *sampler {
	hidden := m.W1.C
	s := &sampler{made: m, hidden: hidden}
	s.w1m = make([]float64, len(m.W1.V))
	for i, v := range m.W1.V {
		s.w1m[i] = v * m.mask1[i]
	}
	s.colUnits = make([][]int, len(m.Bins))
	s.colW = make([][]float64, len(m.Bins))
	for c, off := range m.Offsets {
		nb := m.Bins[c]
		for i := 0; i < hidden; i++ {
			if m.mask2[i*m.InDim+off] != 0 {
				s.colUnits[c] = append(s.colUnits[c], i)
				row := i*m.InDim + off
				for j := row; j < row+nb; j++ {
					s.colW[c] = append(s.colW[c], m.W2.V[j]*m.mask2[j])
				}
			}
		}
	}
	s.maxBins = 1
	for _, b := range m.Bins {
		s.maxBins = max(s.maxBins, b)
	}
	return s
}

// grow sizes the scratch for paths sampling paths of sampler s.
func (sc *pathScratch) grow(s *sampler, paths int) {
	if len(sc.group) < paths || len(sc.pre[0]) < paths*s.hidden || len(sc.dist) < paths*s.maxBins {
		for i := range sc.pre {
			sc.pre[i] = make([]float64, paths*s.hidden)
			sc.prob[i] = make([]float64, paths)
		}
		sc.dist = make([]float64, paths*s.maxBins)
		sc.mass = make([]float64, paths)
		sc.child = make([]int32, paths*s.maxBins)
		sc.group = make([]int32, paths)
	}
	if len(sc.coef) < s.hidden {
		sc.coef = make([]float64, s.hidden)
		sc.unit = make([]int32, s.hidden)
	}
}

// columnDist writes the softmax distribution of column c for the path
// whose pre-activations are pre into dist, returning dist[:bins]; coef
// and unit, hidden long each, are its scratch.
//
// Whether a hidden unit is active after the ReLU is close to a coin flip,
// so a branch on it mispredicts often. The active units are compacted
// without one instead: every unit is written and the count advances only
// past an active one. The skip test stays v <= 0, so NaN and -0 act as
// in a branch. Each logit then adds its active units' terms in unit
// order, four bins at a time, which gives the same sums bit for bit.
func (s *sampler) columnDist(pre, dist, coef []float64, unit []int32, c int) []float64 {
	off, nb := s.made.Offsets[c], s.made.Bins[c]
	n := 0
	for k, i := range s.colUnits[c] {
		v := pre[i]
		coef[n], unit[n] = v, int32(k)
		n += activeUnit(v)
	}
	coef, unit = coef[:n], unit[:n]
	w, b, out := s.colW[c], s.made.B2.V[off:off+nb], dist[:nb]
	j := 0
	for ; j+4 <= nb; j += 4 {
		a0, a1, a2, a3 := b[j], b[j+1], b[j+2], b[j+3]
		for k, v := range coef {
			r := w[int(unit[k])*nb+j:][:4]
			a0 += v * r[0]
			a1 += v * r[1]
			a2 += v * r[2]
			a3 += v * r[3]
		}
		out[j], out[j+1], out[j+2], out[j+3] = a0, a1, a2, a3
	}
	for ; j < nb; j++ {
		a := b[j]
		for k, v := range coef {
			a += v * w[int(unit[k])*nb+j]
		}
		out[j] = a
	}
	maxv := out[0]
	for _, v := range out[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for j, v := range out {
		e := math.Exp(v - maxv)
		out[j] = e
		sum += e
	}
	for j := range out {
		out[j] /= sum
	}
	return out
}

// activeUnit is 1 for a hidden pre-activation the ReLU passes and 0 for
// one it zeroes; it compiles to a flag set, not a branch.
func activeUnit(v float64) int {
	n := 1
	if v <= 0 {
		n = 0
	}
	return n
}

// ProgressiveSample estimates the probability of the bin ranges under the
// Made model with S sampling paths drawn from rng. Exported for UAE. All
// paths advance through the columns together on the Made's sampler, with
// path state in scratch from the Made's pool, so concurrent calls are
// safe.
//
// Paths that have drawn the same bins so far form a prefix group (all of
// column 0 is one), and each group's distribution, mass and next
// pre-activation are computed once. Paths still draw from rng one by one,
// in path order, so the estimate and rng's final state are those of
// sampling every path on its own.
func ProgressiveSample(made *Made, ranges *ce.BinRanges, samples int, rng *SplitMix64) float64 {
	if len(ranges.Cols) == 0 {
		return 1
	}
	lastQueried := ranges.Cols[len(ranges.Cols)-1]
	sp := made.inf
	sc := made.scratch.Get()
	defer made.scratch.Put(sc)
	sc.grow(sp, samples)
	h, mb := sp.hidden, sp.maxBins
	cur := 0
	copy(sc.pre[cur][:h], made.B1.V)
	sc.prob[cur][0] = 1
	groups := 1
	for p := 0; p < samples; p++ {
		sc.group[p] = 0
	}
	for c := 0; c <= lastQueried; c++ {
		r, queried := ranges.Range(c)
		pre, prob := sc.pre[cur], sc.prob[cur]
		for g := 0; g < groups; g++ {
			sc.mass[g] = 0
			if prob[g] == 0 {
				continue // dead group: a queried range had zero mass
			}
			dist := sp.columnDist(pre[g*h:(g+1)*h], sc.dist[g*mb:(g+1)*mb], sc.coef, sc.unit, c)
			mass := 1.0
			if queried {
				mass = 0
				for b := r[0]; b <= r[1] && b < len(dist); b++ {
					mass += dist[b]
				}
				if mass <= 0 {
					prob[g] = 0
					continue
				}
				prob[g] *= mass
			}
			sc.mass[g] = mass
		}
		// The last queried column's draws only advance the stream: nothing
		// conditions on them.
		last := c == lastQueried
		nb := made.Bins[c]
		loB, hiB := 0, nb-1
		if queried {
			loB, hiB = r[0], min(r[1], nb-1)
		}
		next := 1 - cur
		if !last {
			for i := range sc.child[:groups*mb] {
				sc.child[i] = -1
			}
		}
		ng := int32(0)
		for p := 0; p < samples; p++ {
			g := sc.group[p]
			if g < 0 {
				continue
			}
			if sc.mass[g] == 0 {
				sc.group[p] = -1
				continue
			}
			// Sample a bin from the group's (restricted) distribution.
			u := rng.Float64() * sc.mass[g]
			if last {
				continue
			}
			dist := sc.dist[int(g)*mb:][:nb]
			var acc float64
			pick := -1
			for b := loB; b <= hiB; b++ {
				acc += dist[b]
				if acc >= u {
					pick = b
					break
				}
			}
			if pick == -1 {
				pick = hiB
			}
			// Observe: the path joins the group that conditions on column c
			// taking bin pick, made on the first path to draw it.
			slot := &sc.child[int(g)*mb+pick]
			if *slot < 0 {
				*slot = ng
				parent := pre[int(g)*h:][:h]
				child := sc.pre[next][int(ng)*h:][:h]
				wrow := sp.w1m[(made.Offsets[c]+pick)*h:][:h]
				for i, v := range wrow {
					child[i] = parent[i] + v
				}
				sc.prob[next][ng] = prob[g]
				ng++
			}
			sc.group[p] = *slot
		}
		if !last {
			cur, groups = next, int(ng)
		}
	}
	var total float64
	for p := 0; p < samples; p++ {
		if g := sc.group[p]; g >= 0 {
			total += sc.prob[cur][g]
		}
	}
	return total / float64(samples)
}

// Estimate implements ce.Estimator via progressive sampling.
func (m *Model) Estimate(q *workload.Query) float64 {
	if m.degenerate {
		return 1
	}
	sc := m.scratch.Get()
	defer m.scratch.Put(sc)
	if !ce.QueryBinRanges(&sc.Ranges, m.binner, m.slots, q) {
		return 1
	}
	key := sc.SubsetKey(q.Tables)
	rng := QueryStream(m.cfg.Seed, key, &sc.Ranges)
	p := ProgressiveSample(m.made, &sc.Ranges, m.cfg.Samples, &rng)
	for _, pr := range sc.Ranges.Unresolved {
		p *= m.bounds.UniformSel(pr)
	}
	est := p * float64(m.sizes.Size(key, q.Tables))
	return workload.ClampCard(est)
}

// EstimateBatch implements ce.Estimator in parallel: each query draws its
// own sampling stream, so the batch is bit-identical to per-query calls.
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
	Made       *Made
	Degenerate bool
}

// GobEncode implements gob.GobEncoder (ce.Persistable). Sampling streams
// derive from the query alone, so there is no stream position to save.
func (m *Model) GobEncode() ([]byte, error) {
	st := &modelState{Cfg: m.cfg, Degenerate: m.degenerate}
	if !m.degenerate {
		if m.made == nil {
			return nil, fmt.Errorf("neurocard: cannot persist an untrained model")
		}
		st.Bounds, st.Binner, st.Slots, st.Sizes = m.bounds, m.binner, m.slots, m.sizes
		st.Made = m.made
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(st)
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder (ce.Persistable).
func (m *Model) GobDecode(data []byte) error {
	// The state holds maps (Slots, Sizes.Sizes): check their counts first.
	if err := ce.CheckGobCounts(data, &struct{ Degenerate bool }{}); err != nil {
		return fmt.Errorf("neurocard: %w", err)
	}
	var st modelState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("neurocard: decoding model: %w", err)
	}
	if err := CheckSamples(st.Cfg.Samples); err != nil {
		return fmt.Errorf("neurocard: %w", err)
	}
	if !st.Degenerate {
		if err := CheckParts(st.Bounds, st.Binner, st.Slots, st.Sizes, st.Made); err != nil {
			return fmt.Errorf("neurocard: %w", err)
		}
	}
	m.cfg, m.bounds, m.binner, m.slots = st.Cfg, st.Bounds, st.Binner, st.Slots
	m.sizes, m.made, m.degenerate = st.Sizes, st.Made, st.Degenerate
	return nil
}
