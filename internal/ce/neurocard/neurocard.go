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
	"sync"

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
	scratch sync.Pool
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
	w2m     []float64 // hidden×InDim, W2∘mask2
	// colUnits[c] lists the hidden units whose mask2 block for column c is
	// nonzero (units of autoregressive degree < c): the only units that
	// can move column c's logits. Column 0 has none by construction.
	colUnits [][]int
}

// pathScratch is the working memory of one ProgressiveSample call, taken
// from the Made's pool and grown to the largest request it has served.
type pathScratch struct {
	pre   []float64 // paths×hidden pre-activation accumulators
	dist  []float64 // per-column distribution scratch (max bins)
	pathP []float64 // paths accumulated probabilities (0 = dead path)
}

// newSampler snapshots the trained network for inference.
func (m *Made) newSampler() *sampler {
	hidden := m.W1.C
	s := &sampler{made: m, hidden: hidden}
	s.w1m = make([]float64, len(m.W1.V))
	for i, v := range m.W1.V {
		s.w1m[i] = v * m.mask1[i]
	}
	s.w2m = make([]float64, len(m.W2.V))
	for i, v := range m.W2.V {
		s.w2m[i] = v * m.mask2[i]
	}
	s.colUnits = make([][]int, len(m.Bins))
	for c, off := range m.Offsets {
		for i := 0; i < hidden; i++ {
			if m.mask2[i*m.InDim+off] != 0 {
				s.colUnits[c] = append(s.colUnits[c], i)
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
	if len(sc.pathP) < paths || len(sc.pre) < paths*s.hidden {
		sc.pre = make([]float64, paths*s.hidden)
		sc.pathP = make([]float64, paths)
	}
	if len(sc.dist) < s.maxBins {
		sc.dist = make([]float64, s.maxBins)
	}
}

// columnDist writes the softmax distribution of column c for the path
// whose pre-activations are pre into dist, returning dist[:bins].
func (s *sampler) columnDist(pre, dist []float64, c int) []float64 {
	off, nb := s.made.Offsets[c], s.made.Bins[c]
	out := dist[:nb]
	copy(out, s.made.B2.V[off:off+nb])
	for _, i := range s.colUnits[c] {
		v := pre[i]
		if v <= 0 {
			continue // ReLU: inactive hidden unit
		}
		wrow := s.w2m[i*s.made.InDim+off:][:nb]
		for j, wv := range wrow {
			out[j] += v * wv
		}
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

// ProgressiveSample estimates the probability of the bin ranges under the
// Made model with S sampling paths drawn from rng. Exported for UAE. All
// paths advance through the columns together on the Made's sampler, with
// path state in scratch from the Made's pool, so concurrent calls are
// safe.
func ProgressiveSample(made *Made, ranges map[int][2]int, samples int, rng *SplitMix64) float64 {
	lastQueried := -1
	for c := range ranges {
		if c > lastQueried {
			lastQueried = c
		}
	}
	if lastQueried == -1 {
		return 1
	}
	sp := made.inf
	sc, _ := made.scratch.Get().(*pathScratch)
	if sc == nil {
		sc = new(pathScratch)
	}
	defer made.scratch.Put(sc)
	sc.grow(sp, samples)
	for p := 0; p < samples; p++ {
		copy(sc.pre[p*sp.hidden:(p+1)*sp.hidden], made.B1.V)
		sc.pathP[p] = 1
	}
	for c := 0; c <= lastQueried; c++ {
		r, queried := ranges[c]
		for p := 0; p < samples; p++ {
			if sc.pathP[p] == 0 {
				continue // dead path: a queried range had zero mass
			}
			pre := sc.pre[p*sp.hidden : (p+1)*sp.hidden]
			dist := sp.columnDist(pre, sc.dist, c)
			var mass float64
			if queried {
				for b := r[0]; b <= r[1] && b < len(dist); b++ {
					mass += dist[b]
				}
				if mass <= 0 {
					sc.pathP[p] = 0
					continue
				}
				sc.pathP[p] *= mass
			} else {
				mass = 1
			}
			// Sample a bin from the (restricted) distribution.
			u := rng.Float64() * mass
			var acc float64
			pick := -1
			loB, hiB := 0, len(dist)-1
			if queried {
				loB, hiB = r[0], r[1]
				if hiB >= len(dist) {
					hiB = len(dist) - 1
				}
			}
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
			// Observe: condition the path on column c taking bin pick.
			wrow := sp.w1m[(made.Offsets[c]+pick)*sp.hidden:][:sp.hidden]
			for i, v := range wrow {
				pre[i] += v
			}
		}
	}
	var total float64
	for p := 0; p < samples; p++ {
		total += sc.pathP[p]
	}
	return total / float64(samples)
}

// Estimate implements ce.Estimator via progressive sampling.
func (m *Model) Estimate(q *workload.Query) float64 {
	if m.degenerate {
		return 1
	}
	ranges, ok, unresolved := ce.QueryBinRanges(m.binner, m.slots, q)
	if !ok {
		return 1
	}
	rng := QueryStream(m.cfg.Seed, q.Tables, ranges)
	p := ProgressiveSample(m.made, ranges, m.cfg.Samples, &rng)
	for _, pr := range unresolved {
		p *= m.bounds.UniformSel(pr)
	}
	est := p * float64(m.sizes.Size(q.Tables))
	if est < 1 {
		return 1
	}
	return est
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
	var st modelState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("neurocard: decoding model: %w", err)
	}
	m.cfg, m.bounds, m.binner, m.slots = st.Cfg, st.Bounds, st.Binner, st.Slots
	m.sizes, m.made, m.degenerate = st.Sizes, st.Made, st.Degenerate
	return nil
}
