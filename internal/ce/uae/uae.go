// Package uae implements a hybrid estimator in the style of UAE (Wu &
// Cong, SIGMOD 2021), the paper's baseline (7): a deep autoregressive data
// model unified with query-driven learning. The data side reuses the
// NeuroCard MADE network; the query side trains a small residual network on
// the labeled training queries to correct the autoregressive estimate —
// the pure-Go stand-in for UAE's differentiable progressive sampling
// (Gumbel-Softmax), which lets query supervision reach the density model.
//
// Inference runs the full progressive-sampling loop plus the correction
// forward pass, making UAE marginally slower than NeuroCard, as in the
// paper's latency measurements.
package uae

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ce"
	"repro/internal/ce/neurocard"
	"repro/internal/nn"
	"repro/internal/workload"
)

func init() {
	// Registry rank 6: the paper's hybrid baseline (7).
	ce.Register(ce.Spec{
		Rank: 6, Name: "UAE", Kind: ce.Hybrid, Candidate: true, Concurrent: false,
		New: func(c ce.Config) ce.Model {
			cfg := DefaultConfig()
			if c.Fast {
				cfg.Epochs = 2
				cfg.Samples = 24
				cfg.CorrEpochs = 6
			}
			cfg.Seed = c.Seed + 15
			return New(cfg)
		},
	})
	gob.Register(&Model{})
}

// Config controls both training phases.
type Config struct {
	MaxBins int
	Hidden  int
	Epochs  int
	Batch   int
	LR      float64
	Samples int
	// CorrHidden and CorrEpochs control the query-residual network.
	CorrHidden int
	CorrEpochs int
	CorrLR     float64
	Seed       int64
}

// DefaultConfig returns the configuration used by the testbed.
func DefaultConfig() Config {
	return Config{
		MaxBins: 12, Hidden: 40, Epochs: 6, Batch: 32, LR: 5e-3, Samples: 48,
		CorrHidden: 16, CorrEpochs: 20, CorrLR: 5e-3, Seed: 5,
	}
}

// Model is a trained UAE estimator.
type Model struct {
	cfg    Config
	bounds *ce.ColBounds
	binner *ce.Binner
	slots  map[[2]int]int
	sizes  *ce.SubsetSizes
	made   *neurocard.Made

	enc  *workload.Encoder
	corr *nn.MLP

	degenerate bool
	scratch    ce.ScratchPool[estScratch]
}

// estScratch is the working memory of one estimate: the sampling side's
// query scratch, then the correction pass's encoding and layer buffers.
type estScratch struct {
	ce.QueryScratch
	x   []float64 // the query's flat encoding
	buf nn.InferBuf
}

// New returns an untrained model.
func New(cfg Config) *Model { return &Model{cfg: cfg} }

// Name implements ce.Estimator.
func (m *Model) Name() string { return "UAE" }

// arEstimate is the pure data-driven estimate (before correction).
func (m *Model) arEstimate(q *workload.Query) float64 {
	if m.degenerate {
		return 1
	}
	sc := m.scratch.Get()
	defer m.scratch.Put(sc)
	if !ce.QueryBinRanges(&sc.Ranges, m.binner, m.slots, q) {
		return 1
	}
	key := sc.SubsetKey(q.Tables)
	rng := neurocard.QueryStream(m.cfg.Seed, key, &sc.Ranges)
	p := neurocard.ProgressiveSample(m.made, &sc.Ranges, m.cfg.Samples, &rng)
	for _, pr := range sc.Ranges.Unresolved {
		p *= m.bounds.UniformSel(pr)
	}
	est := p * float64(m.sizes.Size(key, q.Tables))
	return workload.ClampCard(est)
}

// Fit implements ce.Model (hybrid: consumes Dataset, Sample, Queries, and
// the shared Sizes when provided): phase one fits the autoregressive data
// model; phase two fits the residual corrector on the labeled queries.
func (m *Model) Fit(in *ce.TrainInput) error {
	d, sample, train := in.Dataset, in.Sample, in.Queries
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
	m.made = neurocard.NewMade(rng, bins, m.cfg.Hidden)
	neurocard.TrainMade(m.made, rows, m.cfg.Epochs, m.cfg.Batch, m.cfg.LR, rng)

	if len(train) == 0 {
		return nil // degenerate to pure data-driven
	}
	m.enc = workload.NewEncoder(d)
	m.corr = nn.NewMLP(rng, []int{m.enc.Dim(), m.cfg.CorrHidden, 1}, nn.ActReLU, nn.ActNone)
	// Residual targets: log(true) - log(AR estimate), clamped to keep the
	// corrector from memorizing outliers.
	xs := make([][]float64, 0, len(train))
	ys := make([]float64, 0, len(train))
	for _, q := range train {
		ar := m.arEstimate(q)
		r := workload.LogCard(q.TrueCard) - math.Log1p(ar-1)
		if r > 4 {
			r = 4
		}
		if r < -4 {
			r = -4
		}
		xs = append(xs, m.enc.Encode(q))
		ys = append(ys, r)
	}
	opt := nn.NewAdam(m.corr.Params(), m.cfg.CorrLR)
	order := rng.Perm(len(xs))
	const batch = 16
	dim := m.enc.Dim()
	type batchTape struct {
		x       *nn.Tensor
		targets []float64
		tape    *nn.Tape
	}
	tapes := nn.NewBatchTapes(func(bsz int) *batchTape {
		x := nn.Zeros(bsz, dim)
		targets := make([]float64, bsz)
		return &batchTape{x: x, targets: targets, tape: nn.NewTape(nn.MSE(m.corr.Forward(x), targets))}
	})
	for epoch := 0; epoch < m.cfg.CorrEpochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += batch {
			end := start + batch
			if end > len(order) {
				end = len(order)
			}
			bt := tapes.For(end - start)
			for bi, i := range order[start:end] {
				copy(bt.x.V[bi*dim:(bi+1)*dim], xs[i])
				bt.targets[bi] = ys[i]
			}
			bt.tape.Forward()
			bt.tape.BackwardScalar()
			opt.Step()
		}
	}
	return nil
}

// Estimate implements ce.Estimator: AR estimate times the learned
// correction factor.
func (m *Model) Estimate(q *workload.Query) float64 {
	ar := m.arEstimate(q)
	if m.corr == nil {
		return ar
	}
	sc := m.scratch.Get()
	sc.x = m.enc.EncodeInto(sc.x, q)
	r := m.corr.Infer(&sc.buf, sc.x, 1)[0]
	m.scratch.Put(sc)
	if r > 4 {
		r = 4
	}
	if r < -4 {
		r = -4
	}
	est := ar * math.Exp(r)
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
	Made       *neurocard.Made
	Enc        *workload.Encoder
	Corr       *nn.MLP
	Degenerate bool
}

// GobEncode implements gob.GobEncoder (ce.Persistable).
func (m *Model) GobEncode() ([]byte, error) {
	st := &modelState{Cfg: m.cfg, Degenerate: m.degenerate}
	if !m.degenerate {
		if m.made == nil {
			return nil, fmt.Errorf("uae: cannot persist an untrained model")
		}
		st.Bounds, st.Binner, st.Slots, st.Sizes = m.bounds, m.binner, m.slots, m.sizes
		st.Made, st.Enc, st.Corr = m.made, m.enc, m.corr
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(st)
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder (ce.Persistable).
func (m *Model) GobDecode(data []byte) error {
	// The state holds maps (Slots, Sizes.Sizes): check their counts first.
	if err := ce.CheckGobCounts(data, &struct{ Degenerate bool }{}); err != nil {
		return fmt.Errorf("uae: %w", err)
	}
	var st modelState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("uae: decoding model: %w", err)
	}
	if err := neurocard.CheckSamples(st.Cfg.Samples); err != nil {
		return fmt.Errorf("uae: %w", err)
	}
	if !st.Degenerate {
		if err := neurocard.CheckParts(st.Bounds, st.Binner, st.Slots, st.Sizes, st.Made); err != nil {
			return fmt.Errorf("uae: %w", err)
		}
	}
	if st.Corr != nil {
		if st.Enc == nil {
			return fmt.Errorf("uae: correction network has no query encoder")
		}
		if err := st.Corr.CheckShape(st.Enc.Dim(), 1); err != nil {
			return fmt.Errorf("uae: correction network: %w", err)
		}
	}
	m.cfg, m.bounds, m.binner, m.slots = st.Cfg, st.Bounds, st.Binner, st.Slots
	m.sizes, m.made, m.enc, m.corr = st.Sizes, st.Made, st.Enc, st.Corr
	m.degenerate = st.Degenerate
	return nil
}
