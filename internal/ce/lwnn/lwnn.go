// Package lwnn implements the LW-NN estimator (Dutt et al., VLDB 2019): a
// lightweight fully connected network regressing log(1+cardinality) from a
// flat query encoding. Its defining property in the paper's experiments is
// extremely low inference latency (a single small forward pass), traded
// against accuracy on complex join distributions.
package lwnn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"

	"repro/internal/ce"
	"repro/internal/nn"
	"repro/internal/workload"
)

func init() {
	// Registry rank 1: the paper's query-driven baseline (2).
	ce.Register(ce.Spec{
		Rank: 1, Name: "LW-NN", Kind: ce.QueryDriven, Candidate: true, Concurrent: true,
		New: func(c ce.Config) ce.Model {
			cfg := DefaultConfig()
			if c.Fast {
				cfg.Epochs = 8
			}
			cfg.Seed = c.Seed + 12
			return New(cfg)
		},
	})
	gob.Register(&Model{})
}

// Config controls LW-NN training.
type Config struct {
	Hidden1, Hidden2 int
	Epochs           int
	LR               float64
	Seed             int64
}

// DefaultConfig returns the configuration used by the testbed. The network
// is deliberately small ("lightweight"), matching the original design.
func DefaultConfig() Config { return Config{Hidden1: 24, Hidden2: 12, Epochs: 30, LR: 5e-3, Seed: 2} }

// Model is a trained LW-NN estimator.
type Model struct {
	cfg Config
	enc *workload.Encoder
	net *nn.MLP

	scratch ce.ScratchPool[inferScratch]
}

// New returns an untrained LW-NN model.
func New(cfg Config) *Model { return &Model{cfg: cfg} }

// Name implements ce.Estimator.
func (m *Model) Name() string { return "LW-NN" }

// Fit implements ce.Model (query-driven: consumes Dataset and Queries).
// Queries are encoded once, and the minibatch training graph is recorded
// once per batch size and replayed every step (see nn.Tape).
func (m *Model) Fit(in *ce.TrainInput) error {
	train := in.Queries
	if len(train) == 0 {
		return fmt.Errorf("lwnn: empty training workload")
	}
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	m.enc = workload.NewEncoder(in.Dataset)
	dim := m.enc.Dim()
	m.net = nn.NewMLP(rng, []int{dim, m.cfg.Hidden1, m.cfg.Hidden2, 1}, nn.ActReLU, nn.ActNone)
	opt := nn.NewAdam(m.net.Params(), m.cfg.LR)

	xs := make([][]float64, len(train))
	ys := make([]float64, len(train))
	for i, q := range train {
		xs[i] = m.enc.Encode(q)
		ys[i] = workload.LogCard(q.TrueCard)
	}

	const batch = 16
	type batchTape struct {
		x       *nn.Tensor
		targets []float64
		tape    *nn.Tape
	}
	tapes := nn.NewBatchTapes(func(bsz int) *batchTape {
		x := nn.Zeros(bsz, dim)
		targets := make([]float64, bsz)
		return &batchTape{x: x, targets: targets, tape: nn.NewTape(nn.MSE(m.net.Forward(x), targets))}
	})
	order := rng.Perm(len(train))
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		// Cooperative cancellation checkpoint: abandon training between
		// epochs when the request deadline carried by the TrainInput fires.
		if err := in.Canceled(); err != nil {
			return err
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += batch {
			end := start + batch
			if end > len(order) {
				end = len(order)
			}
			bt := tapes.For(end - start)
			for bi, qi := range order[start:end] {
				copy(bt.x.V[bi*dim:(bi+1)*dim], xs[qi])
				bt.targets[bi] = ys[qi]
			}
			bt.tape.Forward()
			bt.tape.BackwardScalar()
			opt.Step()
		}
	}
	return nil
}

// Estimate implements ce.Estimator as a batch of one.
func (m *Model) Estimate(q *workload.Query) float64 {
	var est [1]float64
	m.estimateInto(est[:], []*workload.Query{q})
	return est[0]
}

// EstimateBatch implements ce.Estimator as one vectorized forward pass
// (estimateInto).
func (m *Model) EstimateBatch(qs []*workload.Query) []float64 {
	if len(qs) == 0 {
		return nil
	}
	ests := make([]float64, len(qs))
	m.estimateInto(ests, qs)
	return ests
}

// inferScratch is the working memory of one estimateInto call, pooled per
// model and grown to the largest batch it has served.
type inferScratch struct {
	x   []float64 // the batch's encodings, one row per query
	buf nn.InferBuf
}

// estimateInto writes the estimates of qs into dst: the batch is encoded
// into one matrix and the network runs once. The dense kernels compute
// each output row from its input row alone, so an estimate does not
// depend on the batch it rides in.
func (m *Model) estimateInto(dst []float64, qs []*workload.Query) {
	sc := m.scratch.Get()
	defer m.scratch.Put(sc)
	dim := m.enc.Dim()
	if cap(sc.x) < len(qs)*dim {
		sc.x = make([]float64, len(qs)*dim)
	}
	x := sc.x[:len(qs)*dim]
	for i, q := range qs {
		m.enc.EncodeInto(x[i*dim:(i+1)*dim], q)
	}
	out := m.net.Infer(&sc.buf, x, len(qs))
	for i := range dst {
		dst[i] = workload.ExpCard(out[i])
	}
}

// modelState is the gob form of a trained model.
type modelState struct {
	Cfg Config
	Enc *workload.Encoder
	Net *nn.MLP
}

// GobEncode implements gob.GobEncoder (ce.Persistable).
func (m *Model) GobEncode() ([]byte, error) {
	if m.net == nil {
		return nil, fmt.Errorf("lwnn: cannot persist an untrained model")
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&modelState{Cfg: m.cfg, Enc: m.enc, Net: m.net})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder (ce.Persistable).
func (m *Model) GobDecode(data []byte) error {
	var st modelState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("lwnn: decoding model: %w", err)
	}
	if st.Enc == nil {
		return fmt.Errorf("lwnn: model has no query encoder")
	}
	if err := st.Net.CheckShape(st.Enc.Dim(), 1); err != nil {
		return fmt.Errorf("lwnn: %w", err)
	}
	m.cfg, m.enc, m.net = st.Cfg, st.Enc, st.Net
	return nil
}
