// Package mscn implements the Multi-Set Convolutional Network estimator
// (Kipf et al., CIDR 2019), the paper's query-driven baseline (1). A query
// is represented as three sets — tables, joins, predicates — each element
// of which is embedded by a set-specific two-layer MLP; the embeddings are
// average-pooled per set, concatenated, and passed through an output MLP
// that regresses log(1+cardinality).
package mscn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/ce"
	"repro/internal/nn"
	"repro/internal/workload"
)

func init() {
	// Registry rank 0: the paper's query-driven baseline (1). Estimate is a
	// pure forward pass over frozen weights, so inference is concurrent.
	ce.Register(ce.Spec{
		Rank: 0, Name: "MSCN", Kind: ce.QueryDriven, Candidate: true, Concurrent: true,
		New: func(c ce.Config) ce.Model {
			cfg := DefaultConfig()
			if c.Fast {
				cfg.Epochs = 6
			}
			cfg.Seed = c.Seed + 11
			return New(cfg)
		},
	})
	gob.Register(&Model{})
}

// Config controls MSCN training.
type Config struct {
	Hidden int     // set-MLP and output-MLP hidden width
	Epochs int     // training epochs over the query set
	LR     float64 // Adam learning rate
	Seed   int64
}

// DefaultConfig returns the configuration used by the testbed. The
// learning rate is tuned for minibatch updates (trainBatch queries per
// Adam step) rather than the historical per-query stepping.
func DefaultConfig() Config { return Config{Hidden: 32, Epochs: 24, LR: 1e-2, Seed: 1} }

// trainBatch is the minibatch size of Fit.
const trainBatch = 8

// Model is a trained MSCN estimator for one dataset.
type Model struct {
	cfg Config
	enc *workload.Encoder

	tableMLP *nn.MLP
	joinMLP  *nn.MLP
	predMLP  *nn.MLP
	outMLP   *nn.MLP

	// Per-element input dims.
	tDim, jDim, pDim int

	scratch ce.ScratchPool[inferScratch]
}

// New returns an untrained MSCN model.
func New(cfg Config) *Model { return &Model{cfg: cfg} }

// Name implements ce.Estimator.
func (m *Model) Name() string { return "MSCN" }

func (m *Model) params() []*nn.Tensor {
	var out []*nn.Tensor
	out = append(out, m.tableMLP.Params()...)
	out = append(out, m.joinMLP.Params()...)
	out = append(out, m.predMLP.Params()...)
	out = append(out, m.outMLP.Params()...)
	return out
}

// querySets is the set representation of one query.
type querySets struct {
	tables []int        // table ids (one-hot rows of the table set)
	joins  []int        // FK-edge slots (one-hot rows of the join set)
	preds  [][3]float64 // (column slot, lo, hi) rows of the predicate set
	target float64
}

// extractSets overwrites s with q's set representation, decomposed from
// its flat encoding flat; training and inference share it. Table rows are
// one-hots over tables, join rows one-hots over FK edges, predicate rows
// (column one-hot, lo, hi).
func (m *Model) extractSets(s *querySets, flat []float64, q *workload.Query) {
	s.tables = append(s.tables[:0], q.Tables...)
	s.joins, s.preds = s.joins[:0], s.preds[:0]
	jBase := m.enc.TableDim()
	// Loop the encoder's true join width: on zero-FK datasets m.jDim is
	// padded to 1 for the MLP input, but flat has no join block there and
	// reading it would mistake the first predicate flag for a join.
	for fi := 0; fi < m.enc.JoinDim(); fi++ {
		if flat[jBase+fi] > 0 {
			s.joins = append(s.joins, fi)
		}
	}
	pBase := m.enc.TableDim() + m.enc.JoinDim()
	nCols := m.enc.PredDim() / 3
	for slot := 0; slot < nCols; slot++ {
		if flat[pBase+3*slot] > 0 {
			s.preds = append(s.preds, [3]float64{float64(slot), flat[pBase+3*slot+1], flat[pBase+3*slot+2]})
		}
	}
	s.target = workload.LogCard(q.TrueCard)
}

// batchShape keys a recorded minibatch graph: the batch size and the
// packed row count of each set matrix.
type batchShape struct{ bsz, tRows, jRows, pRows int }

// batchTape is the recorded minibatch training graph for one batch shape.
// The set matrices are packed: the queries' element rows follow each other
// in batch order, a query with an empty set contributing one zero row (the
// empty-set token), and the trailing rows of the rounded-up row count stay
// zero. The pooling matrices hold 1/count weights on each query's rows
// (weight 1 on its empty-set token) and zero elsewhere, so the pooled
// embeddings match per-query mean pooling exactly while the whole batch
// runs as three dense matrix multiplies.
type batchTape struct {
	xT, xJ, xP *nn.Tensor // packed set-element matrices
	pT, pJ, pP *nn.Tensor // constant pooling matrices (bsz × rows)
	targets    []float64
	tape       *nn.Tape
}

// roundRows rounds a packed row count up to a multiple of trainBatch, so
// a Fit records a handful of graph shapes rather than one per step.
func roundRows(n int) int { return (n + trainBatch - 1) / trainBatch * trainBatch }

// Fit implements ce.Model (query-driven: consumes Dataset and Queries):
// true minibatch training over packed set matrices, with the graph
// recorded once per batch shape and replayed on every step of that shape.
func (m *Model) Fit(in *ce.TrainInput) error {
	train := in.Queries
	if len(train) == 0 {
		return fmt.Errorf("mscn: empty training workload")
	}
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	m.enc = workload.NewEncoder(in.Dataset)
	m.tDim = m.enc.TableDim()
	m.jDim = m.enc.JoinDim()
	if m.jDim == 0 {
		m.jDim = 1
	}
	nCols := m.enc.PredDim() / 3
	m.pDim = nCols + 2
	h := m.cfg.Hidden
	m.tableMLP = nn.NewMLP(rng, []int{m.tDim, h, h}, nn.ActReLU, nn.ActReLU)
	m.joinMLP = nn.NewMLP(rng, []int{m.jDim, h, h}, nn.ActReLU, nn.ActReLU)
	m.predMLP = nn.NewMLP(rng, []int{m.pDim, h, h}, nn.ActReLU, nn.ActReLU)
	m.outMLP = nn.NewMLP(rng, []int{3 * h, h, 1}, nn.ActReLU, nn.ActNone)

	sets := make([]querySets, len(train))
	for qi, q := range train {
		m.extractSets(&sets[qi], m.enc.Encode(q), q)
	}

	build := func(sh batchShape) *batchTape {
		bt := &batchTape{
			xT:      nn.Zeros(sh.tRows, m.tDim),
			xJ:      nn.Zeros(sh.jRows, m.jDim),
			xP:      nn.Zeros(sh.pRows, m.pDim),
			pT:      nn.Zeros(sh.bsz, sh.tRows),
			pJ:      nn.Zeros(sh.bsz, sh.jRows),
			pP:      nn.Zeros(sh.bsz, sh.pRows),
			targets: make([]float64, sh.bsz),
		}
		tEmb := nn.MatMul(bt.pT, m.tableMLP.Forward(bt.xT))
		jEmb := nn.MatMul(bt.pJ, m.joinMLP.Forward(bt.xJ))
		pEmb := nn.MatMul(bt.pP, m.predMLP.Forward(bt.xP))
		pred := m.outMLP.Forward(nn.ConcatCols(tEmb, jEmb, pEmb))
		bt.tape = nn.NewTape(nn.MSE(pred, bt.targets))
		return bt
	}
	shapeOf := func(batch []int) batchShape {
		sh := batchShape{bsz: len(batch)}
		for _, qi := range batch {
			s := &sets[qi]
			sh.tRows += max(len(s.tables), 1)
			sh.jRows += max(len(s.joins), 1)
			sh.pRows += max(len(s.preds), 1)
		}
		sh.tRows, sh.jRows, sh.pRows = roundRows(sh.tRows), roundRows(sh.jRows), roundRows(sh.pRows)
		return sh
	}
	fill := func(bt *batchTape, batch []int) {
		for _, t := range []*nn.Tensor{bt.xT, bt.xJ, bt.xP, bt.pT, bt.pJ, bt.pP} {
			clear(t.V)
		}
		var tRow, jRow, pRow int
		for bi, qi := range batch {
			s := &sets[qi]
			for k, ti := range s.tables {
				bt.xT.V[(tRow+k)*m.tDim+ti] = 1
			}
			tRow = poolSet(bt.pT, bi, tRow, len(s.tables))
			for k, fi := range s.joins {
				bt.xJ.V[(jRow+k)*m.jDim+fi] = 1
			}
			jRow = poolSet(bt.pJ, bi, jRow, len(s.joins))
			for k, pr := range s.preds {
				row := (pRow + k) * m.pDim
				bt.xP.V[row+int(pr[0])] = 1
				bt.xP.V[row+nCols] = pr[1]
				bt.xP.V[row+nCols+1] = pr[2]
			}
			pRow = poolSet(bt.pP, bi, pRow, len(s.preds))
			bt.targets[bi] = s.target
		}
	}

	opt := nn.NewAdam(m.params(), m.cfg.LR)
	tapes := nn.NewBatchTapes(build)
	order := rng.Perm(len(train))
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		// Cooperative cancellation checkpoint: abandon training between
		// epochs when the request deadline carried by the TrainInput fires.
		if err := in.Canceled(); err != nil {
			return err
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += trainBatch {
			batch := order[start:min(start+trainBatch, len(order))]
			bt := tapes.For(shapeOf(batch))
			fill(bt, batch)
			bt.tape.Forward()
			bt.tape.BackwardScalar()
			opt.Step()
		}
	}
	return nil
}

// poolSet writes query bi's pooling weights for a set of cnt elements
// packed from row on: 1/cnt over its cnt rows, or weight 1 on one zero
// row when the set is empty — the empty-set token inference uses too.
// It returns the row after the query's last.
func poolSet(pool *nn.Tensor, bi, row, cnt int) int {
	if cnt == 0 {
		pool.V[bi*pool.C+row] = 1
		return row + 1
	}
	w := 1 / float64(cnt)
	for k := 0; k < cnt; k++ {
		pool.V[bi*pool.C+row+k] = w
	}
	return row + cnt
}

// Estimate implements ce.Estimator as a batch of one.
func (m *Model) Estimate(q *workload.Query) float64 {
	var est [1]float64
	m.estimateInto(est[:], []*workload.Query{q})
	return est[0]
}

// EstimateBatch implements ce.Estimator as one vectorized pass
// (estimateInto).
func (m *Model) EstimateBatch(qs []*workload.Query) []float64 {
	if len(qs) == 0 {
		return nil
	}
	ests := make([]float64, len(qs))
	m.estimateInto(ests, qs)
	return ests
}

// span is the rows one query's set occupies in a stacked set matrix.
type span struct{ start, n int }

// inferScratch is the working memory of one estimateInto call, pooled per
// model and grown to the largest batch it has served.
type inferScratch struct {
	flat       []float64
	sets       querySets
	xT, xJ, xP []float64 // stacked set-element matrices
	tS, jS, pS []span    // per query: its rows in each stack
	pooled     []float64 // len(qs)×3h pooled embeddings
	buf        nn.InferBuf
}

// estimateInto writes the estimates of qs into dst in one vectorized
// pass: every query's set elements are stacked into three shared
// matrices, each set MLP runs once over its stack, each query's rows are
// mean-pooled, and the output MLP runs once over the pooled batch. A set
// with no elements contributes one zero row, the empty-set token Fit
// trains with. Dense-kernel rows are computed independently and pooling
// sums rows in ascending order and then scales by the reciprocal count
// (meanInto), so an estimate does not depend on the batch it rides in.
func (m *Model) estimateInto(dst []float64, qs []*workload.Query) {
	sc := m.scratch.Get()
	defer m.scratch.Put(sc)
	nCols := m.pDim - 2
	sc.xT, sc.xJ, sc.xP = sc.xT[:0], sc.xJ[:0], sc.xP[:0]
	sc.tS, sc.jS, sc.pS = sc.tS[:0], sc.jS[:0], sc.pS[:0]
	for _, q := range qs {
		sc.flat = m.enc.EncodeInto(sc.flat, q)
		s := &sc.sets
		m.extractSets(s, sc.flat, q)
		var row []float64
		sc.tS = append(sc.tS, span{len(sc.xT) / m.tDim, len(s.tables)})
		for _, ti := range s.tables {
			sc.xT, row = addRow(sc.xT, m.tDim)
			if ti >= 0 && ti < m.tDim { // a table the model lacks marks nothing
				row[ti] = 1
			}
		}
		sc.jS = append(sc.jS, span{len(sc.xJ) / m.jDim, max(len(s.joins), 1)})
		sc.xJ, row = addRow(sc.xJ, m.jDim) // the empty-set token when there are none
		for k, fi := range s.joins {
			if k > 0 {
				sc.xJ, row = addRow(sc.xJ, m.jDim)
			}
			row[fi] = 1
		}
		sc.pS = append(sc.pS, span{len(sc.xP) / m.pDim, max(len(s.preds), 1)})
		sc.xP, row = addRow(sc.xP, m.pDim)
		for k, pr := range s.preds {
			if k > 0 {
				sc.xP, row = addRow(sc.xP, m.pDim)
			}
			row[int(pr[0])] = 1
			row[nCols] = pr[1]
			row[nCols+1] = pr[2]
		}
	}

	h := m.cfg.Hidden
	sc.pooled, _ = addRow(sc.pooled[:0], len(qs)*3*h)
	for set, c := range []struct {
		mlp   *nn.MLP
		x     []float64
		dim   int
		spans []span
	}{{m.tableMLP, sc.xT, m.tDim, sc.tS}, {m.joinMLP, sc.xJ, m.jDim, sc.jS}, {m.predMLP, sc.xP, m.pDim, sc.pS}} {
		hs := c.mlp.Infer(&sc.buf, c.x, len(c.x)/c.dim)
		for i, sp := range c.spans {
			meanInto(sc.pooled[i*3*h+set*h:][:h], hs, sp, h)
		}
	}
	out := m.outMLP.Infer(&sc.buf, sc.pooled, len(qs))
	for i := range dst {
		dst[i] = workload.ExpCard(out[i])
	}
}

// meanInto writes into the zeroed dst the mean of the span's rows of the
// h-wide matrix src: it sums them in ascending order, then multiplies by
// the reciprocal count, so every query's pooled row has the same
// arithmetic whatever batch it rides in. An empty span leaves dst zero.
func meanInto(dst, src []float64, sp span, h int) {
	if sp.n == 0 {
		return
	}
	for r := sp.start; r < sp.start+sp.n; r++ {
		for j, v := range src[r*h : (r+1)*h] {
			dst[j] += v
		}
	}
	s := 1 / float64(sp.n)
	for j := range dst {
		dst[j] *= s
	}
}

// addRow extends x by one zeroed row of width n, returning x and the row.
func addRow(x []float64, n int) ([]float64, []float64) {
	x = slices.Grow(x, n)[:len(x)+n]
	row := x[len(x)-n:]
	clear(row)
	return x, row
}

// modelState is the gob form of a trained model.
type modelState struct {
	Cfg              Config
	Enc              *workload.Encoder
	Table, Join      *nn.MLP
	Pred, Out        *nn.MLP
	TDim, JDim, PDim int
}

// GobEncode implements gob.GobEncoder (ce.Persistable).
func (m *Model) GobEncode() ([]byte, error) {
	if m.enc == nil {
		return nil, fmt.Errorf("mscn: cannot persist an untrained model")
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&modelState{
		Cfg: m.cfg, Enc: m.enc,
		Table: m.tableMLP, Join: m.joinMLP, Pred: m.predMLP, Out: m.outMLP,
		TDim: m.tDim, JDim: m.jDim, PDim: m.pDim,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder (ce.Persistable).
func (m *Model) GobDecode(data []byte) error {
	var st modelState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("mscn: decoding model: %w", err)
	}
	if err := st.checkShapes(); err != nil {
		return fmt.Errorf("mscn: %w", err)
	}
	m.cfg, m.enc = st.Cfg, st.Enc
	m.tableMLP, m.joinMLP, m.predMLP, m.outMLP = st.Table, st.Join, st.Pred, st.Out
	m.tDim, m.jDim, m.pDim = st.TDim, st.JDim, st.PDim
	return nil
}

// checkShapes reports an error unless the element widths are the ones the
// encoder produces and the MLPs have the shapes Fit gives them: each set
// MLP maps its element width to the hidden width h, and the output MLP
// maps 3h to one value.
func (st *modelState) checkShapes() error {
	if st.Enc == nil {
		return fmt.Errorf("model has no query encoder")
	}
	if st.TDim != st.Enc.TableDim() || st.JDim != max(st.Enc.JoinDim(), 1) || st.PDim != st.Enc.PredDim()/3+2 {
		return fmt.Errorf("element widths %d/%d/%d do not match the encoder", st.TDim, st.JDim, st.PDim)
	}
	h := st.Cfg.Hidden
	for _, c := range []struct {
		mlp     *nn.MLP
		in, out int
	}{{st.Table, st.TDim, h}, {st.Join, st.JDim, h}, {st.Pred, st.PDim, h}, {st.Out, 3 * h, 1}} {
		if err := c.mlp.CheckShape(c.in, c.out); err != nil {
			return err
		}
	}
	return nil
}
