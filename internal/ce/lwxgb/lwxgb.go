// Package lwxgb implements the LW-XGB estimator (Dutt et al., VLDB 2019):
// gradient-boosted regression trees over a flat query encoding, regressing
// log(1+cardinality). It reuses the internal/gbt boosting substrate.
package lwxgb

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/ce"
	"repro/internal/gbt"
	"repro/internal/workload"
)

func init() {
	// Registry rank 2: the paper's query-driven baseline (3). Tree
	// traversal is read-only, so inference is concurrent.
	ce.Register(ce.Spec{
		Rank: 2, Name: "LW-XGB", Kind: ce.QueryDriven, Candidate: true, Concurrent: true,
		New: func(c ce.Config) ce.Model {
			cfg := DefaultConfig()
			if c.Fast {
				cfg.GBT.Rounds = 20
			}
			return New(cfg)
		},
	})
	gob.Register(&Model{})
}

// Config controls LW-XGB training; it wraps the boosting configuration.
type Config struct {
	GBT gbt.Config
}

// DefaultConfig returns the configuration used by the testbed.
func DefaultConfig() Config { return Config{GBT: gbt.DefaultConfig()} }

// Model is a trained LW-XGB estimator.
type Model struct {
	cfg Config
	enc *workload.Encoder
	ens *gbt.Ensemble

	scratch ce.ScratchPool[[]float64] // a query's flat encoding
}

// New returns an untrained LW-XGB model.
func New(cfg Config) *Model { return &Model{cfg: cfg} }

// Name implements ce.Estimator.
func (m *Model) Name() string { return "LW-XGB" }

// Fit implements ce.Model (query-driven: consumes Dataset and Queries).
func (m *Model) Fit(in *ce.TrainInput) error {
	train := in.Queries
	if len(train) == 0 {
		return fmt.Errorf("lwxgb: empty training workload")
	}
	m.enc = workload.NewEncoder(in.Dataset)
	xs := make([][]float64, len(train))
	ys := make([]float64, len(train))
	for i, q := range train {
		xs[i] = m.enc.Encode(q)
		ys[i] = workload.LogCard(q.TrueCard)
	}
	ens, err := gbt.Train(xs, ys, m.cfg.GBT)
	if err != nil {
		return fmt.Errorf("lwxgb: %w", err)
	}
	m.ens = ens
	return nil
}

// Estimate implements ce.Estimator.
func (m *Model) Estimate(q *workload.Query) float64 {
	x := m.scratch.Get()
	*x = m.enc.EncodeInto(*x, q)
	est := workload.ExpCard(m.ens.Predict(*x))
	m.scratch.Put(x)
	return est
}

// EstimateBatch implements ce.Estimator with the shared parallel fan-out.
func (m *Model) EstimateBatch(qs []*workload.Query) []float64 {
	return ce.ParallelEstimates(m, qs)
}

// modelState is the gob form of a trained model.
type modelState struct {
	Cfg Config
	Enc *workload.Encoder
	Ens *gbt.Ensemble
}

// GobEncode implements gob.GobEncoder (ce.Persistable).
func (m *Model) GobEncode() ([]byte, error) {
	if m.ens == nil {
		return nil, fmt.Errorf("lwxgb: cannot persist an untrained model")
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&modelState{Cfg: m.cfg, Enc: m.enc, Ens: m.ens})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder (ce.Persistable).
func (m *Model) GobDecode(data []byte) error {
	var st modelState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("lwxgb: decoding model: %w", err)
	}
	if st.Enc == nil || st.Ens == nil {
		return fmt.Errorf("lwxgb: model state lacks its encoder or ensemble")
	}
	if err := st.Ens.CheckDim(st.Enc.Dim()); err != nil {
		return fmt.Errorf("lwxgb: %w", err)
	}
	m.cfg, m.enc, m.ens = st.Cfg, st.Enc, st.Ens
	return nil
}
