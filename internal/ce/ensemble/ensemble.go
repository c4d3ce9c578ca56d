// Package ensemble implements the paper's baseline (8): an ensemble
// estimator returning the weighted average of all member estimates, with
// weights proportional to each member's accuracy on the calibration
// workload (inverse mean Q-error).
//
// It registers as the zoo's one Composite model: Fit consumes the trained
// Members (the candidate set) plus calibration Queries, so the testbed
// fits it after the independent training jobs drain.
package ensemble

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/ce"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func init() {
	// Registry rank 8: measured for the figure/table comparisons but not a
	// selection candidate.
	ce.Register(ce.Spec{
		Rank: 8, Name: "Ensemble", Kind: ce.Composite, Candidate: false, Concurrent: false,
		New: func(ce.Config) ce.Model { return New() },
	})
	gob.Register(&Model{})
}

// Model combines trained member estimators.
type Model struct {
	members []ce.Estimator
	weights []float64
}

// New returns an uncalibrated ensemble.
func New() *Model { return &Model{} }

// Fit implements ce.Model (composite: consumes Members and Queries). Each
// member is weighted by the inverse of its mean Q-error on the calibration
// queries. With no calibration queries, members are weighted equally.
func (m *Model) Fit(in *ce.TrainInput) error {
	if len(in.Members) == 0 {
		return fmt.Errorf("ensemble: no trained members to combine")
	}
	m.members = in.Members
	m.weights = make([]float64, len(in.Members))
	calibration := in.Queries
	if len(calibration) == 0 {
		for i := range m.weights {
			m.weights[i] = 1
		}
		return nil
	}
	var total float64
	truths := make([]float64, len(calibration))
	for qi, q := range calibration {
		truths[qi] = float64(q.TrueCard)
	}
	for i, mem := range in.Members {
		w := 1 / metrics.MeanQError(mem.EstimateBatch(calibration), truths)
		m.weights[i] = w
		total += w
	}
	for i := range m.weights {
		m.weights[i] /= total
	}
	return nil
}

// Name implements ce.Estimator.
func (m *Model) Name() string { return "Ensemble" }

// Estimate implements ce.Estimator as the weighted average of member
// estimates.
func (m *Model) Estimate(q *workload.Query) float64 {
	var est, wsum float64
	for i, mem := range m.members {
		est += m.weights[i] * mem.Estimate(q)
		wsum += m.weights[i]
	}
	if wsum == 0 {
		return 1
	}
	est /= wsum
	return workload.ClampCard(est)
}

// EstimateBatch implements ce.Estimator in parallel: every member's
// Estimate is safe for concurrent use, so the batch is bit-identical to
// per-query calls.
func (m *Model) EstimateBatch(qs []*workload.Query) []float64 {
	return ce.ParallelEstimates(m, qs)
}

// Weights exposes the calibrated member weights (for tests and reports).
func (m *Model) Weights() []float64 { return append([]float64(nil), m.weights...) }

// modelState is the gob form of a calibrated ensemble. Members serialize
// as gob interface values; every registered model calls gob.Register on
// its concrete type at init, so the artifact embeds the members' own
// encodings.
type modelState struct {
	Members []ce.Estimator
	Weights []float64
}

// GobEncode implements gob.GobEncoder (ce.Persistable).
func (m *Model) GobEncode() ([]byte, error) {
	if len(m.members) == 0 {
		return nil, fmt.Errorf("ensemble: cannot persist an uncalibrated ensemble")
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&modelState{Members: m.members, Weights: m.weights})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder (ce.Persistable).
func (m *Model) GobDecode(data []byte) error {
	var st modelState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("ensemble: decoding model: %w", err)
	}
	if len(st.Members) != len(st.Weights) {
		return fmt.Errorf("ensemble: %d members for %d weights", len(st.Members), len(st.Weights))
	}
	m.members, m.weights = st.Members, st.Weights
	return nil
}
