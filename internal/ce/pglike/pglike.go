// Package pglike implements a PostgreSQL-style cardinality estimator: per-
// column equi-depth histograms with distinct counts, attribute-value
// independence across predicates, and the textbook PK-FK join selectivity
// 1/max(ndv_left, ndv_right). It is baseline (9) of the paper's Section
// VII-A ("a default PostgreSQL CE estimator") and also serves as the cost
// model's default inside the simulated optimizer.
package pglike

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"

	"repro/internal/ce"
	"repro/internal/resilience"
	"repro/internal/workload"
)

func init() {
	// Registry rank 7: the PostgreSQL-style baseline (9). It is measured
	// for the figure/table comparisons but is not a selection candidate.
	ce.Register(ce.Spec{
		Rank: 7, Name: "Postgres", Kind: ce.DataDriven, Candidate: false, Concurrent: true,
		New: func(ce.Config) ce.Model { return New() },
	})
	gob.Register(&Model{})
}

// Histogram is an equi-depth histogram over one column.
type Histogram struct {
	// Bounds holds ascending bucket upper bounds; bucket i covers
	// (Bounds[i-1], Bounds[i]] with Bounds[-1] = Min-1.
	Bounds []int64
	Min    int64
	Rows   int
	NDV    int
}

// NewHistogram builds an equi-depth histogram with at most buckets buckets.
func NewHistogram(data []int64, buckets int) *Histogram {
	h := &Histogram{Rows: len(data)}
	if len(data) == 0 {
		return h
	}
	sorted := append([]int64(nil), data...)
	slices.Sort(sorted)
	h.Min = sorted[0]
	ndv := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			ndv++
		}
	}
	h.NDV = ndv
	for i := 1; i <= buckets; i++ {
		pos := i*len(sorted)/buckets - 1
		if pos < 0 {
			continue // fewer rows than buckets
		}
		b := sorted[pos]
		if len(h.Bounds) == 0 || b > h.Bounds[len(h.Bounds)-1] {
			h.Bounds = append(h.Bounds, b)
		}
	}
	return h
}

// Selectivity estimates the fraction of rows with value in [lo, hi],
// interpolating linearly within partially covered buckets.
func (h *Histogram) Selectivity(lo, hi int64) float64 {
	if h.Rows == 0 || len(h.Bounds) == 0 || hi < lo {
		return 0
	}
	frac := 1.0 / float64(len(h.Bounds))
	var total float64
	prev := h.Min - 1
	for _, b := range h.Bounds {
		bl, bh := prev+1, b
		prev = b
		if bh < lo || bl > hi {
			continue
		}
		ol := lo
		if bl > ol {
			ol = bl
		}
		oh := hi
		if bh < oh {
			oh = bh
		}
		width := float64(bh - bl + 1)
		if width <= 0 {
			width = 1
		}
		total += frac * float64(oh-ol+1) / width
	}
	if total > 1 {
		total = 1
	}
	return total
}

// Model is a trained PostgreSQL-style estimator for one dataset.
type Model struct {
	rows  []int64        // per-table row counts
	hists [][]*Histogram // [table][col]
	// Buckets is the per-column histogram resolution (default 32).
	Buckets int
}

// New returns an untrained model.
func New() *Model { return &Model{Buckets: 32} }

// Name implements ce.Estimator.
func (m *Model) Name() string { return "Postgres" }

// Fit implements ce.Model (data-driven: consumes Dataset), building
// histograms for every column. The join sample is unused: like the real
// system, this model relies only on per-table statistics. Failpoint
// "ce.pglike.fit" injects a training failure (this model is the cheapest
// registered estimator, making it the natural fault-injection tenant).
func (m *Model) Fit(in *ce.TrainInput) error {
	if err := resilience.Failpoint("ce.pglike.fit"); err != nil {
		return fmt.Errorf("pglike: fit: %w", err)
	}
	d := in.Dataset
	m.rows = make([]int64, len(d.Tables))
	m.hists = make([][]*Histogram, len(d.Tables))
	for ti, t := range d.Tables {
		m.rows[ti] = int64(t.Rows())
		m.hists[ti] = make([]*Histogram, t.NumCols())
		for ci, c := range t.Cols {
			m.hists[ti][ci] = NewHistogram(c.Data, m.Buckets)
		}
	}
	return nil
}

// Estimate implements ce.Estimator using independence across predicates
// and 1/max(ndv) per join edge. Failpoint "ce.pglike.estimate" is the
// soak harness's inference-fault site: panic mode exercises the serving
// layer's per-model panic fences, sleep mode its deadlines. (Error mode is
// ignored here — Estimate cannot return one.)
func (m *Model) Estimate(q *workload.Query) float64 {
	_ = resilience.Failpoint("ce.pglike.estimate")
	card := 1.0
	for _, ti := range q.Tables {
		if ti >= 0 && ti < len(m.rows) {
			card *= float64(m.rows[ti])
		}
	}
	for _, p := range q.Preds {
		if h := m.hist(p.Table, p.Col); h != nil {
			card *= h.Selectivity(p.Lo, p.Hi)
		}
	}
	for _, j := range q.Joins {
		maxNDV := 1
		for _, h := range []*Histogram{m.hist(j.LeftTable, j.LeftCol), m.hist(j.RightTable, j.RightCol)} {
			if h != nil {
				maxNDV = max(maxNDV, h.NDV)
			}
		}
		card /= float64(maxNDV)
	}
	return workload.ClampCard(card)
}

// hist returns the histogram of column (t, c), or nil for a column the
// model holds none for, which then constrains nothing.
func (m *Model) hist(t, c int) *Histogram {
	if t < 0 || t >= len(m.hists) || c < 0 || c >= len(m.hists[t]) {
		return nil
	}
	return m.hists[t][c]
}

// EstimateBatch implements ce.Estimator with the shared parallel fan-out.
func (m *Model) EstimateBatch(qs []*workload.Query) []float64 {
	return ce.ParallelEstimates(m, qs)
}

// modelState is the gob form of a trained model.
type modelState struct {
	Rows    []int64
	Hists   [][]*Histogram
	Buckets int
}

// GobEncode implements gob.GobEncoder (ce.Persistable).
func (m *Model) GobEncode() ([]byte, error) {
	if m.hists == nil {
		return nil, fmt.Errorf("pglike: cannot persist an untrained model")
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&modelState{Rows: m.rows, Hists: m.hists, Buckets: m.Buckets})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder (ce.Persistable).
func (m *Model) GobDecode(data []byte) error {
	var st modelState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("pglike: decoding model: %w", err)
	}
	if len(st.Rows) != len(st.Hists) {
		return fmt.Errorf("pglike: %d table row counts for %d tables of histograms", len(st.Rows), len(st.Hists))
	}
	for t, hs := range st.Hists {
		if slices.Contains(hs, nil) {
			return fmt.Errorf("pglike: table %d lacks a column histogram", t)
		}
	}
	m.rows, m.hists, m.Buckets = st.Rows, st.Hists, st.Buckets
	return nil
}
