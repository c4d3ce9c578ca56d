package workload

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"repro/internal/dataset"
)

// Encoder maps queries over one dataset to fixed-size feature vectors, the
// representation consumed by the query-driven estimators. It follows the
// MSCN-family encoding: a table-set one-hot block, a join-set one-hot
// block, and a per-column predicate block holding (present, lo, hi)
// normalized into [0,1] by the column's value range.
//
// An Encoder is self-contained (it copies the schema facts it needs rather
// than holding the dataset) and gob-serializable, so trained query-driven
// models embed it in their artifacts.
type Encoder struct {
	// colIndex maps (table,col) to a dense column slot.
	colIndex map[[2]int]int
	// colKeys lists the (table,col) pairs in slot order (the serialized
	// form of colIndex).
	colKeys [][2]int
	// colLo and colRange cache per-slot normalization constants.
	colLo, colRange []float64
	// fks copies the dataset's FK edges; Encode matches query joins
	// against them to fill the join block.
	fks       []dataset.ForeignKey
	numTables int
	numJoins  int
}

// NewEncoder builds an encoder for dataset d.
func NewEncoder(d *dataset.Dataset) *Encoder {
	e := &Encoder{
		colIndex:  map[[2]int]int{},
		fks:       append([]dataset.ForeignKey(nil), d.FKs...),
		numTables: len(d.Tables),
		numJoins:  len(d.FKs),
	}
	for ti, t := range d.Tables {
		for ci, c := range t.Cols {
			e.colIndex[[2]int{ti, ci}] = len(e.colLo)
			e.colKeys = append(e.colKeys, [2]int{ti, ci})
			lo, hi := c.MinMax()
			e.colLo = append(e.colLo, float64(lo))
			r := float64(hi - lo)
			if r <= 0 {
				r = 1
			}
			e.colRange = append(e.colRange, r)
		}
	}
	return e
}

// Dim returns the encoded vector length.
func (e *Encoder) Dim() int { return e.numTables + e.numJoins + 3*len(e.colLo) }

// TableDim, JoinDim and PredDim expose the block sizes for set-structured
// models (MSCN treats the blocks as separate sets).
func (e *Encoder) TableDim() int { return e.numTables }
func (e *Encoder) JoinDim() int  { return e.numJoins }
func (e *Encoder) PredDim() int  { return 3 * len(e.colLo) }

// Encode returns the flat feature vector of q.
func (e *Encoder) Encode(q *Query) []float64 { return e.EncodeInto(nil, q) }

// EncodeInto is Encode into v's memory when its capacity suffices (a new
// slice otherwise); it returns the vector, of length Dim.
func (e *Encoder) EncodeInto(v []float64, q *Query) []float64 {
	if cap(v) < e.Dim() {
		v = make([]float64, e.Dim())
	}
	v = v[:e.Dim()]
	clear(v)
	for _, ti := range q.Tables {
		if ti >= 0 && ti < e.numTables { // a table the encoder lacks adds nothing
			v[ti] = 1
		}
	}
	base := e.numTables
	for _, j := range q.Joins {
		for fi, fk := range e.fks {
			if fk.FromTable == j.LeftTable && fk.FromCol == j.LeftCol &&
				fk.ToTable == j.RightTable && fk.ToCol == j.RightCol {
				v[base+fi] = 1
			}
		}
	}
	pb := e.numTables + e.numJoins
	for _, p := range q.Preds {
		slot, ok := e.colIndex[[2]int{p.Table, p.Col}]
		if !ok {
			continue
		}
		v[pb+3*slot] = 1
		v[pb+3*slot+1] = (float64(p.Lo) - e.colLo[slot]) / e.colRange[slot]
		v[pb+3*slot+2] = (float64(p.Hi) - e.colLo[slot]) / e.colRange[slot]
	}
	return v
}

// encoderState is the gob form of an Encoder.
type encoderState struct {
	ColKeys          [][2]int
	ColLo, ColRange  []float64
	FKs              []dataset.ForeignKey
	Tables, NumJoins int
}

// GobEncode implements gob.GobEncoder.
func (e *Encoder) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&encoderState{
		ColKeys: e.colKeys, ColLo: e.colLo, ColRange: e.colRange,
		FKs: e.fks, Tables: e.numTables, NumJoins: e.numJoins,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (e *Encoder) GobDecode(data []byte) error {
	var st encoderState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("workload: decoding encoder: %w", err)
	}
	if len(st.ColKeys) != len(st.ColLo) || len(st.ColLo) != len(st.ColRange) {
		return fmt.Errorf("workload: encoder state has %d/%d/%d column entries",
			len(st.ColKeys), len(st.ColLo), len(st.ColRange))
	}
	if st.Tables < 0 || st.NumJoins != len(st.FKs) {
		return fmt.Errorf("workload: encoder state has %d tables and %d joins for %d foreign keys",
			st.Tables, st.NumJoins, len(st.FKs))
	}
	e.colKeys, e.colLo, e.colRange = st.ColKeys, st.ColLo, st.ColRange
	e.fks, e.numTables, e.numJoins = st.FKs, st.Tables, st.NumJoins
	e.colIndex = make(map[[2]int]int, len(st.ColKeys))
	for slot, key := range st.ColKeys {
		e.colIndex[key] = slot
	}
	return nil
}

// LogCard returns the training target for a query: log(1 + truecard).
// Query-driven models regress this and invert with ExpCard.
func LogCard(card int64) float64 {
	if card < 0 {
		card = 0
	}
	return math.Log1p(float64(card))
}

// ExpCard inverts LogCard and holds the result to ClampCard.
func ExpCard(y float64) float64 { return ClampCard(math.Expm1(y)) }

// ClampCard holds a cardinality estimate to the estimator contract, finite
// and at least 1: below 1 and NaN (a corrupt or diverged model) map to 1,
// +Inf to the largest float64.
func ClampCard(c float64) float64 {
	if !(c >= 1) {
		return 1
	}
	return min(c, math.MaxFloat64)
}
