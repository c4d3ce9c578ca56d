package engine

// FuzzEngineDifferential is a coverage-guided differential fuzzer: every
// input byte stream decodes deterministically into a small dataset plus a
// structurally valid SPJ query over it, and the columnar join engine
// (Cardinality, Evaluator.Cardinality, CardinalityBatch) must agree with
// the brute-force nested-loop oracle (naiveCardinality, engine_test.go)
// exactly. The randomized differential tests sample the same space;
// fuzzing lets the mutator steer into engine branches (cyclic fallback,
// disconnected components, empty filters, empty tables) the fixed seeds
// happen to miss. Corpus seeds live in testdata/fuzz; CI fuzzes briefly.

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
)

// fuzzCursor reads a byte stream as a bounded decision tape; exhausted
// input yields zeros, so every prefix decodes to something valid.
type fuzzCursor struct {
	data []byte
	i    int
}

func (c *fuzzCursor) next() byte {
	if c.i >= len(c.data) {
		return 0
	}
	v := c.data[c.i]
	c.i++
	return v
}

// intn returns a value in [0, n); n must be positive and small enough
// that the byte modulo keeps reasonable spread (n <= 256).
func (c *fuzzCursor) intn(n int) int { return int(c.next()) % n }

// fuzzDecodeCase maps a byte stream onto a bounded dataset (≤3 tables,
// ≤3 columns, ≤8 rows, values in [1,5], no PKs or FKs — the engine never
// reads them) and a query that q.Validate accepts by construction:
// clamped table subsets, join and predicate columns drawn modulo the
// table's width, predicate ranges that may be empty (hi < lo). A last
// byte per column may then move that column onto a wide, partly negative
// domain (v -> (v-shift)*stride), predicate bounds moving with it, so
// the fuzzer reaches the wide ColIndex and the scan filter; columns with
// the same shift still join. The stride is wideStride, or 2^32 when one
// final byte is odd, so that distinct wide values agree in their low 32
// bits. An exhausted tape moves nothing.
func fuzzDecodeCase(raw []byte) (*dataset.Dataset, *Query) {
	c := &fuzzCursor{data: raw}
	d := &dataset.Dataset{Name: "fuzz"}
	nt := 1 + c.intn(3)
	for ti := 0; ti < nt; ti++ {
		ncols := 1 + c.intn(3)
		rows := c.intn(9) // empty tables are legal and interesting
		cols := make([]*dataset.Column, ncols)
		for ci := range cols {
			vals := make([]int64, rows)
			for r := range vals {
				vals[r] = 1 + int64(c.intn(5))
			}
			cols[ci] = dataset.NewColumn(fmt.Sprintf("c%d", ci), vals)
		}
		d.Tables = append(d.Tables, dataset.NewTable(fmt.Sprintf("t%d", ti), cols...))
	}

	q := &Query{}
	mask := c.next()
	for ti := 0; ti < nt; ti++ {
		if mask&(1<<ti) != 0 {
			q.Tables = append(q.Tables, ti)
		}
	}
	if len(q.Tables) == 0 {
		q.Tables = []int{0}
	}
	pick := func() int { return q.Tables[c.intn(len(q.Tables))] }
	for nj := c.intn(4); nj > 0; nj-- {
		a, b := pick(), pick() // self- and parallel joins included
		q.Joins = append(q.Joins, Join{
			LeftTable: a, LeftCol: c.intn(d.Tables[a].NumCols()),
			RightTable: b, RightCol: c.intn(d.Tables[b].NumCols()),
		})
	}
	for np := c.intn(5); np > 0; np-- {
		ti := pick()
		lo := int64(c.intn(7))
		q.Preds = append(q.Preds, Predicate{
			Table: ti, Col: c.intn(d.Tables[ti].NumCols()),
			Lo: lo, Hi: lo + int64(c.intn(5)) - 2, // sometimes hi < lo
		})
	}
	var shifts []int64 // one per column; -1 keeps the column
	for _, t := range d.Tables {
		for range t.Cols {
			shifts = append(shifts, int64(c.intn(4))-1)
		}
	}
	stride := int64(wideStride)
	if c.next()%2 == 1 {
		stride = 1 << 32
	}
	for ti, t := range d.Tables {
		for ci, col := range t.Cols {
			shift := shifts[0]
			shifts = shifts[1:]
			if shift < 0 {
				continue
			}
			move := func(v int64) int64 { return (v - shift) * stride }
			for r, v := range col.Data {
				col.Data[r] = move(v)
			}
			for i, p := range q.Preds {
				if p.Table == ti && p.Col == ci {
					q.Preds[i].Lo, q.Preds[i].Hi = move(p.Lo), move(p.Hi)
				}
			}
		}
	}
	return d, q
}

func FuzzEngineDifferential(f *testing.F) {
	f.Add([]byte{})                                         // 1 table, 0 rows
	f.Add([]byte{2, 2, 4, 1, 2, 3, 4, 2, 1, 3})             // 3 tables, joins
	f.Add([]byte{0, 1, 3, 5, 1, 1, 255, 3, 0, 0})           // full-mask query, self join
	f.Add([]byte{1, 0, 5, 2, 2, 1, 4, 3, 3, 0, 6, 0, 6, 1}) // empty-range predicate
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 256 {
			raw = raw[:256] // decision tape is short; bound oracle work
		}
		d, q := fuzzDecodeCase(raw)
		if err := q.Validate(d); err != nil {
			t.Fatalf("decoder emitted an invalid query: %v\n%+v", err, q)
		}
		want := naiveCardinality(d, q)
		if got := Cardinality(d, q); got != want {
			t.Fatalf("Cardinality = %d, brute force = %d\nquery: %+v", got, want, q)
		}
		if got := NewEvaluator(d).Cardinality(q); got != want {
			t.Fatalf("Evaluator.Cardinality = %d, brute force = %d\nquery: %+v", got, want, q)
		}
		if got := CardinalityBatch(d, []*Query{q, q}); got[0] != want || got[1] != want {
			t.Fatalf("CardinalityBatch = %v, brute force = %d\nquery: %+v", got, want, q)
		}
	})
}
