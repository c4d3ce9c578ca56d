package engine

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
)

// JoinSample is a row-major sample of the full join of a dataset's tables,
// restricted to non-key columns. Data-driven estimators (DeepDB's SPN,
// NeuroCard's autoregressive model, BayesCard's Bayesian network) train on
// it, mirroring how the original systems learn a joint distribution over
// the (full outer) join of the base tables.
type JoinSample struct {
	// Cols identifies each sample column as (table, column) in the source
	// dataset, in the order of the Rows entries.
	Cols []ColRef
	// Rows holds the sampled tuples; Rows[i][j] is the value of Cols[j].
	Rows [][]int64
	// FullJoinSize is the exact cardinality of the unfiltered join the
	// sample was drawn from (the estimators scale probabilities by it).
	FullJoinSize int64
}

// ColRef names one dataset column.
type ColRef struct{ Table, Col int }

// maxJoinSlots caps the int32 row ids SampleJoin materializes (64 MiB per
// tuple buffer). SampleJoin keeps at most maxRows tuples but builds the
// whole join first, and the schema alone decides how large that is: a
// table no FK reaches joins by cross product and a many-to-many FK
// multiplies rows, so two unconnected 50k-row tables would ask for 5e9
// slots (20 GB), an out-of-memory kill no panic fence catches. The largest
// join any test, golden or labeling benchmark samples is under 7k slots,
// and tenant-churn's largest arrival about 150k.
const maxJoinSlots = 1 << 24

// SampleJoin materializes (a reservoir sample of) the full PK-FK join of
// all tables in d, projected to non-key columns. maxRows caps the sample
// size; rng drives the reservoir. For a single-table dataset the "join" is
// the table itself, whatever FKs it declares. Tables disconnected from the
// join graph contribute via cross product, which matches the semantics of
// a query listing them with no join edge; the synthetic generator always
// produces connected schemas.
//
// Unlike Cardinality, sampling genuinely needs rows, so this runs the
// evaluator's materializing join over every table unfiltered, on a fresh
// evaluator whose buffers die with the call. A join that would pass
// maxJoinSlots row ids fails with ErrJoinTooLarge, before it is built.
func SampleJoin(d *dataset.Dataset, maxRows int, rng *rand.Rand) (*JoinSample, error) {
	q := &Query{Tables: make([]int, len(d.Tables))}
	for i := range q.Tables {
		q.Tables[i] = i
	}
	if len(d.Tables) > 1 {
		for _, fk := range d.FKs {
			q.Joins = append(q.Joins, Join{
				LeftTable: fk.FromTable, LeftCol: fk.FromCol,
				RightTable: fk.ToTable, RightCol: fk.ToCol,
			})
		}
	}

	js := &JoinSample{}
	for ti, t := range d.Tables {
		for ci := range t.Cols {
			if ci == t.PKCol || isFKCol(d, ti, ci) {
				continue
			}
			js.Cols = append(js.Cols, ColRef{Table: ti, Col: ci})
		}
	}

	e := NewEvaluator(d)
	for _, ti := range q.Tables {
		e.filter(q, ti)
	}
	tuples, err := e.join(e.visit(q.Tables, q.Joins), q.Joins, maxJoinSlots)
	if err != nil {
		return nil, fmt.Errorf("engine: sampling the full join of %s: %w", d.Name, err)
	}
	stride := max(len(q.Tables), 1)
	nTup := len(tuples) / stride
	js.FullJoinSize = int64(nTup)
	idx := reservoirIndexes(nTup, maxRows, rng)
	nc := len(js.Cols)
	vals := make([]int64, len(idx)*nc)
	for i, r := range idx {
		tp := tuples[r*stride : (r+1)*stride]
		row := vals[i*nc : (i+1)*nc : (i+1)*nc]
		for j, cr := range js.Cols {
			row[j] = d.Tables[cr.Table].Col(cr.Col).Data[tp[e.slot[cr.Table]]]
		}
		js.Rows = append(js.Rows, row)
	}
	return js, nil
}

func isFKCol(d *dataset.Dataset, ti, ci int) bool {
	for _, fk := range d.FKs {
		if fk.FromTable == ti && fk.FromCol == ci {
			return true
		}
	}
	return false
}

// reservoirIndexes returns up to k distinct indexes from [0,n), uniformly.
func reservoirIndexes(n, k int, rng *rand.Rand) []int {
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	res := make([]int, k)
	for i := 0; i < k; i++ {
		res[i] = i
	}
	for i := k; i < n; i++ {
		j := rng.Intn(i + 1)
		if j < k {
			res[j] = i
		}
	}
	return res
}
