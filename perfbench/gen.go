package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/workload"
)

// Input generation. Every input derives from the --seed argument; the
// shapes (table counts, row counts, column counts) are fixed so that
// seeds change data content but not the amount of work, which keeps
// run-to-run spread across seeds small.

// shape fixes one generated dataset's size.
type shape struct {
	tables, rows, cols int
}

// genDataset generates a dataset of the given shape with the datagen
// multi-table procedure.
func genDataset(name string, sh shape, seed int64) (*dataset.Dataset, error) {
	p := datagen.DefaultParams(seed)
	p.Tables = sh.tables
	p.MinRows, p.MaxRows = sh.rows, sh.rows
	p.MinCols, p.MaxCols = sh.cols, sh.cols
	return datagen.Generate(name, p)
}

// corpusShapes is the advisor-build corpus: cmd/autoce's fast-mode row
// range (150..400) and 1..5 tables, cycled deterministically instead of
// drawn at random.
func corpusShapes(n int) []shape {
	out := make([]shape, n)
	for i := range out {
		out[i] = shape{tables: 1 + i%5, rows: 150 + (i*53)%251, cols: 2 + (i*7)%4}
	}
	return out
}

// genMany generates one dataset per shape, named prefix0000...
func genMany(prefix string, shapes []shape, seed int64) ([]*dataset.Dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*dataset.Dataset, len(shapes))
	for i, sh := range shapes {
		d, err := genDataset(fmt.Sprintf("%s%04d", prefix, i), sh, rng.Int63())
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// Wire payloads, mirroring the JSON accepted by cmd/autoce-serve.

type columnJSON struct {
	Name string  `json:"name"`
	Data []int64 `json:"data"`
}

type tableJSON struct {
	Name string       `json:"name"`
	PK   *int         `json:"pk,omitempty"`
	Cols []columnJSON `json:"cols"`
}

type fkJSON struct {
	FromTable int `json:"from_table"`
	FromCol   int `json:"from_col"`
	ToTable   int `json:"to_table"`
	ToCol     int `json:"to_col"`
}

type joinJSON struct {
	LeftTable  int `json:"left_table"`
	LeftCol    int `json:"left_col"`
	RightTable int `json:"right_table"`
	RightCol   int `json:"right_col"`
}

type predJSON struct {
	Table int   `json:"table"`
	Col   int   `json:"col"`
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
}

type queryJSON struct {
	Tables []int      `json:"tables"`
	Joins  []joinJSON `json:"joins,omitempty"`
	Preds  []predJSON `json:"preds,omitempty"`
}

// datasetBody encodes the /datasets payload of d under a new name.
func datasetBody(name string, d *dataset.Dataset) ([]byte, error) {
	body := struct {
		Name   string      `json:"name"`
		Tables []tableJSON `json:"tables"`
		FKs    []fkJSON    `json:"fks"`
	}{Name: name, FKs: []fkJSON{}}
	for _, t := range d.Tables {
		tj := tableJSON{Name: t.Name}
		if t.PKCol >= 0 {
			pk := t.PKCol
			tj.PK = &pk
		}
		for _, c := range t.Cols {
			tj.Cols = append(tj.Cols, columnJSON{Name: c.Name, Data: c.Data})
		}
		body.Tables = append(body.Tables, tj)
	}
	for _, fk := range d.FKs {
		body.FKs = append(body.FKs, fkJSON{FromTable: fk.FromTable, FromCol: fk.FromCol, ToTable: fk.ToTable, ToCol: fk.ToCol})
	}
	return json.Marshal(body)
}

// toQueryJSON converts a workload query to its wire form.
func toQueryJSON(q *workload.Query) *queryJSON {
	out := &queryJSON{Tables: q.Tables}
	for _, j := range q.Joins {
		out.Joins = append(out.Joins, joinJSON{j.LeftTable, j.LeftCol, j.RightTable, j.RightCol})
	}
	for _, p := range q.Preds {
		out.Preds = append(out.Preds, predJSON{p.Table, p.Col, p.Lo, p.Hi})
	}
	return out
}

// probeQueries generates n unlabeled queries joining at most three
// tables.
func probeQueries(d *dataset.Dataset, n int, seed int64) []*workload.Query {
	var out []*workload.Query
	for round := int64(0); len(out) < n; round++ {
		for _, q := range workload.GenerateUnlabeled(d, workload.DefaultConfig(2*n, seed+round*7919)) {
			if len(q.Tables) <= 3 && len(out) < n {
				out = append(out, q)
			}
		}
	}
	return out
}
