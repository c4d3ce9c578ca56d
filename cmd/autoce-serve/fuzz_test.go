package main

// Native fuzzers for the two request decoders with the largest attack
// surface: the /datasets columnar payload (drives dataset construction
// and validation) and the /estimate payload (drives query validation
// against an onboarded schema). Both are differential: on every input the
// canonical-body scanner (canonical.go) either declines, or encoding/json
// accepts too and decodes the same value. Neither decoder may panic, and
// anything accepted must satisfy the invariants the handlers rely on.
// FuzzTenantRecord covers the persisted tenant-manifest record the same
// way. Corpus seeds live in testdata/fuzz; CI fuzzes each briefly.

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/envelope"
)

// strictDecode is the reference decode of raw into a new T: the strict
// encoding/json path every non-canonical body takes. It fails the test
// when the canonical scanner accepts raw and decodes anything else, or
// declines raw and writes to its destination anyway.
func strictDecode[T any](t *testing.T, raw []byte) (T, error) {
	var want, got, zero T
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	err := dec.Decode(&want)
	switch {
	case !scanCanonical(raw, &got):
		if !reflect.DeepEqual(got, zero) {
			t.Fatalf("scanner declined %q but wrote %+v", raw, got)
		}
	case err != nil:
		t.Fatalf("scanner accepted %q, which encoding/json rejects: %v", raw, err)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("scanner decoded %q as\n%+v\nencoding/json as\n%+v", raw, got, want)
	}
	return want, err
}

// FuzzDatasetPayload: the canonical scanner agrees with encoding/json or
// declines; arbitrary JSON through the strict decoder and toDataset must
// never panic; an accepted dataset passes Validate and respects the
// onboarding limits.
func FuzzDatasetPayload(f *testing.F) {
	f.Add([]byte(`{"name":"db1","tables":[{"name":"t0","pk":0,"cols":[{"name":"c0","data":[1,2,3]},{"name":"c1","data":[4,5,6]}]}]}`))
	f.Add([]byte(`{"name":"db2","tables":[{"cols":[{"data":[1]}]},{"cols":[{"data":[2,3]}]}],"fks":[{"from_table":1,"from_col":0,"to_table":0,"to_col":0}]}`))
	f.Add([]byte(`{"name":"","tables":[]}`))
	f.Add([]byte(`{"name":"x","tables":[{"pk":-7,"cols":[{"data":[0,0,0]}]}]}`))
	f.Add([]byte(`{"tables":[{"cols":[{"data":null}]}]}`))
	f.Add([]byte(`{`))
	for _, v := range append(acceptedIntegers(), declinedIntegers()...) {
		for _, body := range integerBodies(v) {
			f.Add(body)
		}
	}
	f.Add([]byte("{\"tables\":[{\"cols\":[{\"data\":[ 1 , 22 ,333, 4444\n,\t55555\r]}]}]}"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := strictDecode[datasetRequest](t, raw)
		if err != nil {
			return
		}
		d, err := req.toDataset()
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("toDataset accepted a dataset failing Validate: %v\npayload: %s", err, raw)
		}
		if len(d.Tables) == 0 || len(d.Tables) > maxDatasetTables {
			t.Fatalf("toDataset accepted %d tables (limit %d)", len(d.Tables), maxDatasetTables)
		}
		cells := 0
		for _, tb := range d.Tables {
			for _, c := range tb.Cols {
				cells += len(c.Data)
			}
		}
		if cells > maxDatasetCells {
			t.Fatalf("toDataset accepted %d cells (limit %d)", cells, maxDatasetCells)
		}
	})
}

// FuzzEstimatePayload: the canonical scanner agrees with encoding/json or
// declines; arbitrary JSON through the strict decoder and toQueries
// against a fixed two-table schema must never panic; the handlers index
// datasets with whatever toQueries accepts.
func FuzzEstimatePayload(f *testing.F) {
	f.Add([]byte(`{"dataset":"db1","query":{"tables":[0],"preds":[{"table":0,"col":1,"lo":1,"hi":5}]}}`))
	f.Add([]byte(`{"dataset":"db1","queries":[{"tables":[0,1],"joins":[{"left_table":1,"left_col":1,"right_table":0,"right_col":0}]}]}`))
	f.Add([]byte(`{"query":{"tables":[2]}}`))
	f.Add([]byte(`{"query":{"tables":[0],"preds":[{"table":0,"col":99}]}}`))
	f.Add([]byte(`{"query":{"tables":[-1]}}`))
	f.Add([]byte(`{"queries":[null]}`))

	// The schema every fuzzed query validates against: two joined tables,
	// shared read-only across iterations (toQueries only reads it).
	d := &dataset.Dataset{
		Name: "db1",
		Tables: []*dataset.Table{
			{Name: "t0", PKCol: 0, Cols: []*dataset.Column{
				dataset.NewColumn("pk", []int64{0, 1, 2, 3}),
				dataset.NewColumn("v", []int64{5, 6, 7, 8}),
			}},
			{Name: "t1", PKCol: -1, Cols: []*dataset.Column{
				dataset.NewColumn("w", []int64{9, 9, 8, 8}),
				dataset.NewColumn("fk", []int64{0, 0, 1, 3}),
			}},
		},
		FKs: []dataset.ForeignKey{{FromTable: 1, FromCol: 1, ToTable: 0, ToCol: 0}},
	}
	if err := d.Validate(); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := strictDecode[estimateRequest](t, raw)
		if err != nil {
			return
		}
		payloads := req.Queries
		if req.Query != nil {
			payloads = append(payloads, req.Query)
		}
		for _, p := range payloads {
			if p == nil {
				continue // toQueries 400s null entries
			}
			qs, err := toQueries(d, []*queryPayload{p})
			if err != nil {
				continue
			}
			q := qs[0]
			// Accepted queries are safe to index the dataset with — the
			// invariant every estimator relies on.
			for _, ti := range q.Tables {
				if ti < 0 || ti >= len(d.Tables) {
					t.Fatalf("toQueries accepted out-of-range table %d: %s", ti, raw)
				}
			}
			for _, pr := range q.Preds {
				if pr.Table < 0 || pr.Table >= len(d.Tables) ||
					pr.Col < 0 || pr.Col >= d.Tables[pr.Table].NumCols() {
					t.Fatalf("toQueries accepted out-of-range predicate %+v: %s", pr, raw)
				}
			}
		}
	})
}

// FuzzTenantRecord: the manifest record decoder never panics; it either
// rejects its input as corrupt or returns a name and payload that encode
// back to exactly the input bytes.
func FuzzTenantRecord(f *testing.F) {
	for _, rec := range []struct{ name, payload string }{
		{"db1", `{"name":"db1","tables":[{"cols":[{"data":[1,2,3]}]}]}`},
		{"", ""},
		{"beta/γ", "{}"},
	} {
		var buf bytes.Buffer
		if err := encodeTenantRecord(&buf, rec.name, []byte(rec.payload)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-1])
	}
	f.Add([]byte("CETENv2\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		name, payload, err := decodeTenantRecord(raw)
		if err != nil {
			if !errors.Is(err, envelope.ErrCorrupt) {
				t.Fatalf("rejection %v does not match ErrCorrupt", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := encodeTenantRecord(&buf, name, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), raw) {
			t.Fatalf("record (%q, %q) re-encodes as\n%x\nnot\n%x", name, payload, buf.Bytes(), raw)
		}
	})
}
