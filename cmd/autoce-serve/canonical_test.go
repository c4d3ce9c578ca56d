package main

import (
	"encoding/json"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
)

// TestCanonicalKeysMatchTags: each key list the scanner accepts is its
// struct's json tags, in field order, so a renamed or added field cannot
// leave the scanner decoding an object encoding/json reads differently.
func TestCanonicalKeysMatchTags(t *testing.T) {
	for _, c := range []struct {
		v    any
		keys []string
	}{
		{datasetRequest{}, datasetKeys},
		{tablePayload{}, tableKeys},
		{columnPayload{}, columnKeys},
		{fkPayload{}, fkKeys},
		{estimateRequest{}, estimateKeys},
		{queryPayload{}, queryKeys},
		{joinPayload{}, joinKeys},
		{predPayload{}, predKeys},
	} {
		typ := reflect.TypeOf(c.v)
		var tags []string
		for i := range typ.NumField() {
			tags = append(tags, strings.Split(typ.Field(i).Tag.Get("json"), ",")[0])
		}
		if !slices.Equal(tags, c.keys) {
			t.Errorf("%s: scanner keys %q, json tags %q", typ.Name(), c.keys, tags)
		}
	}
}

// TestScanCanonicalAcceptsCanonicalBodies: the bodies the serving
// clients send take the scanner and decode exactly as encoding/json
// decodes them, and every column slice is allocated at its length.
func TestScanCanonicalAcceptsCanonicalBodies(t *testing.T) {
	for _, body := range [][]byte{
		mustJSON(t, datasetBody(serveDataset(t, 3, 5))),
		[]byte(`{"name":"db","tables":[{"name":"t0","pk":0,"cols":[{"name":"c0","data":[0,-1,9223372036854775807,-9223372036854775808]}]}],"fks":[]}`),
		[]byte(" {\n\t\"fks\" : [ ] , \"tables\" : [ { \"cols\" : [ { \"data\" : [ -0 , 1 ] } ] } ] , \"name\" : \"db\" } \r\n"),
		[]byte(`{"name":"db","tables":[{"name":"t0","cols":[{"name":"c0","data":null}]},{"cols":null}],"fks":null}`),
		[]byte(`{}`),
	} {
		if _, err := strictDecode[datasetRequest](t, body); err != nil {
			t.Fatal(err)
		}
		var got datasetRequest
		if !scanCanonical(body, &got) {
			t.Fatalf("scanner declined canonical /datasets body %.200s", body)
		}
		for _, tp := range got.Tables {
			for _, cp := range tp.Cols {
				if cap(cp.Data) != len(cp.Data) {
					t.Fatalf("column of %d values has capacity %d", len(cp.Data), cap(cp.Data))
				}
			}
		}
	}
	for _, body := range [][]byte{
		estimateBatchBody(t, 64),
		[]byte(`{"dataset":"db1","model":"MSCN","query":{"tables":[0],"preds":[{"table":0,"col":1,"lo":1,"hi":5}]}}`),
		[]byte(`{"queries":[{"tables":[]},{"joins":[],"preds":[]}],"dataset":"db1"}`),
		[]byte(`{"query":{"tables":[0],"joins":null,"preds":null}}`),
		[]byte(`{"queries":null}`),
	} {
		if _, err := strictDecode[estimateRequest](t, body); err != nil {
			t.Fatal(err)
		}
		if !scanCanonical(body, new(estimateRequest)) {
			t.Fatalf("scanner declined canonical /estimate body %.200s", body)
		}
	}
}

// TestScanCanonicalDeclines: anything outside the canonical form goes to
// encoding/json, which owns the answer.
func TestScanCanonicalDeclines(t *testing.T) {
	for _, body := range []string{
		`{"Name":"db"}`,                         // case variant
		`{"name":"a","name":"b"}`,               // duplicate key
		`{"name":"d\u0062"}`,                    // escape
		`{"name":"dβ"}`,                         // non-ASCII
		`{"name":null}`,                         // null
		`{"tables":[{"pk":null}]}`,              // null pointer field
		`{"tables":[{"cols":[{"data":[01]}]}]}`, // leading zero
		`{"tables":[{"cols":[{"data":[1.0]}]}]}`,
		`{"tables":[{"cols":[{"data":[1e3]}]}]}`,
		`{"tables":[{"cols":[{"data":[9223372036854775808]}]}]}`,
		`{"tables":[{"cols":[{"data":[-9223372036854775809]}]}]}`,
		`{"tables":[{"cols":[{"data":[1,]}]}]}`,
		`{"tables":[{"cols":[{"data":[,1]}]}]}`,
		`{"tables":[{"cols":[{"data":[-,1]}]}]}`,
		`{"tables":[{"cols":[{"data":[1 2]}]}]}`,
		`{"tables":[{"cols":[{"data":[null]}]}]}`,
		`{"tables":[{"cols":[{"data":nul}]}]}`,
		`{"name":"db"} x`, // bytes after the value
		`{"name":"db"}{}`,
		`{"rows":1}`, // unknown key
		`[]`,
		``,
	} {
		if scanCanonical([]byte(body), new(datasetRequest)) {
			t.Errorf("scanner accepted non-canonical /datasets body %s", body)
		}
	}
	for _, body := range []string{
		`{"query":null}`,
		`{"queries":[null]}`,
		`{"query":{"tables":[null]}}`,
		`{"query":{"tables":[,,]}}`,
		`{"query":{"tables":[0],"tables":[1]}}`,
		`{"query":{"preds":[{"lo":-0.5}]}}`,
		`{"query":{"Tables":[0]}}`,
	} {
		if scanCanonical([]byte(body), new(estimateRequest)) {
			t.Errorf("scanner accepted non-canonical /estimate body %s", body)
		}
	}
	// A malformed array allocates nothing: a run of commas is shorter
	// than the integers its commas separate would be.
	commas := []byte(`{"tables":[{"cols":[{"data":[` + strings.Repeat(",", maxDatasetCells-1) + `]}]}]}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	accepted := scanCanonical(commas, new(datasetRequest))
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; accepted || d > 1<<20 {
		t.Errorf("scanner on a column of %d commas: accepted %v, allocated %d bytes", maxDatasetCells-1, accepted, d)
	}
	if scanCanonical([]byte(`{}`), new(trainRequest)) {
		t.Error("scanner accepted a body for a type it does not decode")
	}
}

// largestArrivalBody encodes a dataset the size of the largest
// tenant-churn arrival in perfbench: 3 tables of 50k rows, 4 columns each.
func largestArrivalBody(tb testing.TB) []byte {
	tb.Helper()
	p := datagen.DefaultParams(26)
	p.Tables = 3
	p.MinRows, p.MaxRows = 50000, 50000
	p.MinCols, p.MaxCols = 4, 4
	d, err := datagen.Generate("arrival", p)
	if err != nil {
		tb.Fatal(err)
	}
	return mustJSON(tb, datasetBody(d))
}

// estimateBatchBody encodes an /estimate batch of n two-table join
// queries with two range predicates each.
func estimateBatchBody(tb testing.TB, n int) []byte {
	tb.Helper()
	qs := make([]*queryPayload, n)
	for i := range qs {
		qs[i] = &queryPayload{
			Tables: []int{0, 1},
			Joins:  []joinPayload{{LeftTable: 1, LeftCol: 1, RightTable: 0, RightCol: 0}},
			Preds: []predPayload{
				{Table: 0, Col: 1, Lo: int64(i), Hi: int64(100 + 7*i)},
				{Table: 1, Col: 0, Lo: -25, Hi: int64(40000 + i)},
			},
		}
	}
	return mustJSON(tb, map[string]any{"dataset": "bench", "model": "MSCN", "queries": qs})
}

func mustJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	enc, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return enc
}
