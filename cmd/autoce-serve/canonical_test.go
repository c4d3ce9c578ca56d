package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
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
		[]byte("{\"tables\":[{\"cols\":[{\"data\":[ 1 , 22 ,333, 4444\n,\t55555\r]},{\"data\":[\n7 ]}]}]}"),
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
	for _, v := range acceptedIntegers() {
		for _, body := range integerBodies(v) {
			if _, err := strictDecode[datasetRequest](t, body); err != nil {
				t.Fatal(err)
			}
			if !scanCanonical(body, new(datasetRequest)) {
				t.Fatalf("scanner declined canonical /datasets body %s", body)
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
	for _, v := range declinedIntegers() {
		for _, body := range integerBodies(v) {
			if scanCanonical(body, new(datasetRequest)) {
				t.Errorf("scanner accepted non-canonical /datasets body %q", body)
			}
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

// acceptedIntegers are canonical integers around the edges of the
// scanner's fast path: 1 to 19 digits (its 7/8-digit limit included),
// zeros that do not lead, signs, and the ends of the int64 range.
func acceptedIntegers() []string {
	vs := []string{"0", "-0", "-1", "-1234567", "-12345678", "9999999", "10000000",
		"99999999", "100000000", "999999999", "9223372036854775807", "-9223372036854775808"}
	for n := 1; n <= 19; n++ {
		vs = append(vs, "1234567890123456789"[:n], "1"+strings.Repeat("0", n-1))
		if n < 19 {
			vs = append(vs, strings.Repeat("9", n))
		}
	}
	return vs
}

// declinedIntegers are array elements outside the canonical form: a
// leading zero at every length the fast path sees, numbers past either
// end of the int64 range, a fraction, an exponent, a plus sign, and
// bytes of 0x80 and above right after digits.
func declinedIntegers() []string {
	vs := []string{"00", "00000000", "00000001", "-01", "-", "+1", "1.5", "1e3", "1E3",
		"12345678.5", "9999999999999999999", "9223372036854775808", "-9223372036854775809",
		"1\x80", "1234567\xff", "12\xc3\xa9", "0x1"}
	for n := 1; n <= 8; n++ {
		vs = append(vs, "0"+"12345678"[:n])
	}
	return vs
}

// integerBodies places v in /datasets bodies at the three places the
// scanner reads an element differently: first in an array, after a
// comma, and last, ending 6 bytes before the body's end, so that the
// eight bytes from a 1-digit value would run past the body and those
// from a 2-digit value just fit.
func integerBodies(v string) [][]byte {
	return [][]byte{
		[]byte(`{"tables":[{"cols":[{"data":[` + v + `,5]}]}],"name":"padding"}`),
		[]byte(`{"tables":[{"cols":[{"data":[5,` + v + `]}]}],"name":"padding"}`),
		[]byte(`{"tables":[{"cols":[{"data":[5,` + v + `]}]}]}`),
	}
}

// TestShortRunAgreesWithInt64: wherever the fast path takes a digit
// run, int64 takes the same bytes as the same value. Buffers are drawn
// from bytes that each end or extend a digit run.
func TestShortRunAgreesWithInt64(t *testing.T) {
	const alphabet = "0123456789000999-+ ,]./:e\x80\xff"
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 16)
	taken := 0
	for range 200000 {
		n := 8 + rng.Intn(len(buf)-7)
		for i := range n {
			buf[i] = alphabet[rng.Intn(len(alphabet))]
		}
		w := binary.LittleEndian.Uint64(buf)
		r := shortRun(w)
		if r == 0 {
			continue
		}
		taken++
		v := foldRun(w, r)
		slow := &scanner{buf: buf[:n]}
		if u, ok := slow.int64(); !ok || u != v || slow.pos != r {
			t.Fatalf("%q: fast path read %d up to %d, int64 read %d up to %d (ok %v)",
				buf[:n], v, r, u, slow.pos, ok)
		}
	}
	if taken == 0 {
		t.Fatal("the fast path took no integer")
	}
}

// largestArrivalBody encodes a dataset the size of the largest
// tenant-churn arrival in perfbench: 3 tables of 50k rows, 4 columns each.
func largestArrivalBody(tb testing.TB) []byte {
	return mustJSON(tb, datasetBody(largestArrival(tb)))
}

// wideArrivalBody encodes the same tables with every value replaced by
// one of 8 to 12 digits (digit count uniform), half of them negative, so
// that each value takes the scanner's int64 path, not its fast path.
func wideArrivalBody(tb testing.TB) []byte {
	d := largestArrival(tb)
	rng := rand.New(rand.NewSource(27))
	for _, t := range d.Tables {
		for _, c := range t.Cols {
			for i := range c.Data {
				lo := int64(math.Pow10(7 + rng.Intn(5)))
				c.Data[i] = lo + rng.Int63n(9*lo)
				if rng.Intn(2) == 0 {
					c.Data[i] = -c.Data[i]
				}
			}
		}
	}
	return mustJSON(tb, datasetBody(d))
}

func largestArrival(tb testing.TB) *dataset.Dataset {
	tb.Helper()
	p := datagen.DefaultParams(26)
	p.Tables = 3
	p.MinRows, p.MaxRows = 50000, 50000
	p.MinCols, p.MaxCols = 4, 4
	d, err := datagen.Generate("arrival", p)
	if err != nil {
		tb.Fatal(err)
	}
	return d
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
