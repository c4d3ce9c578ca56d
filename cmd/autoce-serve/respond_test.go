package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/workload"
)

// jsonEncoding is what writeJSON sends for resp, or ok false when
// encoding/json refuses it.
func jsonEncoding(resp *estimateResponse) ([]byte, bool) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// TestEstimateResponseMatchesEncodingJSON: the canonical encoder writes
// every response encoding/json writes byte for byte, at the values where
// encoding/json's number form changes (zeros, subnormals, the 1e-6 and
// 1e21 cutoffs, ClampCard's maximum), for 1 and 10,000 estimates and the
// single-query estimate field, and declines only strings that need an
// escape and the non-finite values encoding/json refuses.
func TestEstimateResponseMatchesEncodingJSON(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1, 1.5, 12345.678, 1e-6, 9.999999999999999e-7, 1e-7,
		1e20, 1e21, 9.999999999999999e20, 123456789e13, 5e-324, -5e-324,
		math.SmallestNonzeroFloat64 * 3, 2.2250738585072009e-308, 2.2250738585072014e-308,
		workload.ClampCard(math.Inf(1)), -math.MaxFloat64, 1e-100, 1e100,
	}
	rng := rand.New(rand.NewSource(37))
	many := make([]float64, 10000)
	for i := range many {
		many[i] = workload.ClampCard(math.Exp(rng.Float64() * 60))
	}
	var cases []estimateResponse
	for _, e := range edges {
		cases = append(cases,
			estimateResponse{Dataset: "db1", Model: "MSCN", Estimates: []float64{e}},
			estimateResponse{Dataset: "db1", Model: "MSCN", Estimate: e, Estimates: []float64{e}})
	}
	cases = append(cases,
		estimateResponse{Dataset: "tenant-7", Model: "LW-NN", Estimates: edges},
		estimateResponse{Dataset: "big", Model: "UAE", Estimates: many},
		estimateResponse{Dataset: "", Model: "", Estimates: []float64{}},
		estimateResponse{Dataset: "d", Model: "m"},
		estimateResponse{Dataset: "a b/c.d~!#$%'()*+,-:;=?@[]^_`{|}", Model: "Postgres", Estimates: []float64{1}},
	)
	for _, c := range cases {
		got, ok := appendEstimateResponse(nil, &c)
		want, _ := jsonEncoding(&c)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("%+.40v: canonical %q (ok %v), encoding/json %q", c, got, ok, want)
		}
	}

	declined := []estimateResponse{
		{Dataset: `a"b`, Model: "MSCN", Estimates: []float64{1}},
		{Dataset: `a\b`, Model: "MSCN", Estimates: []float64{1}},
		{Dataset: "<tenant>", Model: "MSCN", Estimates: []float64{1}},
		{Dataset: "a&b", Model: "MSCN", Estimates: []float64{1}},
		{Dataset: "tab\there", Model: "MSCN", Estimates: []float64{1}},
		{Dataset: "naïve", Model: "MSCN", Estimates: []float64{1}},
		{Dataset: "d", Model: "MSCN", Estimates: []float64{1, math.NaN()}},
		{Dataset: "d", Model: "MSCN", Estimate: math.Inf(1), Estimates: []float64{1}},
	}
	for _, c := range declined {
		if got, ok := appendEstimateResponse(nil, &c); ok {
			t.Fatalf("%+v: canonical encoder accepted it as %q", c, got)
		}
		// writeEstimate answers a declined response exactly as writeJSON.
		viaEstimate, viaJSON := httptest.NewRecorder(), httptest.NewRecorder()
		writeEstimate(viaEstimate, &c)
		writeJSON(viaJSON, 200, &c)
		if viaEstimate.Code != viaJSON.Code || viaEstimate.Body.String() != viaJSON.Body.String() ||
			viaEstimate.Header().Get("Content-Type") != viaJSON.Header().Get("Content-Type") {
			t.Fatalf("%+v: writeEstimate answered %d %q, writeJSON %d %q", c, viaEstimate.Code, viaEstimate.Body, viaJSON.Code, viaJSON.Body)
		}
	}

	// An accepted response goes out with writeJSON's status and header.
	c := estimateResponse{Dataset: "db1", Model: "MSCN", Estimate: 3, Estimates: []float64{3}}
	viaEstimate, viaJSON := httptest.NewRecorder(), httptest.NewRecorder()
	writeEstimate(viaEstimate, &c)
	writeJSON(viaJSON, 200, &c)
	if viaEstimate.Code != viaJSON.Code || viaEstimate.Body.String() != viaJSON.Body.String() ||
		viaEstimate.Header().Get("Content-Type") != viaJSON.Header().Get("Content-Type") {
		t.Fatalf("writeEstimate answered %d %q, writeJSON %d %q", viaEstimate.Code, viaEstimate.Body, viaJSON.Code, viaJSON.Body)
	}
}

// FuzzEstimateResponse: on any names and estimates (raw float64 bits,
// so NaNs, infinities, zeros and subnormals all occur), the canonical
// encoder writes encoding/json's bytes, or declines a response that
// encoding/json refuses or that has a name encoding/json escapes or that
// is not ASCII.
func FuzzEstimateResponse(f *testing.F) {
	bits := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add("db1", "MSCN", uint64(0), bits(1, 2.5, 1e21))
	f.Add("db1", "LW-NN", math.Float64bits(7), bits(7))
	f.Add("<x>", "UAE", math.Float64bits(math.Copysign(0, -1)), bits(5e-324, 1e-7))
	f.Add("d", "m", math.Float64bits(math.NaN()), bits(math.MaxFloat64))
	f.Fuzz(func(t *testing.T, dataset, model string, single uint64, raw []byte) {
		resp := estimateResponse{Dataset: dataset, Model: model, Estimate: math.Float64frombits(single)}
		if len(raw) > 0 {
			resp.Estimates = make([]float64, len(raw)/8)
			for i := range resp.Estimates {
				resp.Estimates[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		got, ok := appendEstimateResponse(nil, &resp)
		want, jsonOK := jsonEncoding(&resp)
		if ok {
			if !jsonOK || !bytes.Equal(got, want) {
				t.Fatalf("canonical %q, encoding/json %q (ok %v)", got, want, jsonOK)
			}
			return
		}
		if jsonOK && plainJSONString(dataset) && plainJSONString(model) {
			t.Fatalf("declined a response encoding/json writes as %q", want)
		}
	})
}

// plainJSONString reports whether s is ASCII that encoding/json writes
// without an escape: a name the canonical encoder must accept.
func plainJSONString(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	enc, err := json.Marshal(s)
	return err == nil && string(enc) == `"`+s+`"`
}
