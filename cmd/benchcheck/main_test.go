package main

import (
	"strings"
	"testing"
)

func TestParseBenchSingleLine(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: repro/internal/nn
BenchmarkMatMulForward-8   	   79440	     15123 ns/op	   16544 B/op	      12 allocs/op
BenchmarkGINLayer-8        	    5000	    231000.5 ns/op
PASS
ok  	repro/internal/nn	2.1s
`
	res, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkMatMulForward":           15123,
		"BenchmarkMatMulForward/B/op":      16544,
		"BenchmarkMatMulForward/allocs/op": 12,
		"BenchmarkGINLayer":                231000.5,
	}
	for k, v := range want {
		if res.Metrics[k] != v {
			t.Errorf("metric %s = %v, want %v", k, res.Metrics[k], v)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("parsed %d metrics, want %d: %v", len(res.Metrics), len(want), res.Metrics)
	}
}

// TestParseBenchSplitRow pins the real output shape of a benchmark that
// prints mid-run: the testing package flushes the name before the body
// runs, the HIST dump lands on the name's line, and the measurements
// arrive on a line of their own.
func TestParseBenchSplitRow(t *testing.T) {
	in := `HIST BenchmarkServeEstimate 452:1
goos: linux
BenchmarkServeEstimate        	HIST BenchmarkServeEstimate 403:1,406:2,447:17
      20	    154950 ns/op	    139263 p50-ns	    200703 p99-ns
BenchmarkServeEstimateBatch64 	HIST BenchmarkServeEstimateBatch64 443:3,498:17
      20	    357394 ns/op	    311295 p50-ns	    507903 p99-ns
PASS
`
	res, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkServeEstimate":               154950,
		"BenchmarkServeEstimate/p50-ns":        139263,
		"BenchmarkServeEstimate/p99-ns":        200703,
		"BenchmarkServeEstimateBatch64":        357394,
		"BenchmarkServeEstimateBatch64/p50-ns": 311295,
		"BenchmarkServeEstimateBatch64/p99-ns": 507903,
	}
	for k, v := range want {
		if res.Metrics[k] != v {
			t.Errorf("metric %s = %v, want %v", k, res.Metrics[k], v)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("parsed %d metrics, want %d — an inline HIST dump leaked a key: %v",
			len(res.Metrics), len(want), res.Metrics)
	}
	// The calibration pass's 1-sample histogram must lose to the full run.
	if got := res.Histograms["BenchmarkServeEstimate"]; got != "403:1,406:2,447:17" {
		t.Errorf("histogram kept %q, want the 20-sample dump", got)
	}
	if got := res.Histograms["BenchmarkServeEstimateBatch64"]; got != "443:3,498:17" {
		t.Errorf("batch histogram %q", got)
	}
}

func TestParseBenchKeepsFastestAcrossCount(t *testing.T) {
	in := `BenchmarkX-8	100	2000 ns/op	500 p99-ns
BenchmarkX-8	100	1000 ns/op	900 p99-ns
BenchmarkX-8	100	3000 ns/op	700 p99-ns
`
	res, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["BenchmarkX"] != 1000 {
		t.Errorf("ns/op = %v, want fastest 1000", res.Metrics["BenchmarkX"])
	}
	if res.Metrics["BenchmarkX/p99-ns"] != 500 {
		t.Errorf("p99 = %v, want lowest 500", res.Metrics["BenchmarkX/p99-ns"])
	}
}

// TestParseBenchSkipsThroughput: a b.SetBytes benchmark's MB/s column is
// higher-is-better, so recording it would fail a faster run as REGRESSED;
// only its lower-is-better columns become keys.
func TestParseBenchSkipsThroughput(t *testing.T) {
	in := "BenchmarkDecode-2\t1000\t1500 ns/op\t 873.81 MB/s\t  256 B/op\t       3 allocs/op\n"
	res, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"BenchmarkDecode": 1500, "BenchmarkDecode/B/op": 256, "BenchmarkDecode/allocs/op": 3}
	if len(res.Metrics) != len(want) {
		t.Fatalf("metrics %v, want %v", res.Metrics, want)
	}
	for k, v := range want {
		if res.Metrics[k] != v {
			t.Errorf("%s = %v, want %v", k, res.Metrics[k], v)
		}
	}
}

func TestParseBenchRejectsMalformedHist(t *testing.T) {
	if _, err := parseBench(strings.NewReader("HIST BenchmarkX 999999:1\n")); err == nil {
		t.Fatal("out-of-range HIST bucket accepted")
	}
}

// TestGateFailsOnMissingBaseline pins the loud-failure contract: a
// baseline key absent from the run output fails the gate rather than
// passing vacuously.
func TestGateFailsOnMissingBaseline(t *testing.T) {
	base := map[string]float64{"BenchmarkGone": 100, "BenchmarkHere": 100}
	got := map[string]float64{"BenchmarkHere": 100}
	var out strings.Builder
	if !gate(&out, base, got, 2.0) {
		t.Fatal("missing baseline benchmark did not fail the gate")
	}
	if !strings.Contains(out.String(), "MISSING") || !strings.Contains(out.String(), "BenchmarkGone") {
		t.Errorf("report does not name the missing benchmark:\n%s", out.String())
	}
}

// TestGateP99Regression seeds a >2x tail regression with a flat mean and
// checks the gate trips on the p99 key alone.
func TestGateP99Regression(t *testing.T) {
	base := map[string]float64{
		"BenchmarkServeEstimate":        150000,
		"BenchmarkServeEstimate/p99-ns": 200000,
	}
	healthy := map[string]float64{
		"BenchmarkServeEstimate":        150000,
		"BenchmarkServeEstimate/p99-ns": 390000,
	}
	var out strings.Builder
	if gate(&out, base, healthy, 2.0) {
		t.Fatalf("within-budget tail failed the gate:\n%s", out.String())
	}
	regressed := map[string]float64{
		"BenchmarkServeEstimate":        150000, // mean flat
		"BenchmarkServeEstimate/p99-ns": 450000, // tail 2.25x
	}
	out.Reset()
	if !gate(&out, base, regressed, 2.0) {
		t.Fatal("2.25x p99 regression passed the gate")
	}
	if !strings.Contains(out.String(), "REGRESSED") || !strings.Contains(out.String(), "p99-ns") {
		t.Errorf("report does not flag the p99 key:\n%s", out.String())
	}
}

// TestMergeBaselinePreservesOtherSuites pins the -update fix: refreshing
// from one package's bench output must not drop other packages' gates.
func TestMergeBaselinePreservesOtherSuites(t *testing.T) {
	base := map[string]float64{"BenchmarkNN": 10, "BenchmarkServe": 20}
	run := map[string]float64{"BenchmarkServe": 25, "BenchmarkServe/p99-ns": 40}
	merged := mergeBaseline(base, run)
	want := map[string]float64{"BenchmarkNN": 10, "BenchmarkServe": 25, "BenchmarkServe/p99-ns": 40}
	if len(merged) != len(want) {
		t.Fatalf("merged %v, want %v", merged, want)
	}
	for k, v := range want {
		if merged[k] != v {
			t.Errorf("merged[%s] = %v, want %v", k, merged[k], v)
		}
	}
}
