package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/ce"
)

// The correctness checks must reject tampered answers.

func TestCheckEstimatesRejectsAlteredEstimates(t *testing.T) {
	good := []float64{1, 2.5, 1e6}
	if err := checkEstimates(good, 3); err != nil {
		t.Fatalf("valid estimates rejected: %v", err)
	}
	for _, bad := range [][]float64{{1, 0.5, 3}, {1, math.NaN(), 3}, {1, math.Inf(1), 3}, {1, -2, 3}} {
		if checkEstimates(bad, 3) == nil {
			t.Errorf("accepted %v", bad)
		}
	}
	if checkEstimates(good, 4) == nil {
		t.Error("accepted a short answer")
	}
}

func TestCheckAnswerRejectsWrongTenant(t *testing.T) {
	r := estimateResp{Dataset: "serve01", Model: "MSCN", Estimates: []float64{4}}
	if err := checkAnswer(r, "serve01", "MSCN", 1); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	if checkAnswer(r, "serve02", "MSCN", 1) == nil {
		t.Error("accepted another tenant's answer")
	}
	if checkAnswer(r, "serve01", "LW-NN", 1) == nil {
		t.Error("accepted another model's answer")
	}
}

func TestCheckSameRejectsOneBitChange(t *testing.T) {
	want := []float64{3.25, 17}
	got := []float64{3.25, math.Nextafter(17, 18)}
	if checkSame(want, want) != nil {
		t.Fatal("identical answers rejected")
	}
	if checkSame(got, want) == nil {
		t.Error("accepted an answer one ulp off")
	}
}

func TestCheckReadRejectsChangedColdLoadAnswer(t *testing.T) {
	spec, _ := ce.Lookup("MSCN")
	tn := &tenant{name: "read00", model: "MSCN", spec: spec, ref: []float64{12.5, 40}}
	ok := estimateResp{Dataset: "read00", Model: "MSCN", Estimates: []float64{40}}
	if err := checkRead(tn, 1, ok); err != nil {
		t.Fatalf("answer equal to the post-/train reference rejected: %v", err)
	}
	changed := estimateResp{Dataset: "read00", Model: "MSCN", Estimates: []float64{40.000001}}
	if checkRead(tn, 1, changed) == nil {
		t.Error("accepted a cold-load answer that differs from the post-/train answer")
	}
	// Sampling models advance an RNG per estimate: no equality asserted.
	uae, _ := ce.Lookup("UAE")
	tn.spec, tn.model = uae, "UAE"
	changed.Model = "UAE"
	if err := checkRead(tn, 1, changed); err != nil {
		t.Errorf("asserted equality for a non-concurrent model: %v", err)
	}
}

func TestCheckUnit(t *testing.T) {
	if checkUnit([]float64{0, 0.5, 1}, 3) != nil {
		t.Fatal("valid scores rejected")
	}
	if checkUnit([]float64{0, 1.01, 1}, 3) == nil || checkUnit([]float64{math.NaN()}, 1) == nil {
		t.Error("accepted a score outside [0,1]")
	}
}

// A failed check suppresses the result line and fails the run.
func TestEmitFailsWithoutResult(t *testing.T) {
	r := newReport()
	for _, m := range endToEnd {
		r.set(m.name, m.unit, 1.5)
	}
	r.attempted = 10
	var out bytes.Buffer
	if code := emit(&out, options{workload: "x"}, r); code != 0 {
		t.Fatalf("clean report exited %d", code)
	}
	last := lastLine(out.String())
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metric
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil || !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("bad result line %q: %v", last, err)
	}

	r.check(false, "tampered")
	out.Reset()
	if code := emit(&out, options{workload: "x"}, r); code == 0 {
		t.Fatal("a failed check exited 0")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Fatal("a failed run printed a result line")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// Every metric name is well-formed, carries a unit, is unique, and
// matches BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label string
		code  []declared
		json  []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, bj.EndToEnd}, {"per_layer", perLayer, bj.PerLayer}} {
		seen := map[string]bool{}
		for _, m := range c.code {
			if !metricName.MatchString(m.name) || m.unit == "" || seen[m.name] {
				t.Errorf("%s: bad or duplicate metric %q (unit %q)", c.label, m.name, m.unit)
			}
			seen[m.name] = true
		}
		if len(c.code) != len(c.json) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", c.label, len(c.code), len(c.json))
		}
		for i := range c.code {
			if c.code[i].name != c.json[i].Name || c.code[i].unit != c.json[i].Unit {
				t.Errorf("%s[%d]: code %v, BENCHMARK.json %v", c.label, i, c.code[i], c.json[i])
			}
		}
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "build", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "fit", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "fit", Start: 30, End: 70}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "save", Start: 80, End: 90},
	}
	self := selfTimes(spans)
	if got := self["build"]; got != 30*time.Nanosecond {
		t.Errorf("build self time %v, want 30ns", got)
	}
	if got := totals(spans)["fit"]; got != 80*time.Nanosecond {
		t.Errorf("fit total %v, want 80ns", got)
	}
}

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{10000, "p99.9"}, {1000, "p99"}, {999, "p95"}, {200, "p95"}, {100, "p90"}, {99, "p50"}} {
		if got, _ := tailQuantile(c.n); got != c.want {
			t.Errorf("n=%d: %s, want %s", c.n, got, c.want)
		}
	}
}

// A traced run that did not measure a declared per-layer metric fails;
// no figure is filled in for it.
func TestEmitFailsOnUnmeasuredLayer(t *testing.T) {
	r := newReport()
	for _, m := range perLayer[1:] {
		r.layer(m.name, m.unit, 1)
	}
	r.attempted = 1
	var out bytes.Buffer
	if code := emit(&out, options{workload: "x", trace: true}, r); code == 0 || strings.Contains(out.String(), `"correct"`) {
		t.Fatalf("a missing %s passed (exit %d)", perLayer[0].name, code)
	}
	r = newReport()
	for _, m := range perLayer {
		r.layer(m.name, m.unit, 1)
	}
	r.attempted = 1
	out.Reset()
	if code := emit(&out, options{workload: "x", trace: true}, r); code != 0 {
		t.Fatalf("a complete traced report exited %d", code)
	}
}
