package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. Empty input gives NaN.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailQuantile picks the highest of p99.9, p99, p95, p90 and p50 that
// has at least ten samples beyond it, as the label ("p99") and quantile.
func tailQuantile(n int) (string, float64) {
	for _, c := range []struct {
		label string
		p     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}} {
		if float64(n)*(1-c.p) >= 10-1e-9 { // tolerance for 1-p rounding
			return c.label, c.p
		}
	}
	return "p50", 0.5
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the end-to-end metrics (printed in the final JSON line)
// and a human-readable detail section with every figure the workload
// measured, each with its unit and sample count.
type report struct {
	layers  map[string]metric // traced runs: the per-layer metrics
	metrics map[string]metric
	detail  []string
	failed  []string // correctness or sanity failures
	// attempted and errors count the workload's operations.
	attempted, errors int
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, layers: map[string]metric{}}
}

// layer records a per-layer metric of a traced run.
func (r *report) layer(name, unit string, v float64) {
	r.layers[name] = metric{Value: v, Unit: unit}
}

// absorb copies the per-layer metrics of a probe report that r has not
// measured itself, and the probe's failures.
func (r *report) absorb(pr *report) {
	for name, m := range pr.layers {
		if _, ok := r.layers[name]; !ok {
			r.layers[name] = m
		}
	}
	r.failed = append(r.failed, pr.failed...)
}

// set records an end-to-end metric.
func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note records a detail figure: name, value, unit, sample count (n < 0:
// not a sampled figure).
func (r *report) note(name, unit string, v float64, n int) {
	line := fmt.Sprintf("%-40s %14s %-6s", name, strconv.FormatFloat(v, 'g', 6, 64), unit)
	if n >= 0 {
		line += fmt.Sprintf("  n=%d", n)
	}
	r.detail = append(r.detail, line)
}

// timing records the median and highest well-sampled tail of xs (ms)
// under name_p50_ms and name_<tail>_ms.
func (r *report) timing(name string, xs []float64) {
	r.note(name+"_p50_ms", "ms", median(xs), len(xs))
	if label, p := tailQuantile(len(xs)); label != "p50" {
		r.note(name+"_"+label+"_ms", "ms", quantile(xs, p), len(xs))
	}
}

// check records a correctness or sanity failure when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed = append(r.failed, fmt.Sprintf(format, args...))
	}
}

// procCPU reads utime+stime (CPU time) of a process from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// clkTck is USER_HZ, fixed at 100 on Linux.
const clkTck = 100

// selfCPU is this process's CPU time at nanosecond resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM (peak resident set) of a process in MiB.
func peakRSSMB(pid int) (float64, error) { return statusMB(pid, "VmHWM:") }

// statusMB reads one kB field of /proc/<pid>/status in MiB.
func statusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field) {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}
