// Command perfbench is the repository's benchmark: one program that runs
// the offline AutoCE pipeline in-process (advisor-build) and the online
// pipeline against a cmd/autoce-serve child process (estimate-serve,
// tenant-churn), checks every answer it gets, and prints the metrics
// named in BENCHMARK.json. See README.md in this directory.
//
// Usage (from the repository root, through run.sh, which builds this
// program and the server first):
//
//	bash perfbench/run.sh --workload estimate-serve --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

type options struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	serverBin string
	dir       string // per-run temporary directory, removed at exit
	traceDir  string // where traced runs write their spans
}

var workloads = map[string]func(options, *report) error{
	"advisor-build":  runAdvisorBuild,
	"estimate-serve": runEstimateServe,
	"tenant-churn":   runTenantChurn,
}

func main() {
	os.Exit(run())
}

func run() (code int) {
	var o options
	var secs, trace int
	flag.StringVar(&o.workload, "workload", "", "advisor-build, estimate-serve or tenant-churn")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&secs, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&o.serverBin, "server", "", "path to the autoce-serve binary")
	flag.StringVar(&o.traceDir, "trace-dir", "", "directory for span dumps (default: the working directory)")
	flag.Parse()
	o.seconds = time.Duration(secs) * time.Second
	o.trace = trace == 1
	fn, ok := workloads[o.workload]
	if !ok || secs < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", o.workload)
		return 2
	}
	if o.traceDir == "" {
		o.traceDir = "."
	}

	// Every exit path stops the servers: the deferred killAll covers
	// returns and panics, the signal handler covers SIGINT/SIGTERM.
	defer killAll()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		killAll()
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", s)
		os.Exit(1)
	}()
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "perfbench: panic: %v\n%s", p, debug.Stack())
			code = 1
		}
	}()

	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	o.dir = dir
	defer os.RemoveAll(dir)

	r := newReport()
	if err := fn(o, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	return emit(os.Stdout, o, r)
}

// emit prints the detail section and the final JSON line to w, and
// returns the exit code: non-zero, with no JSON line, when any check
// failed.
func emit(w io.Writer, o options, r *report) int {
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%v trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	errorShare := float64(r.errors) / float64(max(1, r.attempted))
	r.note("error_share", "ratio", errorShare, r.attempted)
	r.layer("error_share", "ratio", errorShare)
	for _, line := range r.detail {
		fmt.Fprintln(w, line)
	}
	want := endToEnd
	got := r.metrics
	if o.trace {
		want, got = perLayer, r.layers
	}
	out := map[string]metric{}
	for _, m := range want {
		v, ok := got[m.name]
		if !ok {
			r.check(false, "metric %s was not measured", m.name)
			continue
		}
		r.check(v.Unit == m.unit, "metric %s has unit %s, declared %s", m.name, v.Unit, m.unit)
		r.check(!math.IsNaN(v.Value) && !math.IsInf(v.Value, 0), "metric %s is %v", m.name, v.Value)
		out[m.name] = v
	}
	if extra := undeclared(got, want); len(extra) > 0 {
		r.check(false, "undeclared metrics %v", extra)
	}
	if len(r.failed) > 0 {
		for _, f := range r.failed {
			fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", f)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d check(s) failed; no result printed\n", len(r.failed))
		return 1
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, max(1, r.attempted), r.errors, out})
	fmt.Fprintln(w, string(line))
	return 0
}

func undeclared(got map[string]metric, want []declared) []string {
	known := map[string]bool{}
	for _, m := range want {
		known[m.name] = true
	}
	var out []string
	for name := range got {
		if !known[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// runDir returns a fresh subdirectory of the run's temporary directory.
func runDir(o options, name string) (string, error) {
	d := filepath.Join(o.dir, name)
	return d, os.MkdirAll(d, 0o755)
}
