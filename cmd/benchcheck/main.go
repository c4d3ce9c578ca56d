// Command benchcheck converts `go test -bench` output into a JSON
// benchmark artifact and gates it against a checked-in baseline: the build
// fails when any baseline metric is missing from the run or regressed by
// more than the allowed factor.
//
// Beyond ns/op, every extra metric column a benchmark reports (via
// b.ReportMetric — p50-ns, p99-ns, B/op, ...) is parsed into its own
// gateable key, "BenchmarkName/unit"; ns/op keeps the bare benchmark name
// so existing baselines stay valid. A baseline that pins
// "BenchmarkServeEstimate/p99-ns" therefore fails the build on a tail
// regression even when the mean stays flat. Every key gates as
// lower-is-better, so throughput columns (any unit ending in "/s", such
// as the MB/s of b.SetBytes) are not recorded: they are higher-is-better,
// and ns/op already gates the same operation.
//
// Benchmarks may additionally print full latency histograms as
//
//	HIST <BenchmarkName> <sparse>
//
// lines (internal/latency wire form). These are collected into the JSON
// artifact for offline inspection and summarized in the report; when a
// benchmark prints several (go test runs a calibration pass before the
// measured one, and -count repeats whole runs), the one with the most
// samples wins. A mid-benchmark print also splits the result row — the
// name flushes before the benchmark body runs, the numbers after it
// returns — so the parser accepts the name and its measurements arriving
// on separate lines.
//
// CI usage (see .github/workflows):
//
//	go test -run XXX -bench 'MatMul|GIN|Train' -benchtime 100x \
//	    ./internal/nn ./internal/gnn | tee bench.txt
//	go run ./cmd/benchcheck -input bench.txt -output BENCH_nn.json \
//	    -baseline ci/bench_baseline.json -max-regress 2
//
// Refresh the baseline after an intentional performance change with
// -update, which merges this run's metrics into the baseline — keys from
// benchmarks not in this run survive, so updating from one package's
// bench output cannot silently drop another package's gates:
//
//	go run ./cmd/benchcheck -input bench.txt -baseline ci/bench_baseline.json -update
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/latency"
)

// benchName matches the benchmark-name prefix of an output line, with the
// optional -GOMAXPROCS suffix go test appends.
var benchName = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?(?:\s|$)`)

// metricPair matches one "<value> <unit>" measurement column, e.g.
// "15123 ns/op", "16544 B/op", "200703 p99-ns". The iteration count never
// matches: it is followed by another number, not a unit.
var metricPair = regexp.MustCompile(`([0-9]+(?:\.[0-9]+)?)\s+([A-Za-z][A-Za-z0-9./%_-]*)`)

// histLine matches an embedded histogram dump anywhere in a line; HIST
// lines name their benchmark themselves, so they survive go test's output
// interleaving no matter where they land.
var histLine = regexp.MustCompile(`HIST (Benchmark\S+) ([0-9:,]+)`)

// resultRow matches the measurements-only continuation line that follows
// a split benchmark name: iterations, then at least one metric column.
var resultRow = regexp.MustCompile(`^\s*\d+\s+[0-9.]+ [A-Za-z]`)

// runResults is the parsed form of one bench run and the schema of the
// JSON artifact benchcheck publishes.
type runResults struct {
	// Metrics maps gateable keys to values: the bare benchmark name for
	// ns/op, "name/unit" for every other reported unit.
	Metrics map[string]float64 `json:"metrics"`
	// Histograms maps benchmark names to internal/latency sparse dumps.
	Histograms map[string]string `json:"histograms,omitempty"`
}

func parseBench(r io.Reader) (*runResults, error) {
	res := &runResults{Metrics: map[string]float64{}, Histograms: map[string]string{}}
	histCount := map[string]uint64{}
	pending := "" // benchmark name seen without measurements yet
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if m := histLine.FindStringSubmatch(line); m != nil {
			h, err := latency.ParseSparse(m[2])
			if err != nil {
				return nil, fmt.Errorf("parsing %q: %w", line, err)
			}
			if h.Count() >= histCount[m[1]] {
				histCount[m[1]] = h.Count()
				res.Histograms[m[1]] = m[2]
			}
			// A HIST dump can share a line with a flushed benchmark name;
			// fall through so that name still registers.
		}
		if loc := benchName.FindStringSubmatchIndex(line); loc != nil {
			name := line[loc[2]:loc[3]]
			if recordMetrics(res.Metrics, name, line[loc[1]:]) {
				pending = ""
			} else {
				pending = name // measurements were interrupted; expect them on a later line
			}
			continue
		}
		if pending != "" && resultRow.MatchString(line) {
			recordMetrics(res.Metrics, pending, line)
			pending = ""
		}
	}
	if len(res.Histograms) == 0 {
		res.Histograms = nil
	}
	return res, sc.Err()
}

// recordMetrics parses every metric column in line into metrics under
// name, reporting whether any (i.e. the mandatory ns/op) was found.
// go test -count>1 repeats names; the fastest run wins, the standard
// noise-rejection choice for regression gating.
func recordMetrics(metrics map[string]float64, name, line string) bool {
	// An inline HIST dump is not a measurement column; its benchmark name
	// would otherwise pair a trailing digit with the word HIST.
	if i := strings.Index(line, "HIST "); i >= 0 {
		line = line[:i]
	}
	found := false
	for _, m := range metricPair.FindAllStringSubmatch(line, -1) {
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			continue
		}
		if strings.HasSuffix(m[2], "/s") {
			continue // throughput: higher is better, and ns/op gates the op
		}
		key := name
		if m[2] != "ns/op" {
			key = name + "/" + m[2]
		} else {
			found = true
		}
		if old, ok := metrics[key]; !ok || v < old {
			metrics[key] = v
		}
	}
	return found
}

func readBaseline(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// mergeBaseline overlays this run's metrics onto the existing baseline.
// Keys the run did not produce are preserved — a partial bench run must
// never silently drop another suite's gates from the baseline.
func mergeBaseline(base, run map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(base)+len(run))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range run {
		out[k] = v
	}
	return out
}

// gate compares the run against the baseline, printing one line per key,
// and reports whether the build must fail: any baseline key missing from
// the run, or any value beyond maxRegress times its baseline.
func gate(w io.Writer, base, got map[string]float64, maxRegress float64) bool {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		want := base[name]
		have, ok := got[name]
		if !ok {
			fmt.Fprintf(w, "MISSING  %-52s baseline %12.0f, not in this run\n", name, want)
			failed = true
			continue
		}
		ratio := have / want
		status := "ok"
		if ratio > maxRegress {
			status = "REGRESSED"
			failed = true
		}
		fmt.Fprintf(w, "%-9s%-52s %12.0f -> %12.0f (%.2fx)\n", status, name, want, have, ratio)
	}
	extra := make([]string, 0, len(got))
	for name := range got {
		if _, ok := base[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "new      %-52s %28.0f (no baseline)\n", name, got[name])
	}
	return failed
}

func main() {
	input := flag.String("input", "", "bench output file (default stdin)")
	output := flag.String("output", "", "write parsed results as a JSON artifact")
	baseline := flag.String("baseline", "", "checked-in baseline JSON to gate against")
	maxRegress := flag.Float64("max-regress", 2.0, "fail when a metric exceeds baseline by this factor")
	update := flag.Bool("update", false, "merge this run's metrics into the baseline instead of gating")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	results, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	if len(results.Metrics) == 0 {
		fatal(fmt.Errorf("no benchmark results found in input"))
	}
	for _, name := range sortedKeys(results.Histograms) {
		h, _ := latency.ParseSparse(results.Histograms[name])
		fmt.Printf("hist     %-52s %s\n", name, h.Summary())
	}
	if *output != "" {
		if err := writeJSON(*output, results); err != nil {
			fatal(err)
		}
	}
	if *baseline == "" {
		return
	}
	if *update {
		base, err := readBaseline(*baseline)
		if err != nil {
			if !os.IsNotExist(err) {
				fatal(err)
			}
			base = map[string]float64{}
		}
		merged := mergeBaseline(base, results.Metrics)
		if err := writeJSON(*baseline, merged); err != nil {
			fatal(err)
		}
		fmt.Printf("benchcheck: merged %d metrics into %s (%d total)\n",
			len(results.Metrics), *baseline, len(merged))
		return
	}

	base, err := readBaseline(*baseline)
	if err != nil {
		fatal(err)
	}
	if gate(os.Stdout, base, results.Metrics, *maxRegress) {
		fmt.Printf("benchcheck: metric regression beyond %.2gx baseline\n", *maxRegress)
		os.Exit(1)
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}
