package main

// Tail-latency benchmarks for the serving hot path. Beyond the usual
// ns/op, these report p50/p99 request latency (b.ReportMetric with
// "p50-ns"/"p99-ns" units) measured per request across all parallel
// workers via internal/latency histograms, and emit the full histogram
// as a "HIST <name> <sparse>" line — cmd/benchcheck parses both and
// gates the p99 against ci/bench_baseline.json, so a tail regression
// fails CI even when the mean stays flat.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/latency"
)

// benchServe builds a served tenant and returns encoded /estimate bodies
// cycling over nq distinct range queries, batched batch at a time.
func benchServe(b *testing.B, nq, batch int) (*httptest.Server, [][]byte) {
	b.Helper()
	_, ts := serveWithOpts(b, nil, serveOptions{})
	d := serveDataset(b, 1, 301)
	d.Name = "bench"
	onboardAndTrain(b, ts, d, "Postgres")
	queries := rangeQueryBodies(d, nq)
	var bodies [][]byte
	for i := 0; i < nq; i++ {
		var payload map[string]any
		if batch <= 1 {
			payload = map[string]any{"dataset": "bench", "query": queries[i]}
		} else {
			qs := make([]map[string]any, batch)
			for j := range qs {
				qs[j] = queries[(i+j)%nq]
			}
			payload = map[string]any{"dataset": "bench", "queries": qs}
		}
		enc, err := json.Marshal(payload)
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, enc)
	}
	return ts, bodies
}

// benchRequests drives b.N POSTs through parallel workers, each timing
// its own requests into a private histogram; the merged histogram feeds
// the reported quantiles.
func benchRequests(b *testing.B, ts *httptest.Server, bodies [][]byte) {
	var mu sync.Mutex
	var merged latency.Histogram
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var h latency.Histogram
		i := 0
		for pb.Next() {
			body := bodies[i%len(bodies)]
			i++
			t0 := time.Now()
			resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			// Drain before closing so the connection returns to the
			// keep-alive pool; otherwise every request dials anew and the
			// benchmark times TCP setup, not the server.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			h.Record(time.Since(t0))
			if resp.StatusCode != http.StatusOK {
				b.Errorf("/estimate returned %d", resp.StatusCode)
				return
			}
		}
		mu.Lock()
		merged.Merge(&h)
		mu.Unlock()
	})
	b.StopTimer()
	if merged.Count() > 0 {
		qs := merged.Quantiles(0.50, 0.99)
		b.ReportMetric(float64(qs[0]), "p50-ns")
		b.ReportMetric(float64(qs[1]), "p99-ns")
		fmt.Printf("HIST %s %s\n", b.Name(), merged.Sparse())
	}
}

// BenchmarkServeEstimate is the single-query hot path: HTTP decode,
// snapshot resolution, admission, one-model inference.
func BenchmarkServeEstimate(b *testing.B) {
	ts, bodies := benchServe(b, 8, 1)
	benchRequests(b, ts, bodies)
}

// BenchmarkServeEstimateBatch64 is the batched ride: one request, 64
// queries through EstimateBatch's chunked path.
func BenchmarkServeEstimateBatch64(b *testing.B) {
	ts, bodies := benchServe(b, 8, 64)
	benchRequests(b, ts, bodies)
}

// BenchmarkDecodeDatasetPayload decodes one /datasets body the size of
// the largest tenant-churn arrival (3 tables × 50k rows × 4 columns)
// through the request decoder.
func BenchmarkDecodeDatasetPayload(b *testing.B) {
	benchDecode[datasetRequest](b, largestArrivalBody(b))
}

// BenchmarkDecodeWideDatasetPayload decodes a body of the same shape
// whose values have 8 to 12 digits, half of them negative: the
// scanner's int64 path, which BenchmarkDecodeDatasetPayload's mostly
// short values rarely reach.
func BenchmarkDecodeWideDatasetPayload(b *testing.B) {
	benchDecode[datasetRequest](b, wideArrivalBody(b))
}

// BenchmarkDecodeDeclinedDatasetPayload decodes the same body with one
// case-variant key near its end ("Name" for the last table's name): the
// scanner reads and allocates nearly all of it before it declines, and
// encoding/json then decodes it again. This is the worst case a
// non-canonical body pays for the scanner.
func BenchmarkDecodeDeclinedDatasetPayload(b *testing.B) {
	body := largestArrivalBody(b)
	i := bytes.LastIndex(body, []byte(`"name":`))
	copy(body[i:], `"Name":`)
	if scanCanonical(body, new(datasetRequest)) {
		b.Fatal("scanner accepted a case-variant key")
	}
	benchDecode[datasetRequest](b, body)
}

// BenchmarkDecodeEstimateBatch64 decodes one 64-query /estimate body
// through the request decoder.
func BenchmarkDecodeEstimateBatch64(b *testing.B) {
	benchDecode[estimateRequest](b, estimateBatchBody(b, 64))
}

// benchDecode times decodeBody on body. It reports no MB/s: benchcheck
// gates every reported unit as lower-is-better.
func benchDecode[T any](b *testing.B, body []byte) {
	b.ReportAllocs()
	for b.Loop() {
		var req T
		if err := decodeBody(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}
