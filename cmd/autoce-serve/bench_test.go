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

	"repro/internal/ce"
	"repro/internal/latency"
	"repro/internal/workload"
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

// BenchmarkHandleEstimate calls the /estimate handler in process, without
// a client or a socket, with a single query for each servable model (one
// sub-benchmark per model), so B/op and allocs/op count what the server
// itself allocates per request: decode, validation, admission, inference
// and the response encode.
func BenchmarkHandleEstimate(b *testing.B) { benchHandleEstimate(b, 1) }

// BenchmarkHandleEstimateBatch64 is BenchmarkHandleEstimate with 64
// queries per request.
func BenchmarkHandleEstimateBatch64(b *testing.B) { benchHandleEstimate(b, 64) }

func benchHandleEstimate(b *testing.B, batch int) {
	s, ts := serveWithOpts(b, nil, serveOptions{})
	d := serveDataset(b, 2, 311)
	d.Name = "bench"
	if resp, data := postJSON(b, ts, "/datasets", datasetBody(d)); resp.StatusCode != http.StatusOK {
		b.Fatalf("onboarding failed: %d %s", resp.StatusCode, data)
	}
	var queries []*queryPayload
	for _, q := range workload.Generate(d, workload.DefaultConfig(batch, 312)) {
		queries = append(queries, payloadOf(q))
	}
	for _, spec := range ce.Specs() {
		if spec.Kind == ce.Composite {
			continue
		}
		if resp, data := postJSON(b, ts, "/train", map[string]any{
			"dataset": d.Name, "model": spec.Name, "queries": 30, "sample_rows": 80,
		}); resp.StatusCode != http.StatusOK {
			b.Fatalf("training %s failed: %d %s", spec.Name, resp.StatusCode, data)
		}
		req := map[string]any{"dataset": d.Name, "model": spec.Name, "queries": queries}
		if batch == 1 {
			req = map[string]any{"dataset": d.Name, "model": spec.Name, "query": queries[0]}
		}
		body := mustJSON(b, req)
		if !scanCanonical(body, new(estimateRequest)) {
			b.Fatal("the scanner declined the benchmark's body")
		}
		b.Run(spec.Name, func(b *testing.B) {
			var w discardWriter
			r := httptest.NewRequest(http.MethodPost, "/estimate", nil)
			var rd bodyReader
			b.ReportAllocs()
			for b.Loop() {
				rd.Reset(body)
				r.Body, r.ContentLength = &rd, int64(len(body))
				w.reset()
				s.ServeHTTP(&w, r)
				if w.code != http.StatusOK {
					b.Fatalf("/estimate returned %d", w.code)
				}
			}
		})
	}
}

// payloadOf is the /estimate form of q.
func payloadOf(q *workload.Query) *queryPayload {
	p := &queryPayload{Tables: q.Tables}
	for _, j := range q.Joins {
		p.Joins = append(p.Joins, joinPayload{LeftTable: j.LeftTable, LeftCol: j.LeftCol, RightTable: j.RightTable, RightCol: j.RightCol})
	}
	for _, pr := range q.Preds {
		p.Preds = append(p.Preds, predPayload{Table: pr.Table, Col: pr.Col, Lo: pr.Lo, Hi: pr.Hi})
	}
	return p
}

// bodyReader is a request body a benchmark rewinds between requests.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status code, so a handler benchmark counts the handler's allocations.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}

func (w *discardWriter) reset() {
	clear(w.h)
	w.code = 0
}
