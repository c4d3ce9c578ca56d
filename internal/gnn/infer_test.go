package gnn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/feature"
)

// TestEmbedMatchesDynamicForward pins the pooled inference tape to the
// dynamic autodiff path across shapes, including repeated replays of the
// same pooled tape.
func TestEmbedMatchesDynamicForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := Config{InDim: 5, Hidden: 8, OutDim: 4, Layers: 2, Seed: 9}
	e := New(cfg)
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 1+rng.Intn(6), cfg.InDim)
		want := e.Forward(g).Row(0)
		for rep := 0; rep < 3; rep++ {
			got := e.Embed(g)
			for f := range want {
				if math.Abs(got[f]-want[f]) > 1e-12 {
					t.Fatalf("trial %d rep %d: pooled embed differs at %d: %g vs %g",
						trial, rep, f, got[f], want[f])
				}
			}
		}
	}
}

// TestEmbedRejectsShortRows: a graph whose later vertex row is short
// must not embed through a pooled tape that still holds the previous
// graph's value in the missing entry; it goes to the dynamic path, which
// panics on ragged rows. A wrong-size E is refused the same way.
func TestEmbedRejectsShortRows(t *testing.T) {
	cfg := Config{InDim: 4, Hidden: 8, OutDim: 4, Layers: 2, Seed: 9}
	e := New(cfg)
	full := &feature.Graph{
		V: [][]float64{{0.1, 0.2, 0.3, 0.4}, {0.5, 0.6, 0.7, 0.9}},
		E: [][]float64{{0, 1}, {1, 0}},
	}
	e.Embed(full) // leaves 0.9 in the pooled 2-vertex tape
	cases := map[string]*feature.Graph{
		"short second row": {
			V: [][]float64{{0.1, 0.2, 0.3, 0.4}, {0.5, 0.6, 0.7}},
			E: [][]float64{{0, 1}, {1, 0}},
		},
		"short E row":  {V: full.V, E: [][]float64{{0, 1}, {1}}},
		"E not n rows": {V: full.V, E: [][]float64{{0, 1}}},
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Embed accepted a malformed graph")
				}
			}()
			e.Embed(g)
		})
	}
}

// TestEmbedConcurrent runs many goroutines embedding overlapping graph
// sets through one encoder; with -race this verifies the pooled inference
// path shares no mutable state between calls.
func TestEmbedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := Config{InDim: 6, Hidden: 8, OutDim: 4, Layers: 2, Seed: 11}
	e := New(cfg)
	graphs := make([]*feature.Graph, 8)
	want := make([][]float64, len(graphs))
	for i := range graphs {
		graphs[i] = randomGraph(rng, 1+i%4, cfg.InDim)
		want[i] = e.Forward(graphs[i]).Row(0)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				gi := (w + i) % len(graphs)
				got := e.Embed(graphs[gi])
				for f := range got {
					if math.Abs(got[f]-want[gi][f]) > 1e-12 {
						errs <- "concurrent embed produced a wrong value"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
