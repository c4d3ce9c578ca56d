// Package nn sits inside the detpath scope (module-relative internal/nn):
// wall-clock reads, global rand draws, and order-sensitive map ranges must
// all fire here.
package nn

import (
	"math/rand"
	"sort"
	"time"
)

func wallClock() int64 {
	return time.Now().UnixNano() // want "time.Now"
}

func globalRand() float64 {
	return rand.Float64() // want "shared process-wide stream"
}

// seededRand constructs its own generator: clean.
func seededRand() float64 {
	r := rand.New(rand.NewSource(1))
	return r.Float64()
}

func mapAppend(m map[string]int) []string {
	var out []string
	for k := range m { // want "slice order via append"
		out = append(out, k)
	}
	return out
}

// mapAppendSorted is the collect-and-sort idiom: clean.
func mapAppendSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func mapFloatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want "float accumulation"
		sum += v
	}
	return sum
}

// mapIntCount commutes exactly: clean.
func mapIntCount(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

func mapCalls(m map[string]int, sink func(string)) {
	for k := range m { // want "calls made in iteration order"
		sink(k)
	}
}

// keyedConversion writes each count under its own key; int64(...) is a
// conversion, not a call: clean.
func keyedConversion(rows map[int64][]int32, counts map[int64]int64) {
	for v, r := range rows {
		counts[v] = int64(len(r))
	}
}

// convertedCall wraps a real call on the iteration variable in a
// conversion; the call is still made in iteration order.
func convertedCall(m map[string]int, weigh func(string) int, counts map[string]int64) {
	for k := range m { // want "calls made in iteration order"
		counts[k] = int64(weigh(k))
	}
}

// mapRNG draws per key while ranging a map: each key gets a different
// part of the stream on every run, though no iteration variable reaches
// the draw's arguments.
func mapRNG(m map[int][]int, rng *rand.Rand) {
	for k := range m { // want "RNG draws made in iteration order"
		v := m[k]
		rng.Shuffle(3, func(i, j int) { v[i], v[j] = v[j], v[i] })
	}
}

// sortedRNG draws per key in sorted key order: clean.
func sortedRNG(m map[int][]int, rng *rand.Rand) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		v := m[k]
		rng.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
	}
}

// closureRange proves map-range checks see function literals too.
func closureRange(m map[string]int) func() []string {
	return func() []string {
		var out []string
		for k := range m { // want "slice order via append"
			out = append(out, k)
		}
		return out
	}
}

func suppressedNow() int64 {
	//autoce:ignore detpath -- fixture: measured latency is the reported metric
	return time.Now().UnixNano()
}
