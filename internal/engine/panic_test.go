package engine

import (
	"runtime"
	"testing"

	"repro/internal/resilience"
)

// TestCardinalityBatchPanicReachesCaller: a query that panics inside a
// batch worker (here one naming a table the dataset does not have) must
// surface on the calling goroutine as a *resilience.PanicError, where the
// serving layer's fences catch it — not kill the process from a worker.
func TestCardinalityBatchPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	d := tinyDataset(t, 3, 1)
	qs := make([]*Query, 64)
	for i := range qs {
		qs[i] = &Query{Tables: []int{0}}
	}
	qs[41] = &Query{Tables: []int{7}}
	defer func() {
		pe, ok := recover().(*resilience.PanicError)
		if !ok {
			t.Fatalf("CardinalityBatch did not re-raise the worker panic as *resilience.PanicError")
		}
		if len(pe.Stack) == 0 || pe.Value == nil {
			t.Fatalf("PanicError lost the worker's value or stack: %+v", pe)
		}
	}()
	CardinalityBatch(d, qs)
	t.Fatal("CardinalityBatch returned normally on a panicking query")
}
