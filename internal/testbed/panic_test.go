package testbed

import (
	"runtime"
	"testing"

	"repro/internal/ce"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// fitPanics is a candidate whose training crashes.
type fitPanics struct{}

type fitPanicValue struct{}

func (fitPanics) Name() string                                 { return "FitPanics" }
func (fitPanics) Fit(*ce.TrainInput) error                     { panic(fitPanicValue{}) }
func (fitPanics) Estimate(*workload.Query) float64             { return 1 }
func (fitPanics) EstimateBatch(qs []*workload.Query) []float64 { return make([]float64, len(qs)) }

// TestTrainAllPanicReachesCaller: a model whose Fit panics on a training
// worker must surface on TrainAll's caller as a *resilience.PanicError
// carrying the original value, not crash the process.
func TestTrainAllPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	var preps []*Prepared
	for seed := int64(1); seed <= 2; seed++ {
		p, err := Prepare(fixture(t, 1, seed), fastCfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		preps = append(preps, p)
	}
	preps[1].Models[0] = fitPanics{}
	defer func() {
		pe, ok := recover().(*resilience.PanicError)
		if !ok {
			t.Fatalf("TrainAll did not re-raise the Fit panic as *resilience.PanicError")
		}
		if _, ok := pe.Value.(fitPanicValue); !ok {
			t.Fatalf("PanicError carries %#v, want the Fit panic value", pe.Value)
		}
	}()
	TrainAll(preps, 4, nil)
	t.Fatal("TrainAll returned normally although a Fit panicked")
}
