package main

import (
	"fmt"
	"math"
)

// Correctness checks. Each holds on the program as it is: estimates obey
// the ce.Estimator contract, stateless models answer bit-identically
// however a query reaches them, and every answer names the tenant and
// model asked for. None asserts which model the advisor picks (its Se
// labels come from measured wall-clock latency) or any equality for
// NeuroCard and UAE, whose estimates advance an RNG stream.

// checkEstimates requires n estimates, each finite and >= 1.
func checkEstimates(ests []float64, n int) error {
	if len(ests) != n {
		return fmt.Errorf("%d estimates for %d queries", len(ests), n)
	}
	for i, e := range ests {
		if math.IsNaN(e) || math.IsInf(e, 0) || e < 1 {
			return fmt.Errorf("estimate %d is %v, want finite and >= 1", i, e)
		}
	}
	return nil
}

// checkAnswer requires an /estimate response to echo the requested
// dataset and model and to carry n valid estimates.
func checkAnswer(r estimateResp, dataset, model string, n int) error {
	if r.Dataset != dataset || r.Model != model {
		return fmt.Errorf("asked %s/%s, answered %s/%s (wrong tenant)", dataset, model, r.Dataset, r.Model)
	}
	return checkEstimates(r.Estimates, n)
}

// checkSame requires bit-identical answers.
func checkSame(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("answer %d is %v, want bit-identical %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkUnit requires n scores in [0, 1].
func checkUnit(xs []float64, n int) error {
	if len(xs) != n {
		return fmt.Errorf("%d scores, want %d", len(xs), n)
	}
	for i, x := range xs {
		if !(x >= 0 && x <= 1) {
			return fmt.Errorf("score %d is %v, outside [0,1]", i, x)
		}
	}
	return nil
}
