package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
)

// This file holds reproduction-specific ablations for design choices the
// paper's text leaves open, so this implementation had to make them: the
// adaptive similarity threshold and the KNN/IL interplay.

// AblationTauResult compares the fixed similarity threshold τ (Eq. 7 as
// written) against the per-batch adaptive quantile threshold this
// implementation defaults to.
type AblationTauResult struct {
	Weights  []float64
	Fixed    []float64 // mean D-error with Tau = 0.97
	Adaptive []float64 // mean D-error with TauQuantile = 0.7
}

// AblationTau trains two advisors differing only in threshold policy.
func AblationTau(c *Corpus) (*AblationTauResult, error) {
	cfgA := c.AdvisorConfig()
	advAdaptive, err := core.Train(c.TrainSamples(), cfgA)
	if err != nil {
		return nil, err
	}
	cfgF := c.AdvisorConfig()
	cfgF.TauQuantile = 0
	advFixed, err := core.Train(c.TrainSamples(), cfgF)
	if err != nil {
		return nil, err
	}
	res := &AblationTauResult{Weights: []float64{1.0, 0.9, 0.7, 0.5}}
	for _, wa := range res.Weights {
		res.Adaptive = append(res.Adaptive, metrics.Mean(EvalSelector(c.Test, wa, func(ld *LabeledDataset) int {
			return advAdaptive.Recommend(ld.Graph, wa).Model
		})))
		res.Fixed = append(res.Fixed, metrics.Mean(EvalSelector(c.Test, wa, func(ld *LabeledDataset) int {
			return advFixed.Recommend(ld.Graph, wa).Model
		})))
	}
	return res, nil
}

// Render prints the comparison.
func (r *AblationTauResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation — fixed vs adaptive similarity threshold (mean D-error)\n")
	b.WriteString(row("wa", "adaptive", "   fixed"))
	b.WriteString("\n")
	for i, wa := range r.Weights {
		b.WriteString(row(fmt.Sprintf("%.1f", wa),
			fmt.Sprintf("%8.4f", r.Adaptive[i]),
			fmt.Sprintf("%8.4f", r.Fixed[i])))
		b.WriteString("\n")
	}
	return b.String()
}
