// Querygen: the paper's benchmarking-query-generation scenario (Example 1:
// "if a user aims at generating millions of benchmarking queries with
// cardinality constraints, the CE step of the generator needs to be
// efficient, so she is likely to choose MSCN").
//
// The example selects a CE model for the same dataset under two different
// requirements — accuracy-first (query optimization) and efficiency-first
// (bulk query generation) — and then actually drives a query generator
// with the efficiency-first pick, reporting the throughput difference
// against the accuracy-first pick.
//
// Run with: go run ./examples/querygen
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/feature"
	"repro/internal/testbed"
	"repro/internal/workload"
)

func main() {
	sc := experiments.QuickScale()
	sc.TrainDatasets = 20
	featCfg := feature.DefaultConfig()

	fmt.Println("Training AutoCE offline...")
	ds, err := datagen.GenerateCorpus(sc.TrainDatasets, 5, datagen.DefaultParams(1), 21)
	if err != nil {
		log.Fatal(err)
	}
	labeled, err := experiments.LabelDatasets(ds, sc, featCfg, 23)
	if err != nil {
		log.Fatal(err)
	}
	samples := make([]*core.Sample, len(labeled))
	for i, ld := range labeled {
		samples[i] = ld.Sample()
	}
	cfg := core.DefaultConfig(featCfg.VertexDim())
	cfg.Epochs = 15
	adv, err := core.Train(samples, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The target dataset the benchmark queries are generated against.
	p := datagen.DefaultParams(77)
	p.Tables = 2
	target, err := datagen.Generate("bench-target", p)
	if err != nil {
		log.Fatal(err)
	}
	g, err := feature.Extract(target, featCfg)
	if err != nil {
		log.Fatal(err)
	}
	accPick := adv.Recommend(g, 1.0).Model // accuracy-first
	effPick := adv.Recommend(g, 0.1).Model // efficiency-first
	fmt.Printf("accuracy-first pick:   %s\n", testbed.CandidateModelLabel(accPick))
	fmt.Printf("efficiency-first pick: %s\n", testbed.CandidateModelLabel(effPick))

	// Train both picks on the target and race them through the generator
	// loop: propose a query, estimate its cardinality, keep it when the
	// estimate falls in the wanted range.
	// The picks are candidate-set positions, and a candidate-only run's
	// Models are the candidates in that order.
	prep, err := testbed.PrepareCandidates(target, sc.TestbedConfig(31))
	if err != nil {
		log.Fatal(err)
	}
	res, err := prep.Run()
	if err != nil {
		log.Fatal(err)
	}
	race := func(model int) (kept int, elapsed time.Duration) {
		est := res.Models[model]
		proposals := workload.Generate(target, workload.DefaultConfig(300, 37))
		t0 := time.Now()
		for _, q := range proposals {
			c := est.Estimate(q)
			if c >= 10 && c <= 10000 { // the cardinality constraint
				kept++
			}
		}
		return kept, time.Since(t0)
	}
	for _, pick := range []int{accPick, effPick} {
		kept, elapsed := race(pick)
		fmt.Printf("generator with %-10s kept %3d/300 queries, CE time %8v (%.0f est/s)\n",
			testbed.CandidateModelLabel(pick), kept, elapsed.Round(time.Microsecond),
			300/elapsed.Seconds())
	}
}
