// Command autoce runs the full AutoCE pipeline on synthetic data: generate
// a corpus, label it with the CE testbed, train the advisor with deep
// metric learning and incremental learning, and recommend a CE model for a
// target dataset under the requested accuracy/efficiency weights.
//
// Usage:
//
//	autoce -train 60 -wa 0.9 -target imdb
//	autoce -train 40 -wa 0.5 -target synthetic -target-seed 99
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/feature"
	"repro/internal/testbed"
)

func main() {
	trainN := flag.Int("train", 40, "number of training datasets to generate and label")
	queries := flag.Int("queries", 120, "workload size per dataset")
	wa := flag.Float64("wa", 0.9, "accuracy weight in [0,1]; efficiency weight is 1-wa")
	target := flag.String("target", "synthetic", "target dataset: synthetic, imdb, stats, power")
	targetDir := flag.String("target-dir", "", "load the target dataset from a CSV directory (see dataset.ReadDir) instead of -target")
	targetSeed := flag.Int64("target-seed", 4242, "seed for a synthetic target")
	seed := flag.Int64("seed", 1, "corpus seed")
	fast := flag.Bool("fast", true, "use the reduced training budget for the CE models")
	saveTo := flag.String("save", "", "after training, save the advisor to this file (gob)")
	loadFrom := flag.String("load", "", "skip training and load a saved advisor from this file")
	flag.Parse()
	if !(*wa >= 0 && *wa <= 1) { // also rejects NaN
		fmt.Fprintf(os.Stderr, "autoce: -wa %g outside [0,1]\n", *wa)
		flag.Usage()
		os.Exit(2)
	}

	sc := experiments.QuickScale()
	sc.TrainDatasets = *trainN
	sc.TestDatasets = 0
	sc.Queries = *queries
	sc.Fast = *fast
	sc.Seed = *seed

	featCfg := feature.DefaultConfig()
	var adv *core.Advisor
	if *loadFrom != "" {
		var err error
		adv, err = core.LoadFile(*loadFrom)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Loaded advisor from %s (%d labeled datasets in the RCS).\n",
			*loadFrom, adv.NumSamples())
	} else {
		fmt.Printf("Generating and labeling %d training datasets (%d queries each)...\n", *trainN, *queries)
		t0 := time.Now()
		ds, err := datagen.GenerateCorpus(*trainN, 5, paramsFor(sc), *seed)
		if err != nil {
			log.Fatal(err)
		}
		labeled, err := experiments.LabelDatasets(ds, sc, featCfg, *seed*3+7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Labeled in %v.\n", time.Since(t0).Round(time.Second))

		samples := make([]*core.Sample, len(labeled))
		for i, ld := range labeled {
			samples[i] = ld.Sample()
		}
		cfg := core.DefaultConfig(featCfg.VertexDim())
		cfg.Epochs = sc.AdvisorEpochs
		fmt.Println("Training the graph encoder with deep metric learning...")
		t0 = time.Now()
		adv, err = core.Train(samples, cfg)
		if err != nil {
			log.Fatal(err)
		}
		report := adv.IncrementalLearn(core.DefaultILConfig())
		fmt.Printf("Trained in %v (incremental learning: %d feedback, %d synthesized).\n",
			time.Since(t0).Round(time.Millisecond), report.FeedbackCount, report.Synthesized)
		if *saveTo != "" {
			if err := adv.SaveFile(*saveTo); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("Advisor saved to %s.\n", *saveTo)
		}
	}

	var err error
	var td *dataset.Dataset
	if *targetDir != "" {
		td, err = dataset.ReadDir(*targetDir)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		switch *target {
		case "imdb":
			td = datagen.IMDBLike(*targetSeed)
		case "stats":
			td = datagen.STATSLike(*targetSeed)
		case "power":
			td = datagen.PowerLike(*targetSeed)
		case "synthetic":
			p := paramsFor(sc)
			p.Tables = 3
			p.Seed = *targetSeed
			td, err = datagen.Generate("target", p)
			if err != nil {
				log.Fatal(err)
			}
		default:
			log.Fatalf("unknown target %q", *target)
		}
	}

	g, err := feature.Extract(td, featCfg)
	if err != nil {
		log.Fatal(err)
	}
	if adv.DetectDrift(g) {
		fmt.Println("note: target lies outside the trained distribution (drift detected);")
		fmt.Println("      consider online adapting with a labeled sample (see examples/drift).")
	}
	sel0 := time.Now()
	rec := adv.Recommend(g, *wa)
	fmt.Printf("\nTarget %q (%d tables, %d rows), weights: %.0f%% accuracy / %.0f%% efficiency\n",
		td.Name, td.NumTables(), td.TotalRows(), *wa*100, (1-*wa)*100)
	// rec.Model and the score vector index the candidate set; translate
	// through the registry's candidate mapping for display.
	recName, _ := testbed.CandidateModelName(rec.Model)
	fmt.Printf("Recommended CE model: %s (selected in %v)\n",
		recName, time.Since(sel0).Round(time.Microsecond))
	fmt.Println("Averaged neighbor score vector:")
	for i, s := range rec.Scores {
		marker := " "
		if i == rec.Model {
			marker = "*"
		}
		name, _ := testbed.CandidateModelName(i)
		fmt.Printf("  %s %-10s %.3f\n", marker, name, s)
	}
}

func paramsFor(sc experiments.Scale) datagen.Params {
	p := datagen.DefaultParams(sc.Seed)
	if sc.Fast {
		p.MinRows, p.MaxRows = 150, 400
	}
	return p
}
