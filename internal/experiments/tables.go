package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/advisor"
	"repro/internal/ce"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/metrics"
	"repro/internal/pgsim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// ----------------------------------------------------------------- Table I

// TableIResult reports the dataset-statistics table.
type TableIResult struct {
	Rows []TableIRow
}

// TableIRow is one dataset family's statistics.
type TableIRow struct {
	Name        string
	Tables      string
	Rows        string
	Columns     string
	DomainTotal string
}

// TableI computes statistics for the dataset families in use.
func TableI(sc Scale) (*TableIResult, error) {
	imdb := datagen.IMDBLike(sc.Seed)
	stats := datagen.STATSLike(sc.Seed)
	syn, err := datagen.GenerateCorpus(12, 5, sc.genParams(), sc.Seed)
	if err != nil {
		return nil, err
	}
	res := &TableIResult{}
	describe := func(name string, ds []*dataset.Dataset) {
		minT, maxT := ds[0].NumTables(), ds[0].NumTables()
		minR, maxR := ds[0].Tables[0].Rows(), ds[0].Tables[0].Rows()
		cols, dom := 0, 0
		for _, d := range ds {
			if d.NumTables() < minT {
				minT = d.NumTables()
			}
			if d.NumTables() > maxT {
				maxT = d.NumTables()
			}
			for _, t := range d.Tables {
				if t.Rows() < minR {
					minR = t.Rows()
				}
				if t.Rows() > maxR {
					maxR = t.Rows()
				}
			}
			cols += d.TotalColumns()
			dom += d.TotalDomainSize()
		}
		tables := fmt.Sprintf("%d", minT)
		if maxT != minT {
			tables = fmt.Sprintf("%d-%d", minT, maxT)
		}
		res.Rows = append(res.Rows, TableIRow{
			Name:        name,
			Tables:      tables,
			Rows:        fmt.Sprintf("%d-%d", minR, maxR),
			Columns:     fmt.Sprintf("%d", cols/len(ds)),
			DomainTotal: fmt.Sprintf("%.1e", float64(dom)/float64(len(ds))),
		})
	}
	describe("IMDB-light*", []*dataset.Dataset{imdb})
	describe("STATS-light*", []*dataset.Dataset{stats})
	describe("Synthetic", syn)
	return res, nil
}

// Render prints the statistics table.
func (r *TableIResult) Render() string {
	var b strings.Builder
	b.WriteString("Table I — statistics of datasets (* = real-world-like substitute)\n")
	b.WriteString(row("dataset", "#Table", "     #Row", "#Col(avg)", "Domain(avg)"))
	b.WriteString("\n")
	for _, tr := range r.Rows {
		b.WriteString(row(tr.Name,
			fmt.Sprintf("%6s", tr.Tables),
			fmt.Sprintf("%9s", tr.Rows),
			fmt.Sprintf("%9s", tr.Columns),
			fmt.Sprintf("%11s", tr.DomainTotal)))
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------- Table II

// TableIIResult reports recommendation accuracy: the fraction of datasets
// whose recommendation has D-error below epsilon.
type TableIIResult struct {
	Weights   []float64
	Epsilons  []float64
	Families  []string
	Selectors []string
	// Accuracy[w][f][s][e] in [0,1].
	Accuracy [][][][]float64
}

// TableII evaluates the five selectors over synthetic and real-world-like
// test sets at the paper's weights and thresholds.
func TableII(c *Corpus) (*TableIIResult, error) {
	autoce, err := c.TrainAutoCE()
	if err != nil {
		return nil, err
	}
	mlp, err := advisor.TrainGINHead(c.BaselineSamples(), mlpConfig(c))
	if err != nil {
		return nil, err
	}
	rule := advisor.NewRule(c.Scale.Seed + 43)
	rawknn := advisor.NewRawKNN(c.BaselineSamples(), 2)

	imdb20, err := realWorldSplits(c, datagen.IMDBLike(c.Scale.Seed+7), "imdb20")
	if err != nil {
		return nil, err
	}
	stats20, err := realWorldSplits(c, datagen.STATSLike(c.Scale.Seed+8), "stats20")
	if err != nil {
		return nil, err
	}
	families := [][]*LabeledDataset{c.Test, imdb20, stats20}

	res := &TableIIResult{
		Weights:   []float64{1.0, 0.9, 0.7},
		Epsilons:  []float64{0.1, 0.15, 0.2},
		Families:  []string{"Synthetic", "IMDB-20", "STATS-20"},
		Selectors: []string{"AutoCE", "MLP", "Rule", "Sampling", "Knn"},
	}
	for _, wa := range res.Weights {
		var perFamily [][][]float64
		for _, fam := range families {
			sampLabels, err := c.SamplingLabels(fam)
			if err != nil {
				return nil, err
			}
			idxOf := map[*LabeledDataset]int{}
			for i, ld := range fam {
				idxOf[ld] = i
			}
			choosers := []func(ld *LabeledDataset) int{
				func(ld *LabeledDataset) int { return autoce.Recommend(ld.Graph, wa).Model },
				func(ld *LabeledDataset) int { return mlp.Select(ld.Target(), wa) },
				func(ld *LabeledDataset) int { return rule.Select(ld.Target(), wa) },
				func(ld *LabeledDataset) int { return sampLabels[idxOf[ld]].BestModel(wa) },
				func(ld *LabeledDataset) int { return rawknn.Select(ld.Target(), wa) },
			}
			var perSelector [][]float64
			for _, choose := range choosers {
				derrs := EvalSelector(fam, wa, choose)
				var perEps []float64
				for _, eps := range res.Epsilons {
					hit := 0
					for _, d := range derrs {
						if d <= eps {
							hit++
						}
					}
					perEps = append(perEps, float64(hit)/float64(len(derrs)))
				}
				perSelector = append(perSelector, perEps)
			}
			perFamily = append(perFamily, perSelector)
		}
		res.Accuracy = append(res.Accuracy, perFamily)
	}
	return res, nil
}

// Render prints one block per weight, as in the paper's layout.
func (r *TableIIResult) Render() string {
	var b strings.Builder
	b.WriteString("Table II — recommendation accuracy (fraction with D-error <= eps)\n")
	for wi, wa := range r.Weights {
		fmt.Fprintf(&b, "(wa = %.1f)\n", wa)
		header := make([]string, len(r.Epsilons))
		for i, e := range r.Epsilons {
			header[i] = fmt.Sprintf("eps=%.2f", e)
		}
		b.WriteString(row("family/advisor", header...))
		b.WriteString("\n")
		for fi, fam := range r.Families {
			for si, sel := range r.Selectors {
				cells := make([]string, len(r.Epsilons))
				for ei := range r.Epsilons {
					cells[ei] = fmt.Sprintf("%7.1f%%", 100*r.Accuracy[wi][fi][si][ei])
				}
				b.WriteString(row(fam+"/"+sel, cells...))
				b.WriteString("\n")
			}
		}
	}
	return b.String()
}

// --------------------------------------------------------------- Table III

// TableIIIResult is the CEB-like benchmark over query-driven models.
type TableIIIResult struct {
	Weights []float64
	Names   []string // AutoCE + query-driven models
	// DError[w][m] in percent.
	DError [][]float64
}

// TableIII labels the CEB-like schema, then compares AutoCE (restricted to
// the query-driven candidates, as the paper does) against each fixed
// query-driven model.
func TableIII(c *Corpus) (*TableIIIResult, error) {
	autoce, err := c.TrainAutoCE()
	if err != nil {
		return nil, err
	}
	d := workload.CEBSchema(c.Scale.Seed + 5)
	cfg := c.Scale.TestbedConfig(c.Scale.Seed + 71)
	label, err := cebLabel(d, cfg)
	if err != nil {
		return nil, err
	}
	g, err := feature.Extract(d, c.FeatCfg)
	if err != nil {
		return nil, err
	}
	// rec.Scores lives in the advisor's candidate-set space; the label
	// holds only the query-driven models, in QueryDrivenSet order, so its
	// score vector is already normalized within them as the paper's Table
	// III does.
	res := &TableIIIResult{
		Weights: []float64{1.0, 0.9, 0.7, 0.5},
		Names:   []string{"AutoCE"},
	}
	for _, m := range testbed.QueryDrivenSet() {
		res.Names = append(res.Names, testbed.ModelNames[m])
	}
	for _, wa := range res.Weights {
		sv := label.ScoreVector(wa)
		// AutoCE: averaged neighbor scores, argmax over the QD subset.
		rec := autoce.Recommend(g, wa)
		pick, best := 0, -1.0
		for j, m := range testbed.QueryDrivenSet() {
			if pos := ce.CandidatePos(m); rec.Scores != nil && pos < len(rec.Scores) && rec.Scores[pos] > best {
				pick, best = j, rec.Scores[pos]
			}
		}
		rowD := []float64{metrics.DError(sv, pick)}
		for j := range sv {
			rowD = append(rowD, metrics.DError(sv, j))
		}
		res.DError = append(res.DError, rowD)
	}
	return res, nil
}

// cebLabel labels the CEB-like schema with the query-driven candidates
// only, on the CEB template workload (the paper skips data-driven models
// there for cost, as do we).
func cebLabel(d *dataset.Dataset, cfg testbed.Config) (*testbed.Label, error) {
	perTemplate := cfg.NumQueries / len(workload.CEBTemplates())
	if perTemplate < 4 {
		perTemplate = 4
	}
	specs := ce.Specs()
	var models []ce.Model
	for _, m := range testbed.QueryDrivenSet() {
		models = append(models, specs[m].New(ce.Config{Fast: cfg.Fast, Seed: cfg.Seed}))
	}
	p, err := testbed.PrepareModels(d, cfg, workload.CEBWorkload(d, perTemplate, cfg.Seed), models)
	if err != nil {
		return nil, err
	}
	res, err := p.Run()
	if err != nil {
		return nil, err
	}
	return res.Label, nil
}

// Render prints the D-error table in percent.
func (r *TableIIIResult) Render() string {
	var b strings.Builder
	b.WriteString("Table III — efficacy on the CEB-like benchmark (D-error)\n")
	header := make([]string, len(r.Names))
	for i, n := range r.Names {
		header[i] = fmt.Sprintf("%8s", n)
	}
	b.WriteString(row("wa", header...))
	b.WriteString("\n")
	for wi, wa := range r.Weights {
		cells := make([]string, len(r.Names))
		for i := range r.Names {
			cells[i] = fmt.Sprintf("%7.2f%%", 100*r.DError[wi][i])
		}
		b.WriteString(row(fmt.Sprintf("%.1f", wa), cells...))
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------- Table IV

// TableIVResult reports AutoCE's D-error under different KNN k.
type TableIVResult struct {
	Ks      []int
	Weights []float64
	// DError[w][k].
	DError [][]float64
}

// TableIV sweeps k = 1..5 at the paper's four weights.
func TableIV(c *Corpus) (*TableIVResult, error) {
	autoce, err := c.TrainAutoCE()
	if err != nil {
		return nil, err
	}
	res := &TableIVResult{
		Ks:      []int{1, 2, 3, 4, 5},
		Weights: []float64{1.0, 0.9, 0.7, 0.5},
	}
	for _, wa := range res.Weights {
		var rowD []float64
		for _, k := range res.Ks {
			k := k
			rowD = append(rowD, metrics.Mean(EvalSelector(c.Test, wa, func(ld *LabeledDataset) int {
				return autoce.RecommendK(ld.Graph, wa, k).Model
			})))
		}
		res.DError = append(res.DError, rowD)
	}
	return res, nil
}

// Render prints the sweep.
func (r *TableIVResult) Render() string {
	var b strings.Builder
	b.WriteString("Table IV — AutoCE's D-error under different k\n")
	header := make([]string, len(r.Ks))
	for i, k := range r.Ks {
		header[i] = fmt.Sprintf("   k=%d  ", k)
	}
	b.WriteString(row("wa", header...))
	b.WriteString("\n")
	for wi, wa := range r.Weights {
		cells := make([]string, len(r.Ks))
		for i := range r.Ks {
			cells[i] = fmt.Sprintf("%7.2f%%", 100*r.DError[wi][i])
		}
		b.WriteString(row(fmt.Sprintf("%.1f", wa), cells...))
		b.WriteString("\n")
	}
	return b.String()
}

// ----------------------------------------------------------------- Table V

// TableVRow is one method's end-to-end outcome.
type TableVRow struct {
	Method      string
	SingleExec  time.Duration
	SingleInfer time.Duration
	MultiExec   time.Duration
	MultiInfer  time.Duration
	// Improvements are relative to the PostgreSQL baseline's total.
	SingleImprove float64
	MultiImprove  float64
}

// TableVResult is the simulated end-to-end latency experiment.
type TableVResult struct {
	Rows           []TableVRow
	SingleDatasets int
	MultiDatasets  int
	QueriesPerDS   int
}

// TableV labels single- and multi-table dataset pools, runs every CE model
// (and the TrueCard oracle) through the simulated optimizer, and reports
// workload totals with AutoCE's selections at wa = 0.5 and wa = 1.0.
func TableV(c *Corpus) (*TableVResult, error) {
	autoce, err := c.TrainAutoCE()
	if err != nil {
		return nil, err
	}
	nDS := 15
	queries := 100
	if c.Scale.Fast {
		nDS = 3
		queries = 20
	}
	singleP := c.Scale.genParams()
	singleP.Tables = 1
	multiP := c.Scale.genParams()

	var singles, multis []*dataset.Dataset
	for i := 0; i < nDS; i++ {
		sp := singleP
		sp.Seed = c.Scale.Seed + 9000 + int64(i)
		d, err := datagen.Generate(fmt.Sprintf("e2e-s%02d", i), sp)
		if err != nil {
			return nil, err
		}
		singles = append(singles, d)
		mp := multiP
		mp.Tables = 2 + i%4
		mp.Seed = c.Scale.Seed + 9100 + int64(i)
		m, err := datagen.Generate(fmt.Sprintf("e2e-m%02d", i), mp)
		if err != nil {
			return nil, err
		}
		multis = append(multis, m)
	}

	type totals struct{ exec, infer time.Duration }
	methodNames := append([]string{"TrueCard"}, testbed.ModelNames...)
	single := make(map[string]*totals)
	multi := make(map[string]*totals)
	for _, n := range methodNames {
		single[n] = &totals{}
		multi[n] = &totals{}
	}
	// AutoCE selections per dataset (model index), per weight.
	autoPick := map[string]map[float64]int{}

	// execScale calibrates simulated execution time per pool. The
	// simulator's cost unit is arbitrary; what Table V's comparison needs
	// is the paper's exec-to-inference regime: single-table workloads run
	// ~1.6x a sampling model's inference (22s vs 13.7s), multi-table
	// workloads ~50x (1.73h vs 125s). Our tables are ~100x smaller than
	// the paper's, so multi-table joins execute proportionally too fast
	// relative to (real, wall-clock) model inference; scaling the multi
	// pool's simulated execution restores the paper's regime; `go run
	// ./cmd/autoce-exp -run tab5` regenerates the table.
	runPool := func(pool []*dataset.Dataset, agg map[string]*totals, execScale float64) error {
		for di, d := range pool {
			cfg := c.Scale.TestbedConfig(c.Scale.Seed + 401 + int64(di)*7)
			res, err := testbed.Run(d, cfg)
			if err != nil {
				return err
			}
			qs := workload.Generate(d, workload.DefaultConfig(queries, cfg.Seed+999))
			ests := map[string]ce.Estimator{"TrueCard": &pgsim.Oracle{D: d}}
			for mi, m := range res.Models {
				ests[testbed.ModelNames[mi]] = m
			}
			names := make([]string, 0, len(ests))
			for name := range ests {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				opt := pgsim.New(d, ests[name])
				for _, q := range qs {
					r := opt.Run(q)
					agg[name].exec += time.Duration(float64(r.ExecTime) * execScale)
					if name != "TrueCard" {
						agg[name].infer += r.InferTime
					}
				}
			}
			// AutoCE recommendation for this dataset.
			g, err := feature.Extract(d, c.FeatCfg)
			if err != nil {
				return err
			}
			picks := map[float64]int{}
			for _, wa := range []float64{0.5, 1.0} {
				picks[wa] = autoce.Recommend(g, wa).Model
			}
			autoPick[d.Name] = picks
			// Accumulate AutoCE rows from the chosen model's numbers: we
			// replay the chosen model's optimizer run totals by key.
			for _, wa := range []float64{0.5, 1.0} {
				key := fmt.Sprintf("AutoCE(wa=%.1f)", wa)
				if agg[key] == nil {
					agg[key] = &totals{}
				}
				// picks holds candidate-set positions from Recommend.
				chosen := testbed.CandidateModelLabel(picks[wa])
				opt := pgsim.New(d, ests[chosen])
				for _, q := range qs {
					r := opt.Run(q)
					agg[key].exec += time.Duration(float64(r.ExecTime) * execScale)
					agg[key].infer += r.InferTime
				}
			}
			// The pool keeps d after its last query; drop its derived state.
			engine.InvalidateIndex(d)
			dataset.InvalidateStats(d)
		}
		return nil
	}
	if err := runPool(singles, single, 1); err != nil {
		return nil, err
	}
	if err := runPool(multis, multi, 40); err != nil {
		return nil, err
	}

	res := &TableVResult{SingleDatasets: nDS, MultiDatasets: nDS, QueriesPerDS: queries}
	pgSingle := single["Postgres"].exec + single["Postgres"].infer
	pgMulti := multi["Postgres"].exec + multi["Postgres"].infer
	order := append([]string{"Postgres", "TrueCard"}, nonPG(testbed.ModelNames)...)
	order = append(order, "AutoCE(wa=0.5)", "AutoCE(wa=1.0)")
	for _, name := range order {
		s, okS := single[name]
		m, okM := multi[name]
		if !okS || !okM {
			continue
		}
		r := TableVRow{
			Method:      name,
			SingleExec:  s.exec,
			SingleInfer: s.infer,
			MultiExec:   m.exec,
			MultiInfer:  m.infer,
		}
		if name != "Postgres" {
			r.SingleImprove = 1 - float64(s.exec+s.infer)/float64(pgSingle)
			r.MultiImprove = 1 - float64(m.exec+m.infer)/float64(pgMulti)
		}
		res.Rows = append(res.Rows, r)
	}
	return res, nil
}

func nonPG(names []string) []string {
	var out []string
	for _, n := range names {
		if n != "Postgres" {
			out = append(out, n)
		}
	}
	return out
}

// Render prints the end-to-end table.
func (r *TableVResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table V — simulated end-to-end latency (%d single + %d multi datasets, %d queries each)\n",
		r.SingleDatasets, r.MultiDatasets, r.QueriesPerDS)
	b.WriteString(row("method", "single(exec+infer)", "multi(exec+infer)", "impr.single", "impr.multi"))
	b.WriteString("\n")
	for _, tr := range r.Rows {
		b.WriteString(row(tr.Method,
			fmt.Sprintf("%8.3fs + %7.3fs", tr.SingleExec.Seconds(), tr.SingleInfer.Seconds()),
			fmt.Sprintf("%8.3fs + %6.3fs", tr.MultiExec.Seconds(), tr.MultiInfer.Seconds()),
			fmt.Sprintf("%10.2f%%", 100*tr.SingleImprove),
			fmt.Sprintf("%9.2f%%", 100*tr.MultiImprove)))
		b.WriteString("\n")
	}
	return b.String()
}
