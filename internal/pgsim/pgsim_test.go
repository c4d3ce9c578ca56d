package pgsim

import (
	"math"
	"repro/internal/ce"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/workload"
)

func fixture(t *testing.T, tables int, seed int64) (*dataset.Dataset, []*workload.Query) {
	t.Helper()
	p := datagen.Params{
		Tables:  tables,
		MinCols: 2, MaxCols: 3,
		MinRows: 100, MaxRows: 200,
		Domain: 25,
		SkewLo: 0, SkewHi: 1,
		CorrLo: 0, CorrHi: 0.6,
		JoinLo: 0.4, JoinHi: 1,
		Seed: seed,
	}
	d, err := datagen.Generate("pg", p)
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.Generate(d, workload.DefaultConfig(20, seed+1))
	return d, qs
}

// badEstimator inverts reality: tiny results look huge and vice versa.
type badEstimator struct{ d *dataset.Dataset }

func (b *badEstimator) Name() string { return "Bad" }

func (b *badEstimator) EstimateBatch(qs []*workload.Query) []float64 {
	return ce.ParallelEstimates(b, qs)
}
func (b *badEstimator) Estimate(q *workload.Query) float64 {
	oracle := Oracle{D: b.d}
	truth := oracle.Estimate(q)
	return math.Max(1, 1e6/truth)
}

func TestPlanCoversAllTables(t *testing.T) {
	d, qs := fixture(t, 4, 1)
	opt := New(d, &Oracle{D: d})
	for _, q := range qs {
		plan, _ := opt.Plan(q)
		if len(plan.Order) != len(q.Tables) {
			t.Fatalf("plan covers %d of %d tables", len(plan.Order), len(q.Tables))
		}
		seen := map[int]bool{}
		for _, ti := range plan.Order {
			if seen[ti] {
				t.Fatal("table appears twice in the plan")
			}
			seen[ti] = true
		}
		if len(plan.Order) > 1 && len(plan.Joins) != len(plan.Order)-1 {
			t.Fatalf("plan has %d joins for %d tables", len(plan.Joins), len(plan.Order))
		}
	}
}

func TestOracleBeatsAdversarialEstimates(t *testing.T) {
	d, qs := fixture(t, 4, 2)
	good := New(d, &Oracle{D: d})
	bad := New(d, &badEstimator{d: d})
	var goodCost, badCost float64
	for _, q := range qs {
		gp, _ := good.Plan(q)
		bp, _ := bad.Plan(q)
		goodCost += good.TrueCost(q, gp)
		badCost += bad.TrueCost(q, bp)
	}
	if goodCost > badCost {
		t.Fatalf("oracle plans cost %g, adversarial plans cost %g", goodCost, badCost)
	}
}

func TestSingleTablePlan(t *testing.T) {
	d, _ := fixture(t, 1, 3)
	opt := New(d, &Oracle{D: d})
	// A highly selective predicate should pick an index scan; an
	// unfiltered query must seq-scan.
	lo, hi := d.Tables[0].Col(0).MinMax()
	narrow := &workload.Query{}
	narrow.Tables = []int{0}
	narrow.Preds = append(narrow.Preds, engine.Predicate{Table: 0, Col: 0, Lo: lo, Hi: lo})
	plan, _ := opt.Plan(narrow)
	if plan.Scans[0] != IndexScan {
		// Only assert when the true result is tiny relative to the table.
		oracle := Oracle{D: d}
		if oracle.Estimate(narrow)*10 < float64(d.Tables[0].Rows()) {
			t.Fatalf("selective predicate did not pick an index scan (card %g of %d rows)",
				oracle.Estimate(narrow), d.Tables[0].Rows())
		}
	}
	wide := &workload.Query{}
	wide.Tables = []int{0}
	wide.Preds = append(wide.Preds, engine.Predicate{Table: 0, Col: 0, Lo: lo, Hi: hi})
	plan2, _ := opt.Plan(wide)
	if plan2.Scans[0] != SeqScan {
		t.Fatal("full-range predicate should seq-scan")
	}
}

func TestRunProducesPositiveTimes(t *testing.T) {
	d, qs := fixture(t, 3, 4)
	opt := New(d, &Oracle{D: d})
	for _, q := range qs[:5] {
		res := opt.Run(q)
		if res.ExecTime <= 0 {
			t.Fatalf("non-positive exec time %v", res.ExecTime)
		}
		if res.InferTime < 0 {
			t.Fatal("negative infer time")
		}
	}
}

func TestOracleEstimateExact(t *testing.T) {
	d, qs := fixture(t, 2, 5)
	o := &Oracle{D: d}
	for _, q := range qs {
		est := o.Estimate(q)
		want := float64(q.TrueCard)
		if want < 1 {
			want = 1
		}
		if est != want {
			t.Fatalf("oracle estimate %g, true %d", est, q.TrueCard)
		}
	}
}

func TestSubQueryRestriction(t *testing.T) {
	_, qs := fixture(t, 4, 6)
	for _, q := range qs {
		if len(q.Tables) < 2 {
			continue
		}
		sub := subQuery(q, q.Tables[:1])
		if len(sub.Tables) != 1 {
			t.Fatal("subquery table count")
		}
		for _, j := range sub.Joins {
			t.Fatalf("single-table subquery retains join %+v", j)
		}
		for _, p := range sub.Preds {
			if p.Table != q.Tables[0] {
				t.Fatal("subquery retains foreign predicate")
			}
		}
	}
}
