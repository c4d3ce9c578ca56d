package engine

import (
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"repro/internal/dataset"
)

// buildDerived builds a dataset's join index (through Cardinality) and
// its statistics (through StatsFor), then returns only a weak pointer to
// the dataset, so the caller holds no strong reference to it.
//
//go:noinline
func buildDerived(t *testing.T) weak.Pointer[dataset.Dataset] {
	d := diffDataset(t, 21, 3)
	q := randomDiffQuery(d, rand.New(rand.NewSource(21)))
	if got, want := Cardinality(d, q), naiveCardinality(d, q); got != want {
		t.Fatalf("Cardinality = %d, brute force = %d", got, want)
	}
	if dataset.StatsFor(d).Summary(0) == nil {
		t.Fatal("StatsFor(d).Summary(0) = nil")
	}
	return weak.Make(d)
}

// TestDatasetCollectedWithDerivedState checks that a dataset's join index
// and statistics die with it: once its last reference is dropped, with no
// InvalidateIndex or InvalidateStats call, the dataset is collected.
func TestDatasetCollectedWithDerivedState(t *testing.T) {
	wp := buildDerived(t)
	// Pooled evaluators outlive one GC in sync.Pool's victim cache.
	for i := 0; i < 10 && wp.Value() != nil; i++ {
		runtime.GC()
	}
	if wp.Value() != nil {
		t.Fatal("dataset still reachable after its last reference was dropped")
	}
}

// TestInvalidateForcesRebuild checks that the derived state is shared
// until InvalidateIndex/InvalidateStats drop it, and rebuilt after.
func TestInvalidateForcesRebuild(t *testing.T) {
	d := diffDataset(t, 22, 2)
	ix, st := IndexFor(d), dataset.StatsFor(d)
	if IndexFor(d) != ix || dataset.StatsFor(d) != st {
		t.Fatal("second use did not share the derived state")
	}
	InvalidateIndex(d)
	if IndexFor(d) == ix {
		t.Fatal("InvalidateIndex did not drop the index")
	}
	if dataset.StatsFor(d) != st {
		t.Fatal("InvalidateIndex dropped the statistics")
	}
	dataset.InvalidateStats(d)
	if dataset.StatsFor(d) == st {
		t.Fatal("InvalidateStats did not drop the statistics")
	}
}
