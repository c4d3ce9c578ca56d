// Package ce defines the cardinality-estimation model zoo as a pluggable
// registry with a unified model lifecycle.
//
// # Registry
//
// Every estimator package registers a Spec (name, training Kind, candidate
// flag, constructor) at init time; importing repro/internal/ce/zoo pulls in
// the paper's nine baselines. Consumers — the testbed, the experiment
// harness, the advisor baselines, the serving front-end — derive model
// order, names, and candidate sets from the registry (Specs, Names,
// CandidateIndexes), so onboarding a new estimator is one self-registering
// package plus an import line in zoo.
//
// # Lifecycle
//
// A Model is trained with one call, Fit(*TrainInput), whatever its
// training mode: the TrainInput carries the dataset, the join sample, the
// labeled queries, and the shared subset-size table, and the Spec's Kind
// declares which fields the model consumes (the paper's taxonomy:
// query-driven, data-driven, hybrid, plus composite for the ensemble).
// Trained models serve single queries (Estimate) and batches
// (EstimateBatch, the serving hot path — vectorized or parallel where the
// model allows, bit-identical to per-query calls), and persist through gob
// (Persistable, SaveModel/LoadModel, Store) with bit-identical estimates
// after a round trip. Inference is stateless: the sampling-based models
// seed each query's stream from the model and the query alone, so a
// model answers a query the same way however many estimates came before,
// in whichever process loaded it.
//
// # Shared estimator substrate
//
// The remainder of the package is the substrate the data-driven models
// share: column binning over join samples (Binner), per-join-subset
// unfiltered cardinalities (SubsetSizes), predicate-to-bin routing
// (QueryBinRanges), and per-column value bounds for predicates outside the
// sampled join space (ColBounds).
package ce

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// SubsetKey canonically identifies a set of table indexes: sorted,
// decimal-encoded, comma-terminated. The variable-width encoding is
// unambiguous for any table count (a fixed two-digit scheme silently
// collided once indexes passed two digits).
func SubsetKey(tables []int) string {
	s := append([]int(nil), tables...)
	slices.Sort(s)
	return string(appendSubsetKey(make([]byte, 0, len(s)*4), s))
}

// appendSubsetKey appends the subset key of the sorted tables to dst.
func appendSubsetKey(dst []byte, sorted []int) []byte {
	for _, t := range sorted {
		dst = strconv.AppendInt(dst, int64(t), 10)
		dst = append(dst, ',')
	}
	return dst
}

// ParseSubsetKey inverts SubsetKey, accepting exactly the canonical form:
// each element is a comma-terminated decimal with no sign, no leading
// zeros (except "0" itself), values strictly ascending, and nothing
// trailing. The strictness is load-bearing — subset keys are map keys
// inside persisted artifacts, so two spellings of one subset would split
// its entry; the fuzz harness pins ParseSubsetKey(SubsetKey(x)) == x and
// SubsetKey(ParseSubsetKey(k)) == k for every accepted k.
func ParseSubsetKey(key string) ([]int, error) {
	if key == "" {
		return nil, nil
	}
	if !strings.HasSuffix(key, ",") {
		return nil, fmt.Errorf("ce: subset key %q is not comma-terminated", key)
	}
	parts := strings.Split(key[:len(key)-1], ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		if p == "" || (len(p) > 1 && p[0] == '0') {
			return nil, fmt.Errorf("ce: subset key %q: non-canonical element %q", key, p)
		}
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("ce: subset key %q: bad element %q", key, p)
		}
		if i > 0 && v <= out[i-1] {
			return nil, fmt.Errorf("ce: subset key %q: elements not strictly ascending", key)
		}
		out[i] = v
	}
	return out, nil
}

// SubsetSizes maps every connected table subset of a dataset to its
// unfiltered join cardinality. Data-driven estimators scale their learned
// join-space selectivities by these sizes to answer queries over partial
// joins; the original systems achieve the same with fanout bookkeeping,
// which this precomputation substitutes at our scale. The fields are
// exported (and the dataset reduced to its row counts) so the table
// serializes inside model artifacts.
type SubsetSizes struct {
	// Sizes maps SubsetKey(tables) to the subset's unfiltered join size.
	Sizes map[string]int64
	// TableRows holds per-table row counts, the fallback factor for
	// subsets that were not precomputed (disconnected table sets).
	TableRows []int64
}

// ComputeSubsetSizes enumerates the connected subsets of d's join graph
// (including singletons) and evaluates their unfiltered join sizes. All
// 2^n evaluations run on one dedicated evaluator over the dataset's shared
// join index: unfiltered acyclic counts reduce to lookups over the
// indexed per-value multiplicities.
func ComputeSubsetSizes(d *dataset.Dataset) *SubsetSizes {
	ss, _ := ComputeSubsetSizesCtx(context.Background(), d)
	return ss
}

// ComputeSubsetSizesCtx is ComputeSubsetSizes with cooperative
// cancellation: the 2^n mask loop is the longest uninterruptible stretch
// of dataset onboarding, so it checks ctx once per mask and abandons the
// enumeration (returning a nil table and the context's cause) when the
// request deadline fires.
func ComputeSubsetSizesCtx(ctx context.Context, d *dataset.Dataset) (*SubsetSizes, error) {
	ss := &SubsetSizes{Sizes: map[string]int64{}, TableRows: make([]int64, len(d.Tables))}
	for ti, t := range d.Tables {
		ss.TableRows[ti] = int64(t.Rows())
	}
	ev := engine.NewEvaluator(d)
	n := len(d.Tables)
	for mask := 1; mask < 1<<uint(n); mask++ {
		if err := context.Cause(ctx); err != nil {
			return nil, err
		}
		var tables []int
		for t := 0; t < n; t++ {
			if mask&(1<<uint(t)) != 0 {
				tables = append(tables, t)
			}
		}
		if !connected(d, tables) {
			continue
		}
		q := &engine.Query{Tables: tables}
		for _, fk := range d.FKs {
			if inSet(tables, fk.FromTable) && inSet(tables, fk.ToTable) {
				q.Joins = append(q.Joins, engine.Join{
					LeftTable: fk.FromTable, LeftCol: fk.FromCol,
					RightTable: fk.ToTable, RightCol: fk.ToCol,
				})
			}
		}
		ss.Sizes[SubsetKey(tables)] = ev.Cardinality(q)
	}
	return ss, nil
}

// Size returns the unfiltered join size of the given tables, whose subset
// key (SubsetKey, or QueryScratch.SubsetKey without allocating) is key;
// when the subset was not precomputed (disconnected), it falls back to
// the product of base-table sizes.
func (ss *SubsetSizes) Size(key []byte, tables []int) int64 {
	if v, ok := ss.Sizes[string(key)]; ok {
		return v
	}
	prod := int64(1)
	for _, t := range tables {
		if t >= 0 && t < len(ss.TableRows) {
			prod *= ss.TableRows[t]
		}
	}
	return prod
}

func inSet(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func connected(d *dataset.Dataset, tables []int) bool {
	if len(tables) <= 1 {
		return true
	}
	adj := map[int][]int{}
	for _, fk := range d.FKs {
		if inSet(tables, fk.FromTable) && inSet(tables, fk.ToTable) {
			adj[fk.FromTable] = append(adj[fk.FromTable], fk.ToTable)
			adj[fk.ToTable] = append(adj[fk.ToTable], fk.FromTable)
		}
	}
	seen := map[int]bool{tables[0]: true}
	stack := []int{tables[0]}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range adj[t] {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	return len(seen) == len(tables)
}

// CheckDataParts reports an error unless the parts a decoded, trained
// data-driven model shares with its kind are present and agree: every
// binned column has a bin, and every slot names a binned column.
func CheckDataParts(bounds *ColBounds, binner *Binner, slots map[[2]int]int, sizes *SubsetSizes) error {
	if bounds == nil || binner == nil || sizes == nil {
		return fmt.Errorf("trained model lacks its column bounds, binner or subset sizes")
	}
	for j, e := range binner.Edges {
		if len(e) == 0 {
			return fmt.Errorf("sample column %d has no bins", j)
		}
	}
	bad := 0
	for _, slot := range slots {
		if slot < 0 || slot >= len(binner.Edges) {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d columns map to a sample slot outside the %d binned columns", bad, len(binner.Edges))
	}
	return nil
}

// ColBounds snapshots every column's value range — the only per-dataset
// state the data-driven estimators need at inference time for predicates
// on columns outside the sampled join space (keys and FK columns), kept
// separate from the dataset so it serializes inside model artifacts.
type ColBounds struct {
	// Lo and Hi are indexed [table][col].
	Lo, Hi [][]int64
}

// NewColBounds captures the bounds of every column of d.
func NewColBounds(d *dataset.Dataset) *ColBounds {
	b := &ColBounds{Lo: make([][]int64, len(d.Tables)), Hi: make([][]int64, len(d.Tables))}
	for ti, t := range d.Tables {
		b.Lo[ti] = make([]int64, t.NumCols())
		b.Hi[ti] = make([]int64, t.NumCols())
		for ci, c := range t.Cols {
			b.Lo[ti][ci], b.Hi[ti][ci] = c.MinMax()
		}
	}
	return b
}

// UniformSel returns the uniform-selectivity fallback of predicate p: the
// fraction of the column's value range the predicate interval overlaps.
// A column the bounds do not cover selects everything.
func (b *ColBounds) UniformSel(p engine.Predicate) float64 {
	if p.Table < 0 || p.Table >= min(len(b.Lo), len(b.Hi)) || p.Col < 0 ||
		p.Col >= min(len(b.Lo[p.Table]), len(b.Hi[p.Table])) {
		return 1
	}
	lo, hi := b.Lo[p.Table][p.Col], b.Hi[p.Table][p.Col]
	width := float64(hi-lo) + 1
	if width <= 0 {
		return 1
	}
	ovLo, ovHi := p.Lo, p.Hi
	if lo > ovLo {
		ovLo = lo
	}
	if hi < ovHi {
		ovHi = hi
	}
	ov := float64(ovHi-ovLo) + 1
	if ov <= 0 {
		return 0
	}
	if ov > width {
		ov = width
	}
	return ov / width
}

// Binner discretizes the columns of a join sample into small integer bins;
// the SPN, Bayesian-network and autoregressive estimators all operate on
// this discretized space.
type Binner struct {
	// Edges[j] holds ascending bin upper-bounds for sample column j; a
	// value v maps to the first bin whose edge is >= v.
	Edges [][]int64
}

// NewBinner builds a binner over sample columns with at most maxBins bins
// per column. Columns with few distinct values get one bin per value;
// others get approximate equi-depth bins.
func NewBinner(sample *engine.JoinSample, maxBins int) *Binner {
	b := &Binner{Edges: make([][]int64, len(sample.Cols))}
	for j := range sample.Cols {
		vals := make([]int64, 0, len(sample.Rows))
		for _, r := range sample.Rows {
			vals = append(vals, r[j])
		}
		b.Edges[j] = binEdges(vals, maxBins)
	}
	return b
}

func binEdges(vals []int64, maxBins int) []int64 {
	if len(vals) == 0 {
		return []int64{0}
	}
	sorted := append([]int64(nil), vals...)
	slices.Sort(sorted)
	distinct := sorted[:0:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			distinct = append(distinct, v)
		}
	}
	if len(distinct) <= maxBins {
		return distinct
	}
	// Equi-depth: one edge per quantile of the sorted values.
	edges := make([]int64, 0, maxBins)
	for i := 1; i <= maxBins; i++ {
		pos := i*len(sorted)/maxBins - 1
		e := sorted[pos]
		if len(edges) == 0 || e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	if edges[len(edges)-1] < sorted[len(sorted)-1] {
		edges = append(edges, sorted[len(sorted)-1])
	}
	return edges
}

// NumBins returns the number of bins of column j.
func (b *Binner) NumBins(j int) int { return len(b.Edges[j]) }

// Bin maps a value of column j to its bin index; values above the last
// edge map to the last bin.
func (b *Binner) Bin(j int, v int64) int {
	e := b.Edges[j]
	idx := sort.Search(len(e), func(i int) bool { return e[i] >= v })
	if idx >= len(e) {
		idx = len(e) - 1
	}
	return idx
}

// BinRange returns the inclusive bin range [loBin, hiBin] overlapping the
// value interval [lo, hi] on column j. ok is false when the interval is
// entirely below the first edge boundary in a way that selects nothing.
func (b *Binner) BinRange(j int, lo, hi int64) (loBin, hiBin int, ok bool) {
	if hi < lo {
		return 0, -1, false
	}
	e := b.Edges[j]
	loBin = sort.Search(len(e), func(i int) bool { return e[i] >= lo })
	if loBin >= len(e) {
		return 0, -1, false
	}
	hiBin = sort.Search(len(e), func(i int) bool { return e[i] >= hi })
	if hiBin >= len(e) {
		hiBin = len(e) - 1
	}
	return loBin, hiBin, true
}

// BinRows converts sample rows to bin-index rows.
func (b *Binner) BinRows(sample *engine.JoinSample) [][]int {
	out := make([][]int, len(sample.Rows))
	for i, r := range sample.Rows {
		br := make([]int, len(r))
		for j, v := range r {
			br[j] = b.Bin(j, v)
		}
		out[i] = br
	}
	return out
}

// ColSlots maps every (table, col) of a join sample to its sample-column
// slot; estimators use it to route query predicates to model columns.
func ColSlots(sample *engine.JoinSample) map[[2]int]int {
	m := make(map[[2]int]int, len(sample.Cols))
	for j, cr := range sample.Cols {
		m[[2]int{cr.Table, cr.Col}] = j
	}
	return m
}
