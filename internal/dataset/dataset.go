// Package dataset defines the in-memory relational data model used across
// the repository: columnar tables with integer-valued columns, primary keys,
// and PK-FK join relationships, plus the column statistics (skewness,
// kurtosis, deviations, domain size, correlations) that both the cardinality
// estimators and AutoCE's feature engineering consume.
//
// All column values are int64 in the range [1, domain]; this mirrors the
// paper's synthetic generator (Section IV-A), where every attribute is drawn
// from a bounded integer domain. Real-valued data can always be binned into
// this representation, and keeping a single value type keeps the execution
// engine and the estimators simple and fast.
//
// Statistics come in two layers. The naive per-call functions
// (ColumnStats, EqualFraction, JoinCorrelation) define the semantics and
// serve as reference oracles. The fused engine (summary.go) is the fast
// path: NewSummary computes one table's complete block — every column's
// moments, min/max, and distinct count, plus the full pairwise
// equal-fraction matrix — in a handful of cache-friendly sweeps with
// reused scratch, and Stats derives every FK edge's join correlation from
// one distinct-value set per endpoint column. Both layers are exact and
// agree number for number. StatsFor keeps one Stats on each dataset
// (Dataset.Derived, which engine.IndexFor uses too), so it is collected
// with the dataset; code that mutates table data in place must call
// InvalidateStats, and owners that keep a dataset past feature extraction
// call it to release the view.
package dataset

import (
	"fmt"
	"sort"
	"sync"
)

// Column is a single named column of integer values.
type Column struct {
	Name string
	Data []int64
}

// NewColumn returns a column with the given name and values.
func NewColumn(name string, data []int64) *Column {
	return &Column{Name: name, Data: data}
}

// Len returns the number of rows in the column.
func (c *Column) Len() int { return len(c.Data) }

// MinMax returns the minimum and maximum value of the column.
// It returns (0, 0) for an empty column.
func (c *Column) MinMax() (lo, hi int64) {
	if len(c.Data) == 0 {
		return 0, 0
	}
	lo, hi = c.Data[0], c.Data[0]
	for _, v := range c.Data[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// DistinctCount returns the number of distinct values in the column.
func (c *Column) DistinctCount() int {
	seen := make(map[int64]struct{}, len(c.Data))
	for _, v := range c.Data {
		seen[v] = struct{}{}
	}
	return len(seen)
}

// DistinctValues returns the sorted distinct values of the column.
func (c *Column) DistinctValues() []int64 {
	seen := make(map[int64]struct{}, len(c.Data))
	for _, v := range c.Data {
		seen[v] = struct{}{}
	}
	out := make([]int64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Table is a collection of equal-length columns. PKCol is the index of the
// primary-key column, or -1 when the table has no primary key.
type Table struct {
	Name  string
	Cols  []*Column
	PKCol int
}

// NewTable returns a table with no primary key.
func NewTable(name string, cols ...*Column) *Table {
	return &Table{Name: name, Cols: cols, PKCol: -1}
}

// Rows returns the number of rows in the table (0 if it has no columns).
func (t *Table) Rows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// NumCols returns the number of columns in the table.
func (t *Table) NumCols() int { return len(t.Cols) }

// Col returns the i-th column.
func (t *Table) Col(i int) *Column { return t.Cols[i] }

// ColByName returns the column with the given name and its index,
// or (nil, -1) when absent.
func (t *Table) ColByName(name string) (*Column, int) {
	for i, c := range t.Cols {
		if c.Name == name {
			return c, i
		}
	}
	return nil, -1
}

// NonKeyCols returns the indexes of the columns that are not the primary key.
func (t *Table) NonKeyCols() []int {
	out := make([]int, 0, len(t.Cols))
	for i := range t.Cols {
		if i != t.PKCol {
			out = append(out, i)
		}
	}
	return out
}

// Validate reports an error when the table's columns have unequal lengths
// or PKCol is outside [-1, NumCols).
func (t *Table) Validate() error {
	if t.PKCol < -1 || t.PKCol >= len(t.Cols) {
		return fmt.Errorf("table %s: PKCol %d out of range", t.Name, t.PKCol)
	}
	if len(t.Cols) == 0 {
		return nil
	}
	n := t.Cols[0].Len()
	for _, c := range t.Cols[1:] {
		if c.Len() != n {
			return fmt.Errorf("table %s: column %s has %d rows, want %d", t.Name, c.Name, c.Len(), n)
		}
	}
	return nil
}

// ForeignKey describes one PK-FK join edge: the column (FromTable, FromCol)
// references the primary key (ToTable, ToCol). The edge's join correlation
// (Section IV-A, F3) is measured from the data, never stored: see
// JoinCorrelation and Stats.FKCorrelations.
type ForeignKey struct {
	FromTable, FromCol int
	ToTable, ToCol     int
}

// Dataset is a named set of tables connected by PK-FK foreign keys.
// State derived from its data (see Derived) lives on the dataset and is
// collected with it. A Dataset must not be copied after first use.
type Dataset struct {
	Name   string
	Tables []*Table
	FKs    []ForeignKey

	derived sync.Map
}

// Derived returns the value stored under key, storing build() on first
// use. Racing first uses may each call build, but all of them get the one
// value stored. Each package keys its values with an unexported type.
func (d *Dataset) Derived(key any, build func() any) any {
	if v, ok := d.derived.Load(key); ok {
		return v
	}
	v, _ := d.derived.LoadOrStore(key, build())
	return v
}

// DropDerived discards the value stored under key, so the next Derived
// call rebuilds it. Call it after mutating table data in place, or to
// release state that no later use reads.
func (d *Dataset) DropDerived(key any) { d.derived.Delete(key) }

// NumTables returns the number of tables in the dataset.
func (d *Dataset) NumTables() int { return len(d.Tables) }

// TotalRows returns the sum of row counts over all tables.
func (d *Dataset) TotalRows() int {
	n := 0
	for _, t := range d.Tables {
		n += t.Rows()
	}
	return n
}

// TotalColumns returns the sum of column counts over all tables.
func (d *Dataset) TotalColumns() int {
	n := 0
	for _, t := range d.Tables {
		n += t.NumCols()
	}
	return n
}

// TotalDomainSize returns the sum of distinct-value counts over all columns,
// the "total domain size" statistic reported in the paper's Table I. It
// reads through the dataset's Stats; callers that mutate the data in
// place must InvalidateStats (stale summaries are never detected).
func (d *Dataset) TotalDomainSize() int {
	return StatsFor(d).TotalDomainSize()
}

// MaxColumns returns the maximum column count over all tables; feature-graph
// vertex modeling pads every table to this width.
func (d *Dataset) MaxColumns() int {
	m := 0
	for _, t := range d.Tables {
		if t.NumCols() > m {
			m = t.NumCols()
		}
	}
	return m
}

// Validate checks every table and every foreign-key reference.
func (d *Dataset) Validate() error {
	for _, t := range d.Tables {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	for i, fk := range d.FKs {
		if fk.FromTable < 0 || fk.FromTable >= len(d.Tables) ||
			fk.ToTable < 0 || fk.ToTable >= len(d.Tables) {
			return fmt.Errorf("fk %d: table index out of range", i)
		}
		if fk.FromCol < 0 || fk.FromCol >= d.Tables[fk.FromTable].NumCols() {
			return fmt.Errorf("fk %d: from-column index out of range", i)
		}
		if fk.ToCol < 0 || fk.ToCol >= d.Tables[fk.ToTable].NumCols() {
			return fmt.Errorf("fk %d: to-column index out of range", i)
		}
	}
	return nil
}

// JoinGraphAdjacency returns, for every table index, the list of FK indexes
// incident to it. The workload generator walks this structure to form
// connected join queries.
func (d *Dataset) JoinGraphAdjacency() [][]int {
	adj := make([][]int, len(d.Tables))
	for i, fk := range d.FKs {
		adj[fk.FromTable] = append(adj[fk.FromTable], i)
		adj[fk.ToTable] = append(adj[fk.ToTable], i)
	}
	return adj
}
