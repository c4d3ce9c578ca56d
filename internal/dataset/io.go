package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// This file provides CSV import/export so users can bring their own
// datasets to the advisor: one CSV file per table (header row = column
// names), plus a small schema file declaring primary keys and foreign
// keys. All values must be integers (bin real-valued data first; see the
// package comment).

// WriteCSV writes one table as CSV.
func WriteCSV(t *Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, t.NumCols())
	for i, c := range t.Cols {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: writing header: %w", err)
	}
	row := make([]string, t.NumCols())
	for r := 0; r < t.Rows(); r++ {
		for ci, c := range t.Cols {
			row[ci] = strconv.FormatInt(c.Data[r], 10)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: writing row %d: %w", r, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads one table from CSV; every column becomes an int64 column.
// Ingest is the buffered fast path: the csv reader reuses its record
// slice (one backing-string allocation per row instead of one per
// field), and the column slices are preallocated from a first-block row
// estimate when the reader's total size is knowable (os.File, bytes
// readers), so a million-row load does no growth copying.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	var total int64 = -1
	switch src := r.(type) {
	case interface{ Len() int }: // bytes.Reader, bytes.Buffer, strings.Reader
		total = int64(src.Len())
	case interface{ Stat() (os.FileInfo, error) }: // os.File
		if fi, err := src.Stat(); err == nil && fi.Mode().IsRegular() {
			total = fi.Size()
		}
	}
	br := bufio.NewReaderSize(r, 64<<10)
	estRows := 0
	if total > 0 {
		// Estimate the row count from the average line length of the
		// first buffered block.
		if peek, _ := br.Peek(32 << 10); len(peek) > 0 {
			if nl := bytes.Count(peek, []byte{'\n'}); nl > 0 {
				estRows = int(total / (int64(len(peek)/nl) + 1))
			}
		}
	}
	cr := csv.NewReader(br)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	t := &Table{Name: name, PKCol: -1}
	for _, h := range header {
		col := &Column{Name: strings.TrimSpace(h)}
		if estRows > 0 {
			col.Data = make([]int64, 0, estRows)
		}
		t.Cols = append(t.Cols, col)
	}
	rowNum := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading row %d: %w", rowNum, err)
		}
		if len(rec) != len(t.Cols) {
			return nil, fmt.Errorf("dataset: row %d has %d fields, want %d", rowNum, len(rec), len(t.Cols))
		}
		for ci, field := range rec {
			v, err := strconv.ParseInt(strings.TrimSpace(field), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d column %s: %w", rowNum, t.Cols[ci].Name, err)
			}
			t.Cols[ci].Data = append(t.Cols[ci].Data, v)
		}
		rowNum++
	}
	return t, nil
}

// SaveDir writes a dataset as a directory: <table>.csv per table and a
// schema.txt declaring keys, in the format ReadDir parses.
func SaveDir(d *Dataset, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	for _, t := range d.Tables {
		f, err := os.Create(filepath.Join(dir, t.Name+".csv"))
		if err != nil {
			return fmt.Errorf("dataset: %w", err)
		}
		if err := WriteCSV(t, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("dataset: %w", err)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "dataset %s\n", d.Name)
	for _, t := range d.Tables {
		if t.PKCol >= 0 {
			fmt.Fprintf(&b, "pk %s %s\n", t.Name, t.Col(t.PKCol).Name)
		}
	}
	for _, fk := range d.FKs {
		fmt.Fprintf(&b, "fk %s.%s -> %s.%s\n",
			d.Tables[fk.FromTable].Name, d.Tables[fk.FromTable].Col(fk.FromCol).Name,
			d.Tables[fk.ToTable].Name, d.Tables[fk.ToTable].Col(fk.ToCol).Name)
	}
	return os.WriteFile(filepath.Join(dir, "schema.txt"), []byte(b.String()), 0o644)
}

// ReadDir loads a dataset saved by SaveDir (or hand-authored in the same
// layout): every *.csv in dir becomes a table; schema.txt declares the
// name, primary keys ("pk table column") and foreign keys
// ("fk table.column -> table.column"). Join correlations are measured
// from the data.
func ReadDir(dir string) (*Dataset, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	d := &Dataset{Name: filepath.Base(dir)}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".csv") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	tableIdx := map[string]int{}
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		t, err := ReadCSV(strings.TrimSuffix(name, ".csv"), f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("dataset: %s: %w", name, err)
		}
		tableIdx[t.Name] = len(d.Tables)
		d.Tables = append(d.Tables, t)
	}
	if len(d.Tables) == 0 {
		return nil, fmt.Errorf("dataset: no .csv tables in %s", dir)
	}

	schema, err := os.ReadFile(filepath.Join(dir, "schema.txt"))
	if os.IsNotExist(err) {
		return d, d.Validate() // keyless single-table-style dataset
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	for ln, line := range strings.Split(string(schema), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		switch fields[0] {
		case "dataset":
			if len(fields) >= 2 {
				d.Name = fields[1]
			}
		case "pk":
			if len(fields) != 3 {
				return nil, fmt.Errorf("dataset: schema line %d: want 'pk table column'", ln+1)
			}
			ti, ok := tableIdx[fields[1]]
			if !ok {
				return nil, fmt.Errorf("dataset: schema line %d: unknown table %s", ln+1, fields[1])
			}
			_, ci := d.Tables[ti].ColByName(fields[2])
			if ci < 0 {
				return nil, fmt.Errorf("dataset: schema line %d: unknown column %s", ln+1, fields[2])
			}
			d.Tables[ti].PKCol = ci
		case "fk":
			if len(fields) != 4 || fields[2] != "->" {
				return nil, fmt.Errorf("dataset: schema line %d: want 'fk t.c -> t.c'", ln+1)
			}
			fromT, fromC, err := splitRef(fields[1])
			if err != nil {
				return nil, fmt.Errorf("dataset: schema line %d: %w", ln+1, err)
			}
			toT, toC, err := splitRef(fields[3])
			if err != nil {
				return nil, fmt.Errorf("dataset: schema line %d: %w", ln+1, err)
			}
			fti, ok := tableIdx[fromT]
			if !ok {
				return nil, fmt.Errorf("dataset: schema line %d: unknown table %s", ln+1, fromT)
			}
			tti, ok := tableIdx[toT]
			if !ok {
				return nil, fmt.Errorf("dataset: schema line %d: unknown table %s", ln+1, toT)
			}
			_, fci := d.Tables[fti].ColByName(fromC)
			_, tci := d.Tables[tti].ColByName(toC)
			if fci < 0 || tci < 0 {
				return nil, fmt.Errorf("dataset: schema line %d: unknown column", ln+1)
			}
			d.FKs = append(d.FKs, ForeignKey{
				FromTable: fti, FromCol: fci,
				ToTable: tti, ToCol: tci,
			})
		default:
			return nil, fmt.Errorf("dataset: schema line %d: unknown directive %q", ln+1, fields[0])
		}
	}
	return d, d.Validate()
}

func splitRef(s string) (table, col string, err error) {
	parts := strings.SplitN(s, ".", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return "", "", fmt.Errorf("bad column reference %q (want table.column)", s)
	}
	return parts[0], parts[1], nil
}
