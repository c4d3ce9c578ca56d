package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	tb := NewTable("t", NewColumn("a", []int64{1, 2, 3}), NewColumn("b", []int64{9, 8, 7}))
	var buf bytes.Buffer
	if err := WriteCSV(tb, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("t", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCols() != 2 || got.Rows() != 3 {
		t.Fatalf("round trip shape %dx%d", got.Rows(), got.NumCols())
	}
	for ci := range tb.Cols {
		for r := range tb.Cols[ci].Data {
			if got.Cols[ci].Data[r] != tb.Cols[ci].Data[r] {
				t.Fatalf("value mismatch at c%d r%d", ci, r)
			}
		}
	}
}

func TestReadCSVRejectsBadInput(t *testing.T) {
	if _, err := ReadCSV("t", strings.NewReader("a,b\n1,notanumber\n")); err == nil {
		t.Fatal("non-integer value accepted")
	}
	if _, err := ReadCSV("t", strings.NewReader("a,b\n1\n")); err == nil {
		t.Fatal("short row accepted")
	}
}

func TestSaveDirReadDirRoundTrip(t *testing.T) {
	dim := &Table{Name: "dim", PKCol: 0, Cols: []*Column{
		NewColumn("id", []int64{1, 2, 3, 4}),
		NewColumn("x", []int64{10, 20, 30, 40}),
	}}
	fact := &Table{Name: "fact", PKCol: -1, Cols: []*Column{
		NewColumn("v", []int64{5, 6, 7, 8, 9, 10}),
		NewColumn("dim_id", []int64{1, 1, 2, 2, 3, 3}),
	}}
	d := &Dataset{
		Name:   "demo",
		Tables: []*Table{dim, fact},
		FKs:    []ForeignKey{{FromTable: 1, FromCol: 1, ToTable: 0, ToCol: 0}},
	}
	dir := filepath.Join(t.TempDir(), "demo")
	if err := SaveDir(d, dir); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "demo" || got.NumTables() != 2 {
		t.Fatalf("loaded %s with %d tables", got.Name, got.NumTables())
	}
	// Tables come back sorted by filename: dim, fact.
	if got.Tables[0].Name != "dim" || got.Tables[0].PKCol != 0 {
		t.Fatalf("dim table: %+v", got.Tables[0])
	}
	if len(got.FKs) != 1 {
		t.Fatalf("fks: %+v", got.FKs)
	}
	fk := got.FKs[0]
	if got.Tables[fk.FromTable].Name != "fact" || got.Tables[fk.ToTable].Name != "dim" {
		t.Fatal("fk direction lost")
	}
	// The join correlation is measured from the data: fact references 3 of 4 PKs.
	if corr := StatsFor(got).FKCorrelations()[0]; corr != 0.75 {
		t.Fatalf("measured correlation %g, want 0.75", corr)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadDirWithoutSchema(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "only.csv"), []byte("a\n1\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTables() != 1 || d.Tables[0].Rows() != 2 {
		t.Fatalf("loaded %d tables", d.NumTables())
	}
}

func TestReadDirRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "t.csv"), []byte("a\n1\n"), 0o644)
	for _, schema := range []string{
		"pk t\n",              // short pk
		"pk other a\n",        // unknown table
		"fk t.a -> ghost.a\n", // unknown fk target
		"fk t.a x t.a\n",      // bad arrow
		"wat is this\n",       // unknown directive
	} {
		os.WriteFile(filepath.Join(dir, "schema.txt"), []byte(schema), 0o644)
		if _, err := ReadDir(dir); err == nil {
			t.Fatalf("schema %q accepted", schema)
		}
	}
}

func TestReadDirEmpty(t *testing.T) {
	if _, err := ReadDir(t.TempDir()); err == nil {
		t.Fatal("empty directory accepted")
	}
}
