package workload

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
)

func testDataset(t *testing.T, tables int, seed int64) *dataset.Dataset {
	t.Helper()
	p := datagen.Params{
		Tables:  tables,
		MinCols: 2, MaxCols: 4,
		MinRows: 60, MaxRows: 120,
		Domain: 20,
		SkewLo: 0, SkewHi: 1,
		CorrLo: 0, CorrHi: 0.8,
		JoinLo: 0.3, JoinHi: 1,
		Seed: seed,
	}
	d, err := datagen.Generate("wl", p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateProducesValidLabeledQueries(t *testing.T) {
	for _, tables := range []int{1, 3} {
		d := testDataset(t, tables, int64(tables))
		qs := Generate(d, DefaultConfig(30, 5))
		if len(qs) != 30 {
			t.Fatalf("generated %d queries, want 30", len(qs))
		}
		for i, q := range qs {
			if err := q.Query.Validate(d); err != nil {
				t.Fatalf("query %d invalid: %v", i, err)
			}
			if len(q.Preds) == 0 {
				t.Fatalf("query %d has no predicates", i)
			}
			if q.TrueCard < 0 {
				t.Fatalf("query %d unlabeled", i)
			}
			if got := engine.Cardinality(d, &q.Query); got != q.TrueCard {
				t.Fatalf("query %d label %d, engine %d", i, q.TrueCard, got)
			}
			// Join edges must connect the listed tables.
			if len(q.Tables) > 1 && len(q.Joins) != len(q.Tables)-1 {
				t.Fatalf("query %d: %d tables with %d joins", i, len(q.Tables), len(q.Joins))
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d := testDataset(t, 2, 9)
	a := Generate(d, DefaultConfig(10, 3))
	b := Generate(d, DefaultConfig(10, 3))
	for i := range a {
		if a[i].TrueCard != b[i].TrueCard {
			t.Fatal("same seed produced different workloads")
		}
	}
}

// TestGenerateUnlabeledReproducible: one dataset and seed give one query
// stream. On the 8-table STATSLike schema, collecting the candidate join
// edges in map order made nearly every rerun draw a different stream.
func TestGenerateUnlabeledReproducible(t *testing.T) {
	d := datagen.STATSLike(3)
	want := GenerateUnlabeled(d, DefaultConfig(200, 7))
	for run := 0; run < 3; run++ {
		got := GenerateUnlabeled(d, DefaultConfig(200, 7))
		if len(got) != len(want) {
			t.Fatalf("run %d: %d queries, want %d", run, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i].Query, want[i].Query) {
				t.Fatalf("run %d query %d: %+v, want %+v", run, i, got[i].Query, want[i].Query)
			}
		}
	}
}

func TestSplit(t *testing.T) {
	d := testDataset(t, 1, 2)
	qs := Generate(d, DefaultConfig(20, 1))
	train, test := Split(qs, 0.7, 5)
	if len(train) != 14 || len(test) != 6 {
		t.Fatalf("split %d/%d, want 14/6", len(train), len(test))
	}
	seen := map[*Query]bool{}
	for _, q := range append(append([]*Query(nil), train...), test...) {
		if seen[q] {
			t.Fatal("query appears twice after split")
		}
		seen[q] = true
	}
}

func TestEncoderDimsAndRanges(t *testing.T) {
	d := testDataset(t, 3, 4)
	enc := NewEncoder(d)
	if enc.Dim() != enc.TableDim()+enc.JoinDim()+enc.PredDim() {
		t.Fatal("encoder dim mismatch")
	}
	qs := Generate(d, DefaultConfig(20, 6))
	for _, q := range qs {
		v := enc.Encode(q)
		if len(v) != enc.Dim() {
			t.Fatalf("encoded length %d, want %d", len(v), enc.Dim())
		}
		for i, x := range v {
			if x < -0.001 || x > 1.001 {
				t.Fatalf("feature %d = %g outside [0,1]", i, x)
			}
		}
	}
}

func TestEncoderMarksTablesAndPreds(t *testing.T) {
	d := testDataset(t, 2, 8)
	enc := NewEncoder(d)
	qs := Generate(d, DefaultConfig(5, 2))
	q := qs[0]
	v := enc.Encode(q)
	for _, ti := range q.Tables {
		if v[ti] != 1 {
			t.Fatalf("table %d not marked", ti)
		}
	}
	// Count predicate presence flags.
	pb := enc.TableDim() + enc.JoinDim()
	marked := 0
	for slot := 0; slot < enc.PredDim()/3; slot++ {
		if v[pb+3*slot] == 1 {
			marked++
		}
	}
	distinctCols := map[[2]int]bool{}
	for _, p := range q.Preds {
		distinctCols[[2]int{p.Table, p.Col}] = true
	}
	if marked != len(distinctCols) {
		t.Fatalf("%d predicate slots marked, want %d", marked, len(distinctCols))
	}
}

// TestEncoderDecodeRejectsBlockSizes: the table and join blocks must be
// sizes the encoding can index: no negative table count, and one join
// slot per foreign key. A query table the encoder lacks marks nothing.
func TestEncoderDecodeRejectsBlockSizes(t *testing.T) {
	enc := NewEncoder(testDataset(t, 2, 8))
	for name, mutate := range map[string]func(st *encoderState){
		"negative tables": func(st *encoderState) { st.Tables = -8 },
		"join count":      func(st *encoderState) { st.NumJoins++ },
	} {
		st := encoderState{ColKeys: enc.colKeys, ColLo: enc.colLo, ColRange: enc.colRange,
			FKs: enc.fks, Tables: enc.numTables, NumJoins: enc.numJoins}
		mutate(&st)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
			t.Fatal(err)
		}
		if err := new(Encoder).GobDecode(buf.Bytes()); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	v := enc.Encode(&Query{Query: engine.Query{Tables: []int{0, 5, -1}}})
	if v[0] != 1 || slices.Contains(v[1:], 1) {
		t.Fatalf("tables 0, 5 and -1 of 2 encoded as %v", v)
	}
}

func TestLogExpCardRoundTrip(t *testing.T) {
	for _, c := range []int64{0, 1, 5, 1000, 1 << 40} {
		got := ExpCard(LogCard(c))
		want := float64(c)
		if want < 1 {
			want = 1
		}
		if got < want*0.999 || got > want*1.001 {
			t.Fatalf("round trip %d -> %g", c, got)
		}
	}
}

func TestQueryString(t *testing.T) {
	d := testDataset(t, 2, 12)
	qs := Generate(d, DefaultConfig(5, 2))
	s := String(d, qs[0])
	if !strings.HasPrefix(s, "SELECT COUNT(*) FROM ") || !strings.Contains(s, "BETWEEN") {
		t.Fatalf("unexpected SQL rendering: %s", s)
	}
}

func TestCEBSchemaAndWorkload(t *testing.T) {
	d := CEBSchema(1)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumTables() != 8 {
		t.Fatalf("ceb schema has %d tables", d.NumTables())
	}
	if len(d.FKs) != 7 {
		t.Fatalf("ceb schema has %d fks", len(d.FKs))
	}
	qs := CEBWorkload(d, 3, 2)
	if len(qs) != 3*len(CEBTemplates()) {
		t.Fatalf("ceb workload has %d queries", len(qs))
	}
	for i, q := range qs {
		if err := q.Query.Validate(d); err != nil {
			t.Fatalf("ceb query %d invalid: %v", i, err)
		}
		if len(q.Tables) < 3 {
			t.Fatalf("ceb query %d joins only %d tables", i, len(q.Tables))
		}
	}
}
