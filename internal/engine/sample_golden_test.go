package engine

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// The SampleJoin golden pins the exact join sample of schemas the
// connected-schema labeling goldens never reach: an unconnected table
// (cross product), a parallel FK edge, an extra edge between non-key
// columns (a cycle the join filters by), and a single table with a
// self-FK, each at sample sizes below and above the full join. Any change
// to the join order, the reservoir or the column projection moves the
// order-sensitive row checksum.
//
// Refresh (after an intentional change to the sample) with:
//
//	go test ./internal/engine -run TestSampleJoinGolden -update-sample-golden

var updateSampleGolden = flag.Bool("update-sample-golden", false, "rewrite testdata/sample_join_golden.json from the current implementation")

type sampleGolden struct {
	Schema       string `json:"schema"`
	Seed         int64  `json:"seed"`
	MaxRows      int    `json:"max_rows"`
	FullJoinSize int64  `json:"full_join_size"`
	Rows         int    `json:"rows"`
	Checksum     string `json:"checksum"`
}

// goldenSchemas reshapes a seeded datagen schema's FK graph.
var goldenSchemas = []struct {
	name   string
	tables int
	rows   int
	shape  func(d *dataset.Dataset)
}{
	{"tree", 3, 30, func(d *dataset.Dataset) {}},
	{"disconnected", 3, 30, func(d *dataset.Dataset) { d.FKs = d.FKs[:1] }},
	{"no-fk", 2, 60, func(d *dataset.Dataset) { d.FKs = nil }},
	{"parallel-edge", 3, 30, func(d *dataset.Dataset) { d.FKs = append(d.FKs, d.FKs[0]) }},
	{"non-key-edge", 3, 30, func(d *dataset.Dataset) {
		a, b := nonKeyCol(d, 0), nonKeyCol(d, 2)
		d.FKs = append(d.FKs, dataset.ForeignKey{FromTable: 0, FromCol: a, ToTable: 2, ToCol: b})
	}},
	{"self-fk", 1, 200, func(d *dataset.Dataset) {
		d.FKs = []dataset.ForeignKey{{FromTable: 0, FromCol: 1, ToTable: 0, ToCol: 0}}
	}},
	{"wide-tree", 4, 200, func(d *dataset.Dataset) {}},
}

// nonKeyCol returns the first column of table ti that is neither its PK
// nor an FK source.
func nonKeyCol(d *dataset.Dataset, ti int) int {
	for ci := range d.Tables[ti].Cols {
		if ci != d.Tables[ti].PKCol && !isFKCol(d, ti, ci) {
			return ci
		}
	}
	panic("no non-key column")
}

func goldenSampleCases(t *testing.T) []sampleGolden {
	t.Helper()
	var out []sampleGolden
	for _, s := range goldenSchemas {
		for seed := int64(1); seed <= 4; seed++ {
			d, err := datagen.Generate(s.name, datagen.Params{
				Tables:  s.tables,
				MinCols: 2, MaxCols: 3,
				MinRows: s.rows / 2, MaxRows: s.rows,
				Domain: 8,
				SkewLo: 0, SkewHi: 1,
				CorrLo: 0, CorrHi: 1,
				JoinLo: 0.3, JoinHi: 1,
				Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			s.shape(d)
			for _, maxRows := range []int{7, 100, 1 << 20} {
				js, err := SampleJoin(d, maxRows, rand.New(rand.NewSource(seed+100)))
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, sampleGolden{
					Schema:       s.name,
					Seed:         seed,
					MaxRows:      maxRows,
					FullJoinSize: js.FullJoinSize,
					Rows:         len(js.Rows),
					Checksum:     sampleChecksum(js),
				})
			}
		}
	}
	return out
}

// sampleChecksum hashes the sample's columns and rows in order.
func sampleChecksum(js *JoinSample) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, c := range js.Cols {
		put(int64(c.Table))
		put(int64(c.Col))
	}
	for _, row := range js.Rows {
		for _, v := range row {
			put(v)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestSampleJoinGolden(t *testing.T) {
	path := filepath.Join("testdata", "sample_join_golden.json")
	got := goldenSampleCases(t)
	if *updateSampleGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("sample golden rewritten: %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-sample-golden): %v", err)
	}
	var want []sampleGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, test produced %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("case %d: got %+v, golden %+v", i, got[i], want[i])
		}
	}
}
