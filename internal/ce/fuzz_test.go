package ce_test

// Native fuzzers for the subset-key codec, the artifact name escaping and
// the model-artifact format. SubsetKey strings are map keys inside
// persisted artifacts, so the canonical form must be a bijection: every
// table set has exactly one spelling, and every accepted spelling
// round-trips. Corpus seeds live in testdata/fuzz; CI runs each fuzzer
// briefly (-fuzz=... -fuzztime=10s) to keep the corpus honest.

import (
	"bytes"
	"net/url"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ce"
	"repro/internal/datagen"
	"repro/internal/envelope"
)

// FuzzLoadModel: whatever gob payload a model artifact carries, LoadModel
// returns a model or an error, and never panics. The seeds are the
// artifacts of every registry model trained on a tiny dataset; each
// mutated payload is framed in a valid envelope, so mutations get past
// the checksum and reach gob and every model's GobDecode.
func FuzzLoadModel(f *testing.F) {
	models, _, _ := trainZoo(f, datagen.Params{
		Tables:  2,
		MinCols: 2, MaxCols: 2,
		MinRows: 30, MaxRows: 40,
		Domain: 8,
		SkewLo: 0, SkewHi: 0.8,
		CorrLo: 0, CorrHi: 0.5,
		JoinLo: 0.5, JoinHi: 1,
		Seed: 5151,
	}, 60, 40)
	var magic [8]byte
	for _, m := range models {
		var buf bytes.Buffer
		if err := ce.SaveModel(&buf, m); err != nil {
			f.Fatalf("SaveModel(%s): %v", m.Name(), err)
		}
		copy(magic[:], buf.Bytes())
		payload, err := envelope.Read(&buf, magic, 1<<30)
		if err != nil {
			f.Fatalf("reading back the %s artifact: %v", m.Name(), err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var buf bytes.Buffer
		if err := envelope.Write(&buf, magic, payload); err != nil {
			t.Fatal(err)
		}
		m, err := ce.LoadModel(&buf)
		if (m == nil) == (err == nil) {
			t.Fatalf("LoadModel returned model %v with error %v", m, err)
		}
	})
}

// FuzzSubsetKeyRoundTrip: for any table set, ParseSubsetKey(SubsetKey(x))
// returns the sorted, deduplicated set, and re-encoding is a fixed point.
func FuzzSubsetKeyRoundTrip(f *testing.F) {
	f.Add(0, 0, 0)
	f.Add(1, 2, 3)
	f.Add(7, 7, 7)
	f.Add(100, 0, 99)
	f.Fuzz(func(t *testing.T, a, b, c int) {
		// SubsetKey's domain is table indexes: small non-negative ints.
		tables := []int{abs(a) % 1000, abs(b) % 1000, abs(c) % 1000}
		// SubsetKey sorts but does not deduplicate (real callers pass
		// sets); canonicalize the fuzz input the same way.
		sort.Ints(tables)
		uniq := tables[:0]
		for i, v := range tables {
			if i == 0 || v != tables[i-1] {
				uniq = append(uniq, v)
			}
		}
		key := ce.SubsetKey(uniq)
		back, err := ce.ParseSubsetKey(key)
		if err != nil {
			t.Fatalf("ParseSubsetKey(SubsetKey(%v) = %q): %v", uniq, key, err)
		}
		if len(back) != len(uniq) {
			t.Fatalf("round trip of %v changed length: %v", uniq, back)
		}
		for i := range back {
			if back[i] != uniq[i] {
				t.Fatalf("round trip of %v = %v", uniq, back)
			}
		}
		if re := ce.SubsetKey(back); re != key {
			t.Fatalf("re-encoding %v: %q != %q", back, re, key)
		}
	})
}

// FuzzParseSubsetKey: arbitrary strings never panic the parser, and any
// accepted string is in canonical form (re-encoding reproduces it
// exactly) — the bijection's other half.
func FuzzParseSubsetKey(f *testing.F) {
	f.Add("")
	f.Add("0,")
	f.Add("1,2,3,")
	f.Add("01,")
	f.Add("2,1,")
	f.Add("-1,")
	f.Add("1,1,")
	f.Add("99999999999999999999,")
	f.Add("1,\x00,")
	f.Fuzz(func(t *testing.T, key string) {
		tables, err := ce.ParseSubsetKey(key)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		if re := ce.SubsetKey(tables); re != key {
			t.Fatalf("accepted non-canonical key %q (re-encodes to %q)", key, re)
		}
	})
}

func abs(v int) int {
	if v < 0 {
		// Avoid the MinInt overflow: any fixed in-range value works, the
		// fuzzer only needs a deterministic mapping.
		if v == -v {
			return 0
		}
		return -v
	}
	return v
}

// FuzzEscapeName: every non-empty name maps to one path element that is
// neither "." nor "..", carries no '#' (the tenant manifest's marker for
// its temp and quarantined files), and unescapes back to the name.
func FuzzEscapeName(f *testing.F) {
	for _, s := range []string{"a", ".", "..", "...", "a/b", "../x", "%2E", "#", "beta/γ", "a b"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		if name == "" {
			return // onboarding rejects empty names
		}
		got := ce.EscapeName(name)
		if got == "" || got == "." || got == ".." || strings.ContainsAny(got, "/\\#") || filepath.Base(got) != got {
			t.Fatalf("EscapeName(%q) = %q, not one safe path element", name, got)
		}
		if back, err := url.PathUnescape(got); err != nil || back != name {
			t.Fatalf("PathUnescape(EscapeName(%q)) = %q, %v", name, back, err)
		}
	})
}
