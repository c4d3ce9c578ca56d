package analysis

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden runs each rule over its testdata mini-module and matches the
// findings against `// want "substring"` comments: every want must be hit
// by a finding on its line, and every finding must land on a want. The
// modules also carry suppressed and clean shapes, which assert by the
// absence of a want comment.
func TestGolden(t *testing.T) {
	for _, r := range Rules() {
		t.Run(r.Name, func(t *testing.T) { golden(t, r) })
	}
}

func golden(t *testing.T, r *Rule) {
	mod, err := Load(filepath.Join("testdata", r.Name))
	if err != nil {
		t.Fatalf("loading testdata module: %v", err)
	}
	wants := collectWants(t, mod)
	for _, f := range RunRules(mod, []*Rule{r}) {
		key := lineKey(f.Pos.Filename, f.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.hit && strings.Contains(f.Message, w.substr) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s: expected a finding containing %q, got none", key, w.substr)
			}
		}
	}
}

type want struct {
	substr string
	hit    bool
}

// collectWants scans every comment of the loaded module for
// `want "substring"` markers, keyed by the file:line they sit on.
func collectWants(t *testing.T, mod *Module) map[string][]*want {
	t.Helper()
	out := map[string][]*want{}
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, `want "`)
					if idx < 0 {
						continue
					}
					substr, _, ok := strings.Cut(c.Text[idx+len(`want "`):], `"`)
					if !ok {
						t.Fatalf("%s: unterminated want comment %q", mod.Fset.Position(c.Pos()), c.Text)
					}
					pos := mod.Fset.Position(c.Pos())
					key := lineKey(pos.Filename, pos.Line)
					out[key] = append(out[key], &want{substr: substr})
				}
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("testdata module has no want comments")
	}
	return out
}

// TestRepoIsVetClean is the regression gate for every violation this PR
// fixed (the handleDatasets double snapshot load, flat's map-order group
// assembly and histogram accumulation, the experiments map-range) and for
// the suppressions' reasons staying well-formed: reintroducing any of them
// makes the full rule suite fire on the repo again.
func TestRepoIsVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module against GOROOT source")
	}
	mod, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading repo module: %v", err)
	}
	if mod.Path != "repro" {
		t.Fatalf("loaded module %q, want repro", mod.Path)
	}
	for _, f := range RunRules(mod, nil) {
		t.Errorf("repo must be vet-clean, got: %s", f)
	}
}

// TestAccessorDetection pins the interprocedural half of snapshotonce: the
// real module's Advisor.Serving accessor must be recognized as a load of
// its atomic.Pointer field.
func TestAccessorDetection(t *testing.T) {
	mod, err := Load(filepath.Join("testdata", "snapshotonce"))
	if err != nil {
		t.Fatal(err)
	}
	accessors := mod.snapshotAccessors()
	found := false
	for key, field := range accessors {
		if key.method == "Serving" && field == "p" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Serving accessor not detected; got %d accessors", len(accessors))
	}
}

// TestFindingString pins the report format the satellite tooling parses.
func TestFindingString(t *testing.T) {
	f := Finding{Rule: "detpath", Message: "m"}
	f.Pos.Filename, f.Pos.Line = "a/b.go", 7
	if got, wantStr := f.String(), "a/b.go:7: [detpath] m"; got != wantStr {
		t.Fatalf("String() = %q, want %q", got, wantStr)
	}
}

// TestRuleRegistry pins the suite: exactly the six documented rules, each
// with a doc line, resolvable by name.
func TestRuleRegistry(t *testing.T) {
	names := []string{}
	for _, r := range Rules() {
		names = append(names, r.Name)
		if r.Doc == "" || r.Run == nil {
			t.Errorf("rule %s lacks doc or run", r.Name)
		}
		if RuleByName(r.Name) != r {
			t.Errorf("RuleByName(%s) does not round-trip", r.Name)
		}
	}
	wantNames := []string{"barego", "ctxloop", "detpath", "failpointlit", "pinpair", "snapshotonce"}
	if fmt.Sprint(names) != fmt.Sprint(wantNames) {
		t.Fatalf("registered rules %v, want %v", names, wantNames)
	}
}
