package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	samples := corpus(t, 20, 21)
	adv, err := Train(samples, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := adv.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded advisor must reproduce embeddings and recommendations
	// exactly.
	for i, s := range samples {
		a := adv.Embed(s.Graph)
		b := loaded.Embed(s.Graph)
		for f := range a {
			if math.Abs(a[f]-b[f]) > 1e-12 {
				t.Fatalf("sample %d: embedding differs after reload", i)
			}
		}
		for _, wa := range []float64{1.0, 0.5} {
			if adv.Recommend(s.Graph, wa).Model != loaded.Recommend(s.Graph, wa).Model {
				t.Fatalf("sample %d: recommendation differs after reload", i)
			}
		}
	}
	// Drift threshold (derived state) matches too.
	if math.Abs(adv.DriftThreshold()-loaded.DriftThreshold()) > 1e-12 {
		t.Fatal("drift threshold differs after reload")
	}
}

func TestSaveLoadFile(t *testing.T) {
	samples := corpus(t, 10, 22)
	adv, err := Train(samples, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "advisor.gob")
	if err := adv.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.RCS()) != len(samples) {
		t.Fatalf("loaded RCS has %d samples", len(loaded.RCS()))
	}
}

func TestLoadedAdvisorRemainsTrainable(t *testing.T) {
	// Incremental learning and online adapting must work on a reloaded
	// advisor (the encoder parameters stay trainable).
	samples := corpus(t, 16, 23)
	adv, err := Train(samples, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := adv.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	il := DefaultILConfig()
	il.Epochs = 2
	report := loaded.IncrementalLearn(il)
	if report.FeedbackCount+report.ReferenceCount != len(samples) {
		t.Fatal("incremental learning failed on a reloaded advisor")
	}
	extra := corpus(t, 1, 24)[0]
	loaded.OnlineAdapt(extra, 1)
	if len(loaded.RCS()) != len(samples)+1 {
		t.Fatal("online adapting failed on a reloaded advisor")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadFile("/nonexistent/advisor.gob"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestSaveFileReplacesAtomically: SaveFile never writes into the file it
// replaces. A reader holding the previous advisor open still reads it
// whole, a failed write leaves it byte-identical, and no temporary file
// stays behind.
func TestSaveFileReplacesAtomically(t *testing.T) {
	first, err := Train(corpus(t, 8, 25), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	second, err := Train(corpus(t, 10, 26), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "advisor.gob")
	if err := first.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	held, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	if err := second.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(held); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("the replaced advisor changed under an open reader (err %v)", err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.RCS()) != len(second.RCS()) {
		t.Fatalf("loaded %d samples, saved %d", len(loaded.RCS()), len(second.RCS()))
	}

	current, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("write failed")
	err = writeFileAtomic(path, func(w io.Writer) error {
		if err := first.Save(w); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, current) {
		t.Fatalf("a failed save changed the advisor on disk (err %v)", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d files after the saves, want 1", len(ents))
	}
}

// TestLoadRejectsMalformedSamples: an artifact whose candidate samples do
// not fit the encoder or each other, whose encoder weights do not fit
// its architecture, or whose configuration is out of range, fails to load
// with an error, where it used to panic or load.
func TestLoadRejectsMalformedSamples(t *testing.T) {
	adv, err := Train(corpus(t, 6, 27), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := adv.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	// decode returns a fresh copy of the saved state to break.
	decode := func() *advisorState {
		var st advisorState
		if err := gob.NewDecoder(bytes.NewReader(saved)).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return &st
	}
	cases := []struct {
		name   string
		mutate func(st *advisorState)
	}{
		{"nil graph", func(st *advisorState) { st.Samples[1].Graph = nil }},
		{"no vertices", func(st *advisorState) { st.Samples[1].Graph.V, st.Samples[1].Graph.E = nil, nil }},
		{"short first vertex row", func(st *advisorState) {
			v := st.Samples[0].Graph.V
			v[0] = v[0][:len(v[0])-1]
		}},
		{"long vertex row", func(st *advisorState) {
			v := st.Samples[2].Graph.V
			v[len(v)-1] = append(v[len(v)-1], 1)
		}},
		{"missing edge row", func(st *advisorState) {
			g := st.Samples[0].Graph
			g.E = g.E[:len(g.E)-1]
		}},
		{"short edge row", func(st *advisorState) {
			g := st.Samples[0].Graph
			g.E[0] = g.E[0][:len(g.E[0])-1]
		}},
		{"Sa longer than Se", func(st *advisorState) { st.Samples[3].Sa = append(st.Samples[3].Sa, 0.5) }},
		{"labels shorter than the others", func(st *advisorState) {
			s := &st.Samples[4]
			s.Sa, s.Se = s.Sa[:1], s.Se[:1]
		}},
		{"negative encoder InDim", func(st *advisorState) { st.Encoder.Config.InDim = -1 }},
		{"encoder layers past its weights", func(st *advisorState) { st.Encoder.Config.Layers = 1 << 40 }},
		{"short encoder weights", func(st *advisorState) {
			w := st.Encoder.Params
			w[1] = w[1][:len(w[1])-1]
		}},
		{"K of 0", func(st *advisorState) { st.Cfg.K = 0 }},
		{"negative K", func(st *advisorState) { st.Cfg.K = -2 }},
		{"NaN Tau", func(st *advisorState) { st.Cfg.Tau = math.NaN() }},
		{"infinite Gamma", func(st *advisorState) { st.Cfg.Gamma = math.Inf(1) }},
		{"infinite LR", func(st *advisorState) { st.Cfg.LR = math.Inf(-1) }},
		{"TauQuantile above 1", func(st *advisorState) { st.Cfg.TauQuantile = 1.5 }},
		{"negative TauQuantile", func(st *advisorState) { st.Cfg.TauQuantile = -0.1 }},
		{"NaN TauQuantile", func(st *advisorState) { st.Cfg.TauQuantile = math.NaN() }},
		{"WeightGrid entry above 1", func(st *advisorState) { st.Cfg.WeightGrid = append(st.Cfg.WeightGrid, 1.01) }},
		{"NaN WeightGrid entry", func(st *advisorState) { st.Cfg.WeightGrid[0] = math.NaN() }},
		{"negative Epochs", func(st *advisorState) { st.Cfg.Epochs = -1 }},
		{"negative Batch", func(st *advisorState) { st.Cfg.Batch = -24 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := decode()
			tc.mutate(st)
			var broken bytes.Buffer
			if err := gob.NewEncoder(&broken).Encode(st); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(&broken); err == nil {
				t.Fatal("malformed advisor loaded")
			}
		})
	}
	// The unbroken state still loads, so each case fails on its break.
	var whole bytes.Buffer
	if err := gob.NewEncoder(&whole).Encode(decode()); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&whole); err != nil {
		t.Fatal(err)
	}
}
