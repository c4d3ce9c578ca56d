package core

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// FuzzLoadAdvisor feeds Load arbitrary bytes. It is seeded with a small
// trained advisor's artifact and with states that once panicked in Load
// (a ragged vertex row, a nil graph) or loaded (a one-entry Sa, K of 0 or
// 2^40). Load must return an advisor or an error, never both and never a
// panic, and every advisor it returns must answer one Recommend and one
// DetectDrift.
func FuzzLoadAdvisor(f *testing.F) {
	adv, err := Train(corpus(f, 6, 27), testConfig())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := adv.Save(&buf); err != nil {
		f.Fatal(err)
	}
	saved := buf.Bytes()
	f.Add(saved)
	for _, mutate := range []func(st *advisorState){
		func(st *advisorState) {
			v := st.Samples[0].Graph.V
			v[0] = v[0][:len(v[0])-1]
		},
		func(st *advisorState) { st.Samples[1].Graph = nil },
		func(st *advisorState) { st.Samples[0].Sa = st.Samples[0].Sa[:1] },
		func(st *advisorState) { st.Cfg.K = 0 },
		func(st *advisorState) { st.Cfg.K = 1 << 40 },
	} {
		var st advisorState
		if err := gob.NewDecoder(bytes.NewReader(saved)).Decode(&st); err != nil {
			f.Fatal(err)
		}
		mutate(&st)
		var broken bytes.Buffer
		if err := gob.NewEncoder(&broken).Encode(&st); err != nil {
			f.Fatal(err)
		}
		f.Add(broken.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Load(bytes.NewReader(data))
		if (a == nil) == (err == nil) {
			t.Fatalf("Load returned advisor %v with error %v", a, err)
		}
		if a == nil {
			return
		}
		// Load checked every candidate graph against the encoder, so the
		// first one is a valid query.
		first := a.Serving().rcs[0]
		if rec := a.Recommend(first.Graph, 0.5); rec.Model < 0 || rec.Model >= len(first.Sa) {
			t.Fatalf("loaded advisor recommended model %d of %d", rec.Model, len(first.Sa))
		}
		a.DetectDrift(first.Graph)
	})
}
