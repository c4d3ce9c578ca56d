package gnn

import (
	"math/bits"
	"slices"
	"testing"
)

// TestFromStateRoundTrip: a captured state rebuilds an encoder with the
// same parameters.
func TestFromStateRoundTrip(t *testing.T) {
	e := New(Config{InDim: 3, Hidden: 4, OutDim: 2, Layers: 3, Seed: 5})
	got, err := FromState(e.State())
	if err != nil {
		t.Fatal(err)
	}
	want := e.Params()
	for i, p := range got.Params() {
		if !slices.Equal(p.V, want[i].V) {
			t.Fatalf("parameter %d: %v, want %v", i, p.V, want[i].V)
		}
	}
}

// TestFromStateRejectsCorruptStates: a state whose architecture and
// parameters disagree is an error, and nothing is built from its header
// first (a negative dimension used to panic in New, and a huge one
// allocated whatever it said).
func TestFromStateRejectsCorruptStates(t *testing.T) {
	cfg := Config{InDim: 3, Hidden: 4, OutDim: 2, Layers: 2, Seed: 5}
	half := 1 << (bits.UintSize / 2) // half*half wraps to 0
	cases := []struct {
		name   string
		mutate func(st *State)
	}{
		{"negative InDim", func(st *State) { st.Config.InDim = -1 }},
		{"zero Hidden", func(st *State) { st.Config.Hidden = 0 }},
		{"negative OutDim", func(st *State) { st.Config.OutDim = -4 }},
		{"zero layers", func(st *State) { st.Config.Layers, st.Params = 0, nil }},
		{"huge layers", func(st *State) { st.Config.Layers = 1 << 40 }},
		{"huge dimensions", func(st *State) { st.Config.InDim, st.Config.Hidden = half, half }},
		{"wrapping dimensions", func(st *State) {
			st.Config.InDim, st.Config.Hidden = half, half
			st.Params[1], st.Params[3] = nil, nil
		}},
		{"missing tensor", func(st *State) { st.Params = st.Params[:len(st.Params)-1] }},
		{"extra tensor", func(st *State) { st.Params = append(st.Params, []float64{1}) }},
		{"short tensor", func(st *State) { st.Params[6] = st.Params[6][:len(st.Params[6])-1] }},
		{"long tensor", func(st *State) { st.Params[0] = append(st.Params[0], 1) }},
		{"transposed output layer", func(st *State) { st.Config.Hidden, st.Config.OutDim = 2, 4 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := New(cfg).State()
			tc.mutate(&st)
			if e, err := FromState(st); err == nil {
				t.Fatalf("corrupt state built an encoder with %d parameter tensors", len(e.Params()))
			}
		})
	}
}
