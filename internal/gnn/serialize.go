package gnn

import "fmt"

// State is the serializable form of an Encoder: the architecture plus the
// flattened parameter values, in Params() order.
type State struct {
	Config Config
	Params [][]float64
}

// State captures the encoder for persistence.
func (e *Encoder) State() State {
	st := State{Config: e.cfg}
	for _, p := range e.Params() {
		st.Params = append(st.Params, append([]float64(nil), p.V...))
	}
	return st
}

// FromState reconstructs an encoder from a captured state. The state's
// shape is checked before anything is allocated, so a corrupt state is
// an error rather than a panic or an allocation sized by its header.
func FromState(st State) (*Encoder, error) {
	if err := st.check(); err != nil {
		return nil, err
	}
	e := New(st.Config)
	for i, p := range e.Params() {
		copy(p.V, st.Params[i])
	}
	return e, nil
}

// check reports whether Params holds exactly the tensors New builds for
// Config: per layer ε (1 value), then the MLP's in×Hidden weights,
// Hidden biases, Hidden×out weights and out biases. Each length is
// compared by division, so no product of dimensions can overflow.
func (st State) check() error {
	c := st.Config
	if c.Layers < 1 || c.InDim < 1 || c.Hidden < 1 || c.OutDim < 1 {
		return fmt.Errorf("gnn: state architecture %d layers, dims %d/%d/%d: each must be at least 1",
			c.Layers, c.InDim, c.Hidden, c.OutDim)
	}
	const perLayer = 5
	if c.Layers > len(st.Params)/perLayer || len(st.Params) != perLayer*c.Layers {
		return fmt.Errorf("gnn: state has %d parameter tensors, architecture needs %d per layer for %d layers",
			len(st.Params), perLayer, c.Layers)
	}
	in := c.InDim
	for l := range c.Layers {
		out := c.Hidden
		if l == c.Layers-1 {
			out = c.OutDim
		}
		for k, shape := range [perLayer][2]int{{1, 1}, {in, c.Hidden}, {1, c.Hidden}, {c.Hidden, out}, {1, out}} {
			i := perLayer*l + k
			if n := len(st.Params[i]); n%shape[1] != 0 || n/shape[1] != shape[0] {
				return fmt.Errorf("gnn: parameter %d has %d values, want %d×%d", i, n, shape[0], shape[1])
			}
		}
		in = out
	}
	return nil
}
