package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// tensorState is the persisted form of a Tensor: shape and values only.
// Gradients (G) are transient optimizer state and the autodiff closures
// are rebuilt by whatever graph the loaded tensor joins, so serializing
// either would only bloat artifacts — model files shrink roughly 2x by
// leaving G out.
type tensorState struct {
	R, C int
	V    []float64
}

// GobEncode implements gob.GobEncoder.
func (t *Tensor) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&tensorState{R: t.R, C: t.C, V: t.V})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. The decoded tensor is a plain leaf
// (no gradient buffer, not marked trainable) — exactly what inference
// needs; re-training a loaded model requires fresh parameter tensors.
func (t *Tensor) GobDecode(data []byte) error {
	var st tensorState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("nn: decoding tensor: %w", err)
	}
	// Negative dimensions, or a product that overflows, could otherwise
	// match the value count and leave a shape no kernel can honour.
	if st.R < 0 || st.C < 0 || (st.C > 0 && st.R > math.MaxInt/st.C) || len(st.V) != st.R*st.C {
		return fmt.Errorf("nn: tensor state %dx%d carries %d values", st.R, st.C, len(st.V))
	}
	*t = Tensor{R: st.R, C: st.C, V: st.V}
	return nil
}

// CheckShape reports an error unless the layers map width in to width
// out: every layer has both tensors, the first W has in rows, each W's
// column count is the next W's row count, each B is 1×(its W's columns),
// and the last W has out columns. Decoders of models holding an MLP call
// it, since each decoded tensor checks only itself and a layer that does
// not chain would panic on first use.
func (m *MLP) CheckShape(in, out int) error {
	if m == nil || len(m.Layers) == 0 {
		return fmt.Errorf("nn: MLP has no layers")
	}
	w := in
	for i, l := range m.Layers {
		if l == nil || l.W == nil || l.B == nil {
			return fmt.Errorf("nn: MLP layer %d lacks weights", i)
		}
		if l.W.R != w {
			return fmt.Errorf("nn: MLP layer %d weights are %dx%d for input width %d", i, l.W.R, l.W.C, w)
		}
		if l.B.R != 1 || l.B.C != l.W.C {
			return fmt.Errorf("nn: MLP layer %d bias is %dx%d for width %d", i, l.B.R, l.B.C, l.W.C)
		}
		w = l.W.C
	}
	if w != out {
		return fmt.Errorf("nn: MLP has %d outputs, want %d", w, out)
	}
	return nil
}
