package nn

import (
	"math/rand"
	"testing"
)

func TestMLPCheckShape(t *testing.T) {
	fresh := func() *MLP { return NewMLP(rand.New(rand.NewSource(1)), []int{7, 8, 3}, ActReLU, ActNone) }
	if err := fresh().CheckShape(7, 3); err != nil {
		t.Fatalf("CheckShape(7, 3) = %v", err)
	}
	bad := map[string]func(m *MLP) int{
		"wrong input width":  func(m *MLP) int { return 8 },
		"wrong output width": func(m *MLP) int { m.Layers = m.Layers[:1]; return 7 },
		"transposed first W": func(m *MLP) int {
			w := m.Layers[0].W
			m.Layers[0].W = &Tensor{R: w.C, C: w.R, V: w.V}
			return 7
		},
		"short bias":    func(m *MLP) int { m.Layers[1].B = Zeros(1, 2); return 7 },
		"column bias":   func(m *MLP) int { m.Layers[1].B = Zeros(3, 1); return 7 },
		"missing W":     func(m *MLP) int { m.Layers[0].W = nil; return 7 },
		"missing layer": func(m *MLP) int { m.Layers[1] = nil; return 7 },
		"no layers":     func(m *MLP) int { m.Layers = nil; return 7 },
	}
	for name, spoil := range bad {
		m := fresh()
		in := spoil(m)
		if err := m.CheckShape(in, 3); err == nil {
			t.Errorf("%s: CheckShape accepted it", name)
		}
	}
	if err := (*MLP)(nil).CheckShape(7, 3); err == nil {
		t.Error("nil MLP: CheckShape accepted it")
	}
}
