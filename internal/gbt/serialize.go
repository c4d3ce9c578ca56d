package gbt

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// nodeState mirrors node with exported fields for gob.
type nodeState struct {
	Feature   int
	Threshold float64
	Left      int
	Right     int
	Leaf      bool
	Value     float64
}

// GobEncode implements gob.GobEncoder, flattening the array-encoded tree.
// An Ensemble gob-encodes directly: its exported fields carry everything,
// and its trees serialize through this method.
func (t *Tree) GobEncode() ([]byte, error) {
	nodes := make([]nodeState, len(t.nodes))
	for i, n := range t.nodes {
		nodes[i] = nodeState{
			Feature: n.feature, Threshold: n.threshold,
			Left: n.left, Right: n.right, Leaf: n.leaf, Value: n.value,
		}
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(nodes)
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (t *Tree) GobDecode(data []byte) error {
	var nodes []nodeState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&nodes); err != nil {
		return fmt.Errorf("gbt: decoding tree: %w", err)
	}
	if len(nodes) == 0 {
		return fmt.Errorf("gbt: tree has no nodes")
	}
	t.nodes = make([]node, len(nodes))
	for i, n := range nodes {
		// Training appends children after their parent, so every
		// descent index increases and Predict reaches a leaf.
		if !n.Leaf && (n.Left <= i || n.Left >= len(nodes) || n.Right <= i || n.Right >= len(nodes)) {
			return fmt.Errorf("gbt: tree node %d has children %d/%d of %d", i, n.Left, n.Right, len(nodes))
		}
		if !n.Leaf && n.Feature < 0 {
			return fmt.Errorf("gbt: tree node %d splits on feature %d", i, n.Feature)
		}
		t.nodes[i] = node{
			feature: n.Feature, threshold: n.Threshold,
			left: n.Left, right: n.Right, leaf: n.Leaf, value: n.Value,
		}
	}
	return nil
}

// CheckDim reports an error unless every split of the ensemble reads a
// feature below dim, the length of the vectors Predict will be given.
func (e *Ensemble) CheckDim(dim int) error {
	for ti, t := range e.Trees {
		if t == nil {
			return fmt.Errorf("gbt: tree %d is missing", ti)
		}
		for i, n := range t.nodes {
			if !n.leaf && n.feature >= dim {
				return fmt.Errorf("gbt: tree %d node %d splits on feature %d of %d", ti, i, n.feature, dim)
			}
		}
	}
	return nil
}
