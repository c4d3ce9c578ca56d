package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/ann"
	"repro/internal/feature"
	"repro/internal/gnn"
)

// advisorState is the gob-serializable form of a trained Advisor: the
// configuration, the encoder weights, and the recommendation candidate set
// with labels. Embeddings are recomputed on load (they are derived state);
// the ANN index is persisted as its own self-checking envelope so a large
// RCS does not pay the index rebuild on startup.
type advisorState struct {
	Cfg      Config
	Encoder  gnn.State
	Samples  []sampleState
	ANNIndex []byte
}

type sampleState struct {
	Name   string
	Graph  *feature.Graph
	Sa, Se []float64
}

// Save writes the trained advisor to w in gob format. A saved advisor can
// be reloaded with Load and used for recommendation, drift detection,
// online adapting and incremental learning — the full Stage 3/4 surface.
// Save reads the current serving snapshot, so it is safe concurrently with
// both readers and mutators and always writes a consistent state.
func (a *Advisor) Save(w io.Writer) error {
	snap := a.Serving()
	st := advisorState{Cfg: a.cfg, Encoder: snap.enc.State()}
	for _, s := range snap.rcs {
		st.Samples = append(st.Samples, sampleState{
			Name: s.Name, Graph: s.Graph, Sa: s.Sa, Se: s.Se,
		})
	}
	if snap.index != nil {
		blob, err := snap.index.MarshalBinary()
		if err != nil {
			return fmt.Errorf("core: encoding ann index: %w", err)
		}
		st.ANNIndex = blob
	}
	if err := gob.NewEncoder(w).Encode(&st); err != nil {
		return fmt.Errorf("core: encoding advisor: %w", err)
	}
	return nil
}

// SaveFile writes the advisor to a file path. It writes a temporary file
// in the same directory and renames it into place, so a failed or
// interrupted save leaves the previous file as it was.
func (a *Advisor) SaveFile(path string) error {
	return writeFileAtomic(path, a.Save)
}

// writeFileAtomic replaces path with what write produces, through a
// temporary file in path's directory that is removed on failure.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Load reads a trained advisor written by Save and recomputes the RCS
// embeddings with the restored encoder.
func Load(r io.Reader) (*Advisor, error) {
	var st advisorState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: decoding advisor: %w", err)
	}
	enc, err := gnn.FromState(st.Encoder)
	if err != nil {
		return nil, fmt.Errorf("core: restoring encoder: %w", err)
	}
	a := &Advisor{cfg: st.Cfg, enc: enc}
	for _, s := range st.Samples {
		a.rcs = append(a.rcs, &Sample{Name: s.Name, Graph: s.Graph, Sa: s.Sa, Se: s.Se})
	}
	if len(a.rcs) == 0 {
		return nil, fmt.Errorf("core: loaded advisor has an empty candidate set")
	}
	if err := validateSamples(a.rcs); err != nil {
		return nil, err
	}
	for _, s := range a.rcs {
		if err := checkGraphShape(s.Graph, enc.InDim()); err != nil {
			return nil, fmt.Errorf("core: loaded advisor: sample %s: %w", s.Name, err)
		}
	}
	a.refreshEmbeddings()
	if len(st.ANNIndex) > 0 {
		ix, err := ann.Unmarshal(st.ANNIndex)
		if err != nil {
			return nil, fmt.Errorf("core: decoding ann index: %w", err)
		}
		// Strict re-bind against the recomputed embeddings: a count or
		// dimensionality mismatch means the artifact is internally
		// inconsistent, and a silently rebuilt index would mask it.
		if err := ix.Attach(a.emb); err != nil {
			return nil, fmt.Errorf("core: binding ann index: %w", err)
		}
		a.loadIndex = ix
	}
	a.publishLocked()
	return a, nil
}

// checkGraphShape reports whether g has the shape the encoder reads:
// vertex rows of width inDim and an n×n edge matrix.
func checkGraphShape(g *feature.Graph, inDim int) error {
	n := len(g.V)
	for i, row := range g.V {
		if len(row) != inDim {
			return fmt.Errorf("vertex %d has %d features, want %d", i, len(row), inDim)
		}
	}
	if len(g.E) != n {
		return fmt.Errorf("%d edge rows for %d vertices", len(g.E), n)
	}
	for i, row := range g.E {
		if len(row) != n {
			return fmt.Errorf("edge row %d has %d entries for %d vertices", i, len(row), n)
		}
	}
	return nil
}

// LoadFile reads an advisor from a file path.
func LoadFile(path string) (*Advisor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return Load(f)
}
