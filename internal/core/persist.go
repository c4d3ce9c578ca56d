package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
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
// embeddings with the restored encoder. It checks the configuration, then
// the encoder and the candidate samples, before it builds anything from
// them, so a malformed artifact returns an error rather than a panic.
func Load(r io.Reader) (*Advisor, error) {
	var st advisorState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: decoding advisor: %w", err)
	}
	if err := checkConfig(&st.Cfg); err != nil {
		return nil, fmt.Errorf("core: loaded advisor: %w", err)
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

// checkConfig reports whether the training and serving settings of cfg
// are in range: at least one neighbor, finite Tau, Gamma and LR, a
// TauQuantile and every WeightGrid entry in [0, 1], and no negative
// Epochs or Batch.
func checkConfig(cfg *Config) error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	unit := func(x float64) bool { return x >= 0 && x <= 1 }
	switch {
	case cfg.K < 1:
		return fmt.Errorf("K %d is below 1", cfg.K)
	case !finite(cfg.Tau) || !finite(cfg.Gamma) || !finite(cfg.LR):
		return fmt.Errorf("Tau %g, Gamma %g and LR %g must be finite", cfg.Tau, cfg.Gamma, cfg.LR)
	case !unit(cfg.TauQuantile):
		return fmt.Errorf("TauQuantile %g outside [0, 1]", cfg.TauQuantile)
	case cfg.Epochs < 0 || cfg.Batch < 0:
		return fmt.Errorf("Epochs %d and Batch %d must not be negative", cfg.Epochs, cfg.Batch)
	}
	for i, w := range cfg.WeightGrid {
		if !unit(w) {
			return fmt.Errorf("WeightGrid[%d] %g outside [0, 1]", i, w)
		}
	}
	return nil
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
