package ce

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"repro/internal/envelope"
	"repro/internal/resilience"
)

// Persistable is a model that can round-trip through gob. Every registered
// estimator implements it; the contract (enforced by the registry
// conformance tests) is that a decoded model produces bit-identical
// estimates to the encoded one.
type Persistable interface {
	Model
	gob.GobEncoder
	gob.GobDecoder
}

// artifact is the on-wire form of a saved model: the registry name that
// selects the constructor on load, an opaque schema fingerprint of the
// dataset the model was trained on (callers compare it before serving a
// reloaded model against a possibly changed dataset), and the model's own
// gob encoding.
type artifact struct {
	Name   string
	Schema string
	Blob   []byte
}

// ErrCorruptArtifact is the sentinel matched (via errors.Is) by every
// integrity failure a model artifact can exhibit: missing or wrong magic,
// truncation, or a checksum mismatch from bit rot. Callers distinguish it
// from transient I/O errors to quarantine the file instead of retrying.
var ErrCorruptArtifact = errors.New("ce: corrupt model artifact")

// Every artifact is framed by the checksummed envelope (internal/envelope)
// under this magic, and LoadModelSchema verifies the frame before any gob
// decoding happens: wrong magic, short payload, or CRC mismatch all
// surface as ErrCorruptArtifact without touching the decoder.
var artifactMagic = [8]byte{'C', 'E', 'A', 'R', 'T', 'v', '2', '\n'}

// SaveModel writes a trained model to w as a self-describing artifact with
// no schema fingerprint; see SaveModelSchema.
func SaveModel(w io.Writer, m Model) error { return SaveModelSchema(w, m, "") }

// SaveModelSchema writes a trained model to w as a self-describing,
// checksummed artifact carrying an opaque schema fingerprint. The model
// must be registered (its Name selects the decoder) and Persistable.
func SaveModelSchema(w io.Writer, m Model, schema string) error {
	p, ok := m.(Persistable)
	if !ok {
		return fmt.Errorf("ce: model %s does not implement Persistable", m.Name())
	}
	if _, ok := Lookup(m.Name()); !ok {
		return fmt.Errorf("ce: model %s is not registered; artifacts need a registry constructor", m.Name())
	}
	blob, err := p.GobEncode()
	if err != nil {
		return fmt.Errorf("ce: encoding %s: %w", m.Name(), err)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&artifact{Name: m.Name(), Schema: schema, Blob: blob}); err != nil {
		return fmt.Errorf("ce: writing %s artifact: %w", m.Name(), err)
	}
	if err := envelope.Write(w, artifactMagic, payload.Bytes()); err != nil {
		return fmt.Errorf("ce: writing %s artifact: %w", m.Name(), err)
	}
	return nil
}

// CheckGobCounts decodes a model's gob state data once into shadow, a
// struct naming one cheap field of that state, ahead of the real decode.
// gob skips every field the shadow lacks without allocating for it, so a
// map whose entry count outruns the remaining bytes fails here. The real
// decode pre-sizes each map from that count (encoding/gob's decodeMap),
// so a corrupt count would otherwise allocate gigabytes before any check
// of the decoded state could run.
func CheckGobCounts(data []byte, shadow any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(shadow); err != nil {
		return fmt.Errorf("ce: model state does not decode: %w", err)
	}
	return nil
}

// LoadModel reads an artifact written by SaveModel, constructing the model
// through the registry and restoring its state.
func LoadModel(r io.Reader) (Model, error) {
	m, _, err := LoadModelSchema(r)
	return m, err
}

// maxArtifactPayload rejects envelopes whose declared size is absurd
// before allocating for them — a corrupted size field must not turn a
// reload into an OOM.
const maxArtifactPayload = 1 << 30

// readArtifact verifies the checksummed envelope and decodes the artifact
// wrapper (name, schema, model blob) without touching the model's own gob
// state — the cheap half of a load, shared by LoadModelSchema and
// LoadModelInfo.
func readArtifact(r io.Reader) (*artifact, error) {
	payload, err := envelope.Read(r, artifactMagic, maxArtifactPayload)
	if errors.Is(err, envelope.ErrCorrupt) {
		return nil, fmt.Errorf("%w: %w", ErrCorruptArtifact, err)
	}
	if err != nil {
		return nil, fmt.Errorf("ce: reading artifact: %w", err)
	}
	var a artifact
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&a); err != nil {
		// The checksum held, so the bytes are as written; a gob failure here
		// is a format mismatch, not bit rot — still unusable, still corrupt
		// from the caller's point of view.
		return nil, fmt.Errorf("%w: undecodable payload: %v", ErrCorruptArtifact, err)
	}
	return &a, nil
}

// LoadModelInfo reads only the artifact wrapper — registry name, schema
// fingerprint, and the encoded model's blob size — verifying the envelope
// but skipping the model's own (potentially expensive) gob decode. It is
// the probe a paging model cache uses to register an artifact as
// cold-loadable without actually loading it.
func LoadModelInfo(r io.Reader) (name, schema string, blobBytes int64, err error) {
	a, err := readArtifact(r)
	if err != nil {
		return "", "", 0, err
	}
	return a.Name, a.Schema, int64(len(a.Blob)), nil
}

// LoadModelSchema is LoadModel returning the artifact's recorded schema
// fingerprint as well. Integrity failures — wrong magic, truncation, bit
// flips — return an error matching ErrCorruptArtifact, always before the
// gob decoder sees the payload.
func LoadModelSchema(r io.Reader) (Model, string, error) {
	a, err := readArtifact(r)
	if err != nil {
		return nil, "", err
	}
	spec, ok := Lookup(a.Name)
	if !ok {
		return nil, "", fmt.Errorf("ce: artifact names unregistered model %q", a.Name)
	}
	m := spec.New(Config{})
	p, ok := m.(Persistable)
	if !ok {
		return nil, "", fmt.Errorf("ce: registered model %s does not implement Persistable", a.Name)
	}
	if err := p.GobDecode(a.Blob); err != nil {
		return nil, "", fmt.Errorf("ce: decoding %s: %w", a.Name, err)
	}
	return m, a.Schema, nil
}

// Store is a directory of trained-model artifacts keyed by (dataset,
// model). It is the persistence half of the serve lifecycle: /train writes
// an artifact per (dataset, model), and a restarted server reloads them.
// Methods are safe for concurrent use to the extent the filesystem is;
// writes go through a temp file + rename so readers never observe a
// partial artifact, and reads verify the checksummed envelope — an
// artifact truncated or bit-flipped on disk is quarantined (renamed to
// .corrupt) rather than served, so one rotten file cannot take down a
// fleet reload.
type Store struct {
	dir string

	// Load/save accounting, exposed via Stats: a paging model cache sits on
	// top of the store, and its ops surface (saves, cold loads) needs
	// to see how much artifact I/O the paging policy is actually causing.
	saves      atomic.Int64
	saveBytes  atomic.Int64
	loads      atomic.Int64
	loadBytes  atomic.Int64
	loadErrors atomic.Int64
	corrupt    atomic.Int64
}

// StoreStats is a snapshot of a Store's I/O counters since construction.
type StoreStats struct {
	Saves      int64 // successful artifact writes
	SaveBytes  int64 // bytes durably renamed into place
	Loads      int64 // successful artifact reads (cold loads included)
	LoadBytes  int64 // bytes read by successful loads
	LoadErrors int64 // failed loads, corrupt or otherwise
	Corrupt    int64 // loads that quarantined a corrupt artifact
}

// Stats returns the store's cumulative I/O counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Saves:      s.saves.Load(),
		SaveBytes:  s.saveBytes.Load(),
		Loads:      s.loads.Load(),
		LoadBytes:  s.loadBytes.Load(),
		LoadErrors: s.loadErrors.Load(),
		Corrupt:    s.corrupt.Load(),
	}
}

// NewStore opens (creating if needed) an artifact directory.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ce: opening model store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

const artifactExt = ".cemodel"

// corruptExt is appended to an artifact path when Load detects an
// integrity failure; quarantined files are skipped by List (and therefore
// by startup reloads) but kept on disk for forensics.
const corruptExt = ".corrupt"

// EscapeName maps a dataset or model name to the single path element it
// is filed under, both here and in the serving tenant manifest:
// url.PathEscape, which escapes "/" (so no name can traverse) and "#",
// plus the two names PathEscape leaves alone that would still escape the
// directory, "." and "..", whose dots are percent-encoded.
// url.PathUnescape inverts it for every name.
func EscapeName(name string) string {
	if name == "." || name == ".." {
		return strings.ReplaceAll(name, ".", "%2E")
	}
	return url.PathEscape(name)
}

// Artifacts live one directory level deep — <dir>/<dataset>/<model>.cemodel
// with both components escaped by EscapeName. The directory boundary
// keeps dataset and model names unambiguous (a flat "ds__model" scheme
// would mis-split any dataset name containing the separator).
func (s *Store) datasetDir(datasetName string) string {
	return filepath.Join(s.dir, EscapeName(datasetName))
}

func (s *Store) path(datasetName, modelName string) string {
	return filepath.Join(s.datasetDir(datasetName), EscapeName(modelName)+artifactExt)
}

// Save persists m as the trained model of datasetName, recording schema
// (an opaque dataset fingerprint; may be empty) in the artifact, and
// returns the artifact path. Failpoint "ce.store.save" injects a write
// failure before any bytes land.
func (s *Store) Save(datasetName, schema string, m Model) (string, error) {
	if err := resilience.Failpoint("ce.store.save"); err != nil {
		return "", fmt.Errorf("ce: store save: %w", err)
	}
	dir := s.datasetDir(datasetName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("ce: store save: %w", err)
	}
	dst := s.path(datasetName, m.Name())
	tmp, err := os.CreateTemp(dir, "tmp-*"+artifactExt)
	if err != nil {
		return "", fmt.Errorf("ce: store save: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := SaveModelSchema(tmp, m, schema); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("ce: store save: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return "", fmt.Errorf("ce: store save: %w", err)
	}
	s.saves.Add(1)
	if fi, err := os.Stat(dst); err == nil {
		s.saveBytes.Add(fi.Size())
	}
	return dst, nil
}

// Info probes the artifact saved for (datasetName, modelName) without
// decoding the model: it verifies the envelope and returns the schema
// fingerprint recorded at save time plus the artifact's size on disk. A
// model cache uses it to register an artifact as cold-loadable (and to
// cost it against a memory budget) while deferring the expensive decode
// to the first estimate that needs the model.
func (s *Store) Info(datasetName, modelName string) (schema string, size int64, err error) {
	path := s.path(datasetName, modelName)
	fi, err := os.Stat(path)
	if err != nil {
		return "", 0, fmt.Errorf("ce: store info: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return "", 0, fmt.Errorf("ce: store info: %w", err)
	}
	defer f.Close()
	_, schema, _, err = LoadModelInfo(f)
	if err != nil {
		return "", 0, fmt.Errorf("ce: store info: %w", err)
	}
	return schema, fi.Size(), nil
}

// Load reads the artifact saved for (datasetName, modelName), returning
// the model and the schema fingerprint recorded at save time. A corrupt
// artifact (error matching ErrCorruptArtifact) is quarantined: the file is
// renamed to <path>.corrupt so subsequent List/reload passes skip it,
// while the typed error still reaches the caller. Failpoint
// "ce.store.load" injects a read failure.
func (s *Store) Load(datasetName, modelName string) (Model, string, error) {
	if err := resilience.Failpoint("ce.store.load"); err != nil {
		s.loadErrors.Add(1)
		return nil, "", fmt.Errorf("ce: store load: %w", err)
	}
	path := s.path(datasetName, modelName)
	f, err := os.Open(path)
	if err != nil {
		s.loadErrors.Add(1)
		return nil, "", fmt.Errorf("ce: store load: %w", err)
	}
	m, schema, err := LoadModelSchema(f)
	f.Close()
	if errors.Is(err, ErrCorruptArtifact) {
		s.loadErrors.Add(1)
		s.corrupt.Add(1)
		// Quarantine best-effort: losing the rename race (or a read-only
		// filesystem) must not mask the corruption error itself.
		if renameErr := os.Rename(path, path+corruptExt); renameErr == nil {
			return nil, "", fmt.Errorf("ce: store load: quarantined %s: %w", path+corruptExt, err)
		}
		return nil, "", fmt.Errorf("ce: store load: %w", err)
	}
	if err != nil {
		s.loadErrors.Add(1)
		return nil, "", fmt.Errorf("ce: store load: %w", err)
	}
	s.loads.Add(1)
	if fi, statErr := os.Stat(path); statErr == nil {
		s.loadBytes.Add(fi.Size())
	}
	return m, schema, nil
}

// Entry identifies one stored artifact.
type Entry struct {
	Dataset, Model string
	Path           string
	Size           int64 // artifact bytes on disk (0 if stat raced a removal)
}

// List enumerates the store's artifacts. Quarantined (.corrupt) files and
// in-flight temp files are skipped, so a startup reload only sees
// artifacts that were durably renamed into place and not since condemned.
func (s *Store) List() ([]Entry, error) {
	dirs, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ce: store list: %w", err)
	}
	var out []Entry
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		ds, err := url.PathUnescape(d.Name())
		if err != nil {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, d.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if f.IsDir() || !strings.HasSuffix(name, artifactExt) || strings.HasPrefix(name, "tmp-") {
				continue
			}
			mn, err := url.PathUnescape(strings.TrimSuffix(name, artifactExt))
			if err != nil {
				continue
			}
			var size int64
			if fi, err := f.Info(); err == nil {
				size = fi.Size()
			}
			out = append(out, Entry{Dataset: ds, Model: mn,
				Path: filepath.Join(s.dir, d.Name(), name), Size: size})
		}
	}
	return out, nil
}
