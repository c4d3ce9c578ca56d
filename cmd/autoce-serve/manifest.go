package main

// The tenant manifest: restart recovery for onboarded datasets. Each
// shard records every dataset payload it accepts (its own primaries and
// the replication fan-ins it backs) in one small CRC-enveloped file next
// to the model artifacts. A restarted shard replays the manifest through
// the normal onboarding path before serving, re-registering each
// tenant's stored artifacts as cold-loadable stubs — so a crashed shard
// rejoins the fleet serving estimates with zero client action.
//
// The file is one internal/envelope frame (magic, little-endian payload
// size, CRC-32C, payload), like ce.Store's artifacts, with the same
// crash-safety discipline: written to a tempfile in the same directory
// and renamed over the old manifest, so a crash mid-write leaves the
// previous generation intact.
// A corrupt manifest is quarantined to .corrupt and the shard starts
// empty — degraded (tenants must re-onboard) but never wrong.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/envelope"
	"repro/internal/resilience"
)

// manifestMagic begins every manifest file: format name plus version, so
// a future layout change is detected by prefix, not by decode failure.
var manifestMagic = [8]byte{'C', 'E', 'T', 'E', 'N', 'v', '1', '\n'}

// tenantManifest is the on-disk record of onboarded dataset payloads,
// keyed by dataset name. Values are the canonical JSON of the
// datasetRequest, replayable through the onboarding path verbatim.
type tenantManifest struct {
	path string

	mu      sync.Mutex
	entries map[string][]byte
}

// newTenantManifest opens (or initializes) the manifest at path, loading
// any existing entries. A corrupt file is quarantined to path+".corrupt"
// and an empty manifest takes over; the error reports the quarantine but
// the manifest is usable either way.
func newTenantManifest(path string) (*tenantManifest, error) {
	m := &tenantManifest{path: path, entries: map[string][]byte{}}
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return m, nil
	}
	if err != nil {
		return m, fmt.Errorf("reading tenant manifest %s: %w", path, err)
	}
	entries, err := decodeManifest(raw)
	if err != nil {
		quarantine := path + ".corrupt"
		if rerr := os.Rename(path, quarantine); rerr == nil {
			return m, fmt.Errorf("tenant manifest %s is corrupt (%v); quarantined to %s, starting empty", path, err, quarantine)
		}
		return m, fmt.Errorf("tenant manifest %s is corrupt (%v); starting empty", path, err)
	}
	m.entries = entries
	return m, nil
}

// snapshot returns a copy of the current entries for replay.
func (m *tenantManifest) snapshot() map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]byte, len(m.entries))
	for k, v := range m.entries {
		out[k] = v
	}
	return out
}

// put records (or replaces) one dataset's onboarding payload and persists
// the manifest. On failure the in-memory entry is kept — the running
// process serves the tenant either way; only restart durability degrades,
// and the next successful put rewrites everything.
func (m *tenantManifest) put(name string, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries[name] = payload
	return m.saveLocked()
}

// saveLocked writes the envelope via tempfile+rename. Failpoint
// "serve.manifest.save" injects write faults here (the chaos harness
// verifies a failed manifest write degrades durability, not serving).
func (m *tenantManifest) saveLocked() error {
	if err := resilience.Failpoint("serve.manifest.save"); err != nil {
		return err
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(m.entries); err != nil {
		return fmt.Errorf("encoding tenant manifest: %w", err)
	}
	var buf bytes.Buffer
	if err := envelope.Write(&buf, manifestMagic, payload.Bytes()); err != nil {
		return err
	}

	dir := filepath.Dir(m.path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "tmp-manifest-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), m.path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// decodeManifest verifies the envelope — the whole file, with no bytes
// after the frame — and decodes the entry map. The payload cannot be
// larger than the file, so the file's length caps the declared size.
func decodeManifest(raw []byte) (map[string][]byte, error) {
	r := bytes.NewReader(raw)
	payload, err := envelope.Read(r, manifestMagic, uint64(len(raw)))
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", envelope.ErrCorrupt, r.Len())
	}
	var entries map[string][]byte
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&entries); err != nil {
		return nil, fmt.Errorf("decoding entries: %w", err)
	}
	if entries == nil {
		entries = map[string][]byte{}
	}
	return entries, nil
}
