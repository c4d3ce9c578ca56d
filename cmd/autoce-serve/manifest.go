package main

// The tenant manifest: restart recovery for onboarded datasets, and the
// copy of a trained tenant's rows. Each shard records every dataset
// payload it accepts (its own primaries and the replication fan-ins it
// backs) next to the model artifacts. A restarted shard replays the
// records through the normal onboarding path before serving,
// re-registering each tenant's stored artifacts as cold-loadable stubs —
// so a crashed shard rejoins the fleet serving estimates with zero client
// action. A tenant whose rows were released once its first /train
// published reads them back from its record on its next /train.
//
// The manifest is a directory holding one record per tenant, in a file
// named ce.EscapeName(dataset name) — ce.Store's escaping, so no name,
// "." and ".." included, can leave the directory. A record is one
// internal/envelope frame under magic CETENv2 whose payload is the
// dataset name (le32 length, then the bytes) followed by the /datasets
// request body exactly as the client sent it; replay decodes that body
// with the live path's strict decoder.
// Onboarding writes only its own tenant's record: tempfile, fsync, rename
// over the old record, fsync of the directory. A re-onboarding therefore
// costs one tenant's payload, not the fleet's.
//
// Durability: a record that put reported as written survives power
// loss. ce.Store artifacts are written tempfile+rename without fsync, so
// they are process-crash-safe only; a torn artifact fails its envelope
// check and Store.Info skips it at onboarding, so the tenant recovers
// without that model rather than with a wrong one.
//
// The manifest keeps no payload in memory except records whose write
// failed; the next successful put retries them. The directory is read by
// load, once at startup, and by read, one record per /train of a tenant
// that holds no rows. Only load quarantines: a corrupt record is renamed
// with the "#.corrupt" suffix on its own and every other tenant still
// recovers; read reports a missing or corrupt record as an error.
// EscapeName always escapes '#', so temp files and quarantined records,
// which both carry one, never collide with a tenant's record.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/ce"
	"repro/internal/envelope"
	"repro/internal/resilience"
)

// tenantRecordMagic begins every record: format name plus version, so a
// layout change is detected by prefix, not by decode failure.
var tenantRecordMagic = [8]byte{'C', 'E', 'T', 'E', 'N', 'v', '2', '\n'}

// recordTmpPattern and quarantineExt name the manifest directory's
// non-record files; both contain '#', which no record name does.
const (
	recordTmpPattern = "#tmp-*"
	quarantineExt    = "#.corrupt"
)

// tenantManifest is the on-disk record of onboarded dataset payloads,
// one file per dataset name.
type tenantManifest struct {
	dir string

	mu sync.Mutex
	// pending holds the payloads whose last write failed, by name.
	pending map[string][]byte
}

// newTenantManifest opens (or initializes) the manifest directory at
// path. A file found at path holds no records: it is quarantined to
// path+".corrupt" and the manifest starts empty; the error reports that,
// but the manifest is usable either way.
func newTenantManifest(path string) (*tenantManifest, error) {
	m := &tenantManifest{dir: path, pending: map[string][]byte{}}
	var err error
	if fi, serr := os.Stat(path); serr == nil && !fi.IsDir() {
		quarantine := path + ".corrupt"
		if rerr := os.Rename(path, quarantine); rerr == nil {
			err = fmt.Errorf("tenant manifest %s is a file, not a record directory; quarantined to %s, starting empty", path, quarantine)
		} else {
			err = fmt.Errorf("tenant manifest %s is a file, not a record directory (%v); starting empty", path, rerr)
		}
	}
	if mkErr := os.MkdirAll(path, 0o755); mkErr != nil {
		err = errors.Join(err, fmt.Errorf("creating tenant manifest %s: %w", path, mkErr))
	}
	return m, err
}

// put records (or replaces) one dataset's onboarding payload. On failure
// a copy of the payload is kept as pending — the running process serves
// the tenant either way; only restart durability degrades — and the next
// successful put writes it too. The caller may reuse payload once put
// returns.
func (m *tenantManifest) put(name string, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.save(name, payload); err != nil {
		m.pending[name] = bytes.Clone(payload)
		return err
	}
	delete(m.pending, name)
	for n, p := range m.pending {
		if m.save(n, p) == nil {
			delete(m.pending, n)
		}
	}
	return nil
}

// save writes one record. Failpoint "serve.manifest.save" injects write
// faults here (the chaos harness verifies a failed manifest write
// degrades durability, not serving).
func (m *tenantManifest) save(name string, payload []byte) error {
	if err := resilience.Failpoint("serve.manifest.save"); err != nil {
		return err
	}
	return writeTenantRecord(m.dir, name, payload)
}

// load calls fn with every record in the manifest, in file-name order. A
// record that fails its integrity check, or whose name does not match
// its file name, is quarantined on its own and reported in the returned
// error; the other records still load.
func (m *tenantManifest) load(fn func(name string, payload []byte)) error {
	files, err := os.ReadDir(m.dir)
	if err != nil {
		return fmt.Errorf("reading tenant manifest %s: %w", m.dir, err)
	}
	var errs []error
	for _, f := range files {
		file := f.Name()
		if !f.Type().IsRegular() || strings.Contains(file, "#") {
			continue
		}
		path := filepath.Join(m.dir, file)
		raw, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		name, payload, err := decodeTenantRecord(raw)
		if err == nil && ce.EscapeName(name) != file {
			err = fmt.Errorf("%w: record for %q stored as %q", envelope.ErrCorrupt, name, file)
		}
		if err != nil {
			quarantine := path + quarantineExt
			if rerr := os.Rename(path, quarantine); rerr == nil {
				err = fmt.Errorf("tenant record %s is corrupt (%v); quarantined to %s", path, err, quarantine)
			} else {
				err = fmt.Errorf("tenant record %s is corrupt (%v); skipped", path, err)
			}
			errs = append(errs, err)
			continue
		}
		fn(name, payload)
	}
	return errors.Join(errs...)
}

// read returns name's recorded payload, for a /train whose tenant holds
// no rows. A missing record, or one that fails its integrity check or
// names another tenant, is an error; read quarantines nothing, since
// only load, at startup, decides what the manifest holds.
func (m *tenantManifest) read(name string) ([]byte, error) {
	raw, err := os.ReadFile(filepath.Join(m.dir, ce.EscapeName(name)))
	if err != nil {
		return nil, err
	}
	got, payload, err := decodeTenantRecord(raw)
	if err == nil && got != name {
		err = fmt.Errorf("%w: the record of %q names %q", envelope.ErrCorrupt, name, got)
	}
	return payload, err
}

// recordSum identifies one payload by its length and CRC-32C; a record
// read back is checked against the sum taken when it was accepted.
type recordSum struct {
	size int
	crc  uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func sumOf(payload []byte) recordSum {
	return recordSum{len(payload), crc32.Checksum(payload, castagnoli)}
}

// writeTenantRecord atomically replaces name's record in dir: tempfile,
// fsync, rename, then fsync of dir so the rename itself is durable.
func writeTenantRecord(dir, name string, payload []byte) error {
	tmp, err := os.CreateTemp(dir, recordTmpPattern)
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	err = encodeTenantRecord(tmp, name, payload)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, ce.EscapeName(name)))
	}
	if err == nil {
		err = syncDir(dir)
	}
	return err
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// encodeTenantRecord writes one record frame. The payload is framed in
// place, not copied behind the name.
func encodeTenantRecord(w io.Writer, name string, payload []byte) error {
	head := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+len(name)), uint32(len(name)))
	head = append(head, name...)
	return envelope.Write(w, tenantRecordMagic, head, payload)
}

// decodeTenantRecord verifies one record — the whole file, with no bytes
// after the frame — and splits it into name and payload. Every failure
// matches envelope.ErrCorrupt.
func decodeTenantRecord(raw []byte) (name string, payload []byte, err error) {
	r := bytes.NewReader(raw)
	body, err := envelope.Read(r, tenantRecordMagic, uint64(len(raw)))
	if err != nil {
		return "", nil, err
	}
	if r.Len() != 0 {
		return "", nil, fmt.Errorf("%w: %d trailing bytes", envelope.ErrCorrupt, r.Len())
	}
	if len(body) < 4 {
		return "", nil, fmt.Errorf("%w: record of %d bytes has no name header", envelope.ErrCorrupt, len(body))
	}
	n := binary.LittleEndian.Uint32(body)
	if uint64(n) > uint64(len(body)-4) {
		return "", nil, fmt.Errorf("%w: name length %d exceeds the %d-byte record", envelope.ErrCorrupt, n, len(body)-4)
	}
	return string(body[4 : 4+n]), body[4+n:], nil
}
