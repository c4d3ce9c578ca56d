// Package envelope is the integrity frame around every persisted blob —
// model artifacts, the ANN index and the serving tenant manifest:
//
//	magic   [8]byte  format name and version, chosen by the caller
//	size    uint64   little-endian payload length
//	crc     uint32   little-endian CRC-32C (Castagnoli) of the payload
//	payload [size]byte
//
// Payloads are typically gob streams, which carry no integrity protection
// of their own: a truncated or bit-flipped stream can decode into silently
// wrong state. Read verifies the frame before the payload is handed to any
// decoder, and every integrity failure matches ErrCorrupt.
package envelope

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrCorrupt is matched (via errors.Is) by every integrity failure Read
// reports: wrong magic, a declared size over the caller's cap, truncation,
// or a checksum mismatch.
var ErrCorrupt = errors.New("corrupt envelope")

const headerSize = 8 + 8 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Write frames payload under magic and writes it to w. The payload is the
// concatenation of the given parts, so a caller can frame a small header
// and a large body without first copying them into one buffer.
func Write(w io.Writer, magic [8]byte, payload ...[]byte) error {
	var hdr [headerSize]byte
	copy(hdr[:], magic[:])
	var size uint64
	var crc uint32
	for _, p := range payload {
		size += uint64(len(p))
		crc = crc32.Update(crc, castagnoli, p)
	}
	binary.LittleEndian.PutUint64(hdr[8:], size)
	binary.LittleEndian.PutUint32(hdr[16:], crc)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, p := range payload {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// Read reads one frame from r and returns its verified payload. A declared
// size above maxSize is rejected before anything is allocated for it, so a
// corrupted size field cannot turn a load into an out-of-memory kill.
// Read consumes exactly one frame; callers that hold the whole blob reject
// any bytes left after it themselves. Read errors other than truncation
// are returned as they are, not as ErrCorrupt.
func Read(r io.Reader, magic [8]byte, maxSize uint64) ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, readErr("header", err)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q, want %q", ErrCorrupt, hdr[:8], magic[:])
	}
	size := binary.LittleEndian.Uint64(hdr[8:])
	if size > maxSize {
		return nil, fmt.Errorf("%w: declared payload size %d exceeds %d", ErrCorrupt, size, maxSize)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, readErr("payload", err)
	}
	want := binary.LittleEndian.Uint32(hdr[16:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (recorded %08x, computed %08x)", ErrCorrupt, want, got)
	}
	return payload, nil
}

func readErr(part string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: truncated %s", ErrCorrupt, part)
	}
	return fmt.Errorf("envelope: reading %s: %w", part, err)
}
