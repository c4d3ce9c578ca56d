package envelope

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"
)

var testMagic = [8]byte{'T', 'E', 'S', 'T', 'v', '1', '\n', 0}

// TestLayout pins the wire format byte for byte, against the published
// CRC-32C check value (crc32c("123456789") = 0xE3069283): model artifacts
// and tenant manifests written before this package existed must still
// read, and must be rewritten identically.
func TestLayout(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, [8]byte{'C', 'E', 'A', 'R', 'T', 'v', '2', '\n'}, []byte("123456789")); err != nil {
		t.Fatal(err)
	}
	want := "434541525476320a" + // "CEARTv2\n"
		"0900000000000000" + // le64 size 9
		"839206e3" + // le32 0xE3069283
		hex.EncodeToString([]byte("123456789"))
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("frame\n got %s\nwant %s", got, want)
	}
}

// TestWriteParts pins that a payload written in parts frames exactly like
// the same bytes written whole.
func TestWriteParts(t *testing.T) {
	var whole, parts bytes.Buffer
	if err := Write(&whole, testMagic, []byte("123456789")); err != nil {
		t.Fatal(err)
	}
	if err := Write(&parts, testMagic, []byte("1234"), nil, []byte("56789")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole.Bytes(), parts.Bytes()) {
		t.Fatalf("parts frame\n got %x\nwant %x", parts.Bytes(), whole.Bytes())
	}
}

func TestReadRejects(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, testMagic, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	otherMagic := testMagic
	otherMagic[0] = 'X'
	for _, tc := range []struct {
		name  string
		in    []byte
		magic [8]byte
		max   uint64
	}{
		{"empty", nil, testMagic, 1 << 20},
		{"short header", frame[:headerSize-1], testMagic, 1 << 20},
		{"short payload", frame[:len(frame)-1], testMagic, 1 << 20},
		{"wrong magic", frame, otherMagic, 1 << 20},
		{"size over cap", frame, testMagic, 6},
	} {
		if _, err := Read(bytes.NewReader(tc.in), tc.magic, tc.max); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
	if p, err := Read(bytes.NewReader(frame), testMagic, 7); err != nil || string(p) != "payload" {
		t.Fatalf("size at cap: %q, %v", p, err)
	}
}

// TestReadPassesIOErrors: a failing reader is not a corrupt frame.
func TestReadPassesIOErrors(t *testing.T) {
	boom := errors.New("disk on fire")
	_, err := Read(io.MultiReader(bytes.NewReader(testMagic[:]), errReader{boom}), testMagic, 1<<20)
	if !errors.Is(err, boom) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want the reader's error and not ErrCorrupt", err)
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// FuzzEnvelope: a clean round trip returns the payload unchanged and
// consumes the whole frame; flipping any single byte, or cutting the frame
// short, is rejected — either Read fails, or (when a smaller size field
// still checksums) bytes are left after the frame, which every caller
// holding the whole blob rejects.
func FuzzEnvelope(f *testing.F) {
	f.Add([]byte("123456789"), uint16(0), byte(0x01), uint16(0))
	f.Add([]byte{}, uint16(9), byte(0x80), uint16(3))
	f.Add(bytes.Repeat([]byte{0xA5}, 300), uint16(17), byte(0xFF), uint16(250))
	f.Fuzz(func(t *testing.T, payload []byte, pos uint16, xor byte, cut uint16) {
		var buf bytes.Buffer
		if err := Write(&buf, testMagic, payload); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		maxSize := uint64(len(frame))

		r := bytes.NewReader(frame)
		got, err := Read(r, testMagic, maxSize)
		if err != nil || !bytes.Equal(got, payload) || r.Len() != 0 {
			t.Fatalf("clean round trip: %v (payload equal %v, %d bytes left)", err, bytes.Equal(got, payload), r.Len())
		}

		if xor != 0 {
			bad := append([]byte(nil), frame...)
			bad[int(pos)%len(bad)] ^= xor
			r := bytes.NewReader(bad)
			if _, err := Read(r, testMagic, maxSize); err == nil && r.Len() == 0 {
				t.Fatalf("byte %d xor %02x read back as a clean frame", int(pos)%len(bad), xor)
			}
		}

		short := frame[:int(cut)%len(frame)]
		if _, err := Read(bytes.NewReader(short), testMagic, maxSize); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("frame cut to %d of %d bytes: err = %v, want ErrCorrupt", len(short), len(frame), err)
		}
	})
}
