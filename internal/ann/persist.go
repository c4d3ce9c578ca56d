package ann

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"repro/internal/envelope"
)

// Persistence: the quantizer and posting lists travel as a gob framed by
// the checksummed envelope (internal/envelope), embedded in the advisor
// artifact, so a served fleet never pays the build twice. Vectors are
// NOT serialized — they are derived state (the advisor re-embeds its
// candidate set on load) and the decoded index is re-bound to them with
// Attach, which re-validates shape strictly. Corruption fails loudly on
// two independent layers: any bit flip in the envelope breaks the
// checksum (CRC-32C is linear, so a single corrupted byte can never
// cancel out) or the declared size (leaving bytes over, or too few),
// and a decoded state
// must still satisfy the structural invariants — every id exactly once
// and in range, centroid/list counts equal, finite centroid
// coordinates — before an Index is returned.

// indexMagic versions the envelope; bump on incompatible state changes.
// v2 moved the index onto the shared envelope layout (v1 had no size
// field), so v1 blobs fail the magic check.
var indexMagic = [8]byte{'C', 'E', 'A', 'N', 'N', 'v', '2', '\n'}

// indexState is the gob-serializable mirror of an Index.
type indexState struct {
	Params    Params
	Dim       int
	N         int
	Built     int
	Appended  int
	Centroids [][]float64
	Lists     [][]int32
}

// MarshalBinary encodes the index (without its attached vectors) as one
// envelope frame.
func (ix *Index) MarshalBinary() ([]byte, error) {
	st := indexState{
		Params:    ix.params,
		Dim:       ix.dim,
		N:         ix.n,
		Built:     ix.built,
		Appended:  ix.appended,
		Centroids: ix.centroids,
		Lists:     ix.lists,
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&st); err != nil {
		return nil, fmt.Errorf("ann: encoding index: %w", err)
	}
	var out bytes.Buffer
	if err := envelope.Write(&out, indexMagic, payload.Bytes()); err != nil {
		return nil, fmt.Errorf("ann: encoding index: %w", err)
	}
	return out.Bytes(), nil
}

// Unmarshal decodes an index previously written by MarshalBinary. The
// result is detached: bind it to its vector set with Attach before
// searching. Corrupt input — a broken envelope, bytes after it, or a
// decoded state violating the index invariants — returns an error rather
// than an index that would silently return wrong neighbors.
func Unmarshal(b []byte) (*Index, error) {
	r := bytes.NewReader(b)
	payload, err := envelope.Read(r, indexMagic, uint64(len(b)))
	if err != nil {
		return nil, fmt.Errorf("ann: index: %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("ann: index: %w: %d trailing bytes", envelope.ErrCorrupt, r.Len())
	}
	var st indexState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, fmt.Errorf("ann: decoding index: %w", err)
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	return &Index{
		params:    st.Params,
		dim:       st.Dim,
		n:         st.N,
		built:     st.Built,
		appended:  st.Appended,
		centroids: st.Centroids,
		lists:     st.Lists,
	}, nil
}

// validate re-checks the structural invariants a well-formed index
// upholds by construction.
func (st *indexState) validate() error {
	if st.Dim <= 0 || st.N <= 0 {
		return fmt.Errorf("ann: decoded index has dim %d, n %d", st.Dim, st.N)
	}
	if len(st.Centroids) == 0 || len(st.Centroids) != len(st.Lists) {
		return fmt.Errorf("ann: decoded index has %d centroids for %d lists",
			len(st.Centroids), len(st.Lists))
	}
	if st.Appended < 0 || st.Built < 0 || st.Built+st.Appended != st.N {
		return fmt.Errorf("ann: decoded index counts built %d + appended %d != n %d",
			st.Built, st.Appended, st.N)
	}
	if st.Params.Nprobe <= 0 || st.Params.Nlist <= 0 ||
		st.Params.RebuildFraction <= 0 || st.Params.SplitIters <= 0 {
		return fmt.Errorf("ann: decoded index has unresolved params %+v", st.Params)
	}
	for c, cen := range st.Centroids {
		if len(cen) != st.Dim {
			return fmt.Errorf("ann: centroid %d has dim %d, want %d", c, len(cen), st.Dim)
		}
		for _, v := range cen {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ann: centroid %d has a non-finite coordinate", c)
			}
		}
	}
	seen := make([]bool, st.N)
	total := 0
	for c, l := range st.Lists {
		for _, id := range l {
			if id < 0 || int(id) >= st.N {
				return fmt.Errorf("ann: list %d holds out-of-range id %d (n %d)", c, id, st.N)
			}
			if seen[id] {
				return fmt.Errorf("ann: id %d appears in more than one list", id)
			}
			seen[id] = true
			total++
		}
	}
	if total != st.N {
		return fmt.Errorf("ann: lists cover %d of %d ids", total, st.N)
	}
	return nil
}
