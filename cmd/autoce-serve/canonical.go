package main

// The canonical-body scanner: a reflection-free decoder for the two hot
// request shapes, /datasets (datasetRequest, whose integer column arrays
// carry every onboarded value) and /estimate (estimateRequest). It
// accepts only the canonical form of those bodies and declines
// everything else, which then decodes through encoding/json exactly as
// before; that decoder owns every status code and error text.
//
// Canonical means:
//   - keys spelled exactly as the struct tags, each at most once;
//   - strings of printable ASCII without escapes;
//   - integers without leading zeros, fraction or exponent, in range
//     of the field's type;
//   - no null, except for a slice field, which it leaves nil just as
//     encoding/json does on a fresh destination (clients that encode a
//     nil slice send "fks":null, for one);
//   - nothing but whitespace after the value.
//
// On such input encoding/json with DisallowUnknownFields yields the same
// value, nil-versus-empty slices included; the differential fuzzers in
// fuzz_test.go hold the two to that.
//
// Integer arrays carry nearly every byte of a /datasets body, so their
// elements have a fast path in numbers: a comma that comes next is taken
// without a whitespace skip, and a run of 1 to 7 digits not starting
// with 0 is found (shortRun) and folded (foldRun) eight bytes at a time,
// from one little-endian load. Any other element (a sign, whitespace,
// 8 or more digits, a leading zero, fewer than 8 bytes left in the body)
// goes through int64, so the fast path changes neither which bodies are
// accepted nor what they decode to.

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
)

// The accepted keys of each object, in the order of its struct fields.
// TestCanonicalKeysMatchTags checks them against the json tags.
var (
	datasetKeys  = []string{"name", "tables", "fks"}
	tableKeys    = []string{"name", "pk", "cols"}
	columnKeys   = []string{"name", "data"}
	fkKeys       = []string{"from_table", "from_col", "to_table", "to_col"}
	estimateKeys = []string{"dataset", "model", "query", "queries"}
	queryKeys    = []string{"tables", "joins", "preds"}
	joinKeys     = []string{"left_table", "left_col", "right_table", "right_col"}
	predKeys     = []string{"table", "col", "lo", "hi"}
)

// scanCanonical decodes body into dst, a *datasetRequest or an
// *estimateRequest, when body is canonical, and reports whether it did.
// On false dst is untouched.
func scanCanonical(body []byte, dst any) bool {
	s := &scanner{buf: body}
	switch dst := dst.(type) {
	case *datasetRequest:
		var req datasetRequest
		if s.datasetRequest(&req) && s.end() {
			*dst = req
			return true
		}
	case *estimateRequest:
		var req estimateRequest
		if s.estimateRequest(&req) && s.end() {
			*dst = req
			return true
		}
	}
	return false
}

// scanner walks a body; every method reports false to decline.
type scanner struct {
	buf []byte
	pos int
	// An /estimate body's queries take their table, join and predicate
	// lists from these request-wide backing arrays, so a batch of small
	// lists costs a few allocations rather than a few per query.
	tables []int
	joins  []joinPayload
	preds  []predPayload
}

func (s *scanner) space() {
	b, i := s.buf, s.pos
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	s.pos = i
}

// consume skips whitespace, then c if it comes next.
func (s *scanner) consume(c byte) bool {
	s.space()
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// null consumes a null literal if one comes next.
func (s *scanner) null() bool {
	s.space()
	if bytes.HasPrefix(s.buf[s.pos:], []byte("null")) {
		s.pos += len("null")
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.space()
	return s.pos == len(s.buf)
}

// rawString scans a string of printable ASCII without escapes and
// returns its contents, aliasing the body.
func (s *scanner) rawString() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	for start := s.pos; s.pos < len(s.buf); s.pos++ {
		switch c := s.buf[s.pos]; {
		case c == '"':
			s.pos++
			return s.buf[start : s.pos-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (s *scanner) str(dst *string) bool {
	b, ok := s.rawString()
	if ok {
		*dst = string(b)
	}
	return ok
}

// int64 scans an integer: an optional minus, then 0 or a digit string
// not starting with 0, in int64 range. A fraction or exponent is left
// unread, so the caller's next expected byte declines it.
func (s *scanner) int64() (int64, bool) {
	s.space()
	b, i := s.buf, s.pos
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		u = u*10 + uint64(d)
	}
	// 19 digits cannot overflow u; the range check below does the rest.
	n := i - start
	if n == 0 || n > 19 || (n > 1 && b[start] == '0') {
		return 0, false
	}
	s.pos = i
	switch {
	case neg && u <= 1<<63:
		return int64(-u), true
	case !neg && u < 1<<63:
		return int64(u), true
	}
	return 0, false
}

// shortRun returns the length of the digit run at the start of w (its
// lowest byte) if the run is 1 to 7 digits not starting with 0, or a
// lone 0, and 0 otherwise. Such a run is in range of every integer
// field.
func shortRun(w uint64) int {
	// The high bit of each byte below 0x30 or above 0x39. A digit
	// borrows and carries nothing, so the bytes up to the first
	// non-digit are exact.
	stop := ((w - 0x3030303030303030) | (w + 0x4646464646464646)) & 0x8080808080808080
	n := bits.TrailingZeros64(stop) / 8
	if n == 8 || (byte(w) == '0' && n > 1) {
		return 0
	}
	return n
}

// foldRun returns the value of the n-digit run at the start of w: it
// moves the digits to the top of w, so the bytes below are leading
// zeros, then folds digit pairs, pairs of pairs and the two halves.
func foldRun(w uint64, n int) int64 {
	w = w << uint(64-8*n) & 0x0F0F0F0F0F0F0F0F
	w = w * (10<<8 + 1) >> 8 & 0x00FF00FF00FF00FF
	w = w * (100<<16 + 1) >> 16 & 0x0000FFFF0000FFFF
	return int64(w * (10000<<32 + 1) >> 32)
}

// number scans an integer into an int or int64 field.
func number[T int | int64](s *scanner, dst *T) bool {
	v, ok := s.int64()
	if !ok || int64(T(v)) != v {
		return false
	}
	*dst = T(v)
	return true
}

// numbers scans an integer array, or null. The slice is allocated at
// exactly the array's length, one more than the commas before its
// closing bracket, since dataset.NewColumn keeps the slice it is given;
// with a non-nil slab it is carved from *slab instead (carve).
// n integers take at least 2n-1 bytes (a digit each, commas between);
// a shorter span declines before anything is allocated, so the scanner
// allocates at most four bytes per body byte, as a valid integer array
// of that length costs encoding/json too, and a malformed one such as a
// run of commas allocates nothing.
func numbers[T int | int64](s *scanner, slab *[]T, dst *[]T) bool {
	if s.null() {
		return true
	}
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		*dst = []T{}
		return true
	}
	span := bytes.IndexByte(s.buf[s.pos:], ']')
	if span < 0 {
		return false
	}
	n := bytes.Count(s.buf[s.pos:s.pos+span], []byte{','}) + 1
	if span < 2*n-1 {
		return false
	}
	var out []T
	if slab == nil {
		out = make([]T, n)
	} else {
		out = carve(slab, n)
	}
	// The position stays in pos while elements take the fast path and
	// moves through s.pos only around the whitespace skip and int64.
	b, pos := s.buf, s.pos
	for i := range out {
		if i > 0 {
			if pos < len(b) && b[pos] == ',' {
				pos++
			} else if s.pos = pos; s.consume(',') {
				pos = s.pos
			} else {
				return false
			}
		}
		// A minus sign can never start a short run, so a negative value
		// goes straight to int64 without the probe.
		if len(b)-pos >= 8 && b[pos] != '-' {
			w := binary.LittleEndian.Uint64(b[pos:])
			if r := shortRun(w); r > 0 {
				out[i] = T(foldRun(w, r))
				pos += r
				continue
			}
		}
		s.pos = pos
		if !number(s, &out[i]) {
			return false
		}
		pos = s.pos
	}
	s.pos = pos
	if !s.consume(']') {
		return false
	}
	*dst = out
	return true
}

// array scans an array, decoding each element with elem, or null. An
// empty array yields an empty, non-nil slice, as it does in
// encoding/json.
func array[T any](s *scanner, dst *[]T, elem func(*scanner, *T) bool) bool {
	var own []T
	return arrayIn(s, &own, dst, elem)
}

// arrayIn is array with the elements appended to *slab; the result is
// the slab's tail they occupy, its capacity capped at its length.
func arrayIn[T any](s *scanner, slab *[]T, dst *[]T, elem func(*scanner, *T) bool) bool {
	if s.null() {
		return true
	}
	if !s.consume('[') {
		return false
	}
	start := len(*slab)
	if !s.consume(']') {
		for {
			var zero T
			*slab = append(*slab, zero)
			if !elem(s, &(*slab)[len(*slab)-1]) {
				return false
			}
			if s.consume(']') {
				break
			}
			if !s.consume(',') {
				return false
			}
		}
	}
	if len(*slab) == start {
		*dst = []T{}
	} else {
		*dst = (*slab)[start:len(*slab):len(*slab)]
	}
	return true
}

// carve extends *slab by n elements and returns them, with the capacity
// capped at n, so a later carve never writes into the result.
func carve[T any](slab *[]T, n int) []T {
	start := len(*slab)
	*slab = slices.Grow(*slab, n)[:start+n]
	return (*slab)[start : start+n : start+n]
}

// object scans an object whose keys are all in keys, each at most once,
// handing each value to field with its key's index.
func (s *scanner) object(keys []string, field func(key int) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	var seen uint
	for {
		k, ok := s.rawString()
		if !ok {
			return false
		}
		i := 0
		for i < len(keys) && string(k) != keys[i] {
			i++
		}
		if i == len(keys) || seen&(1<<i) != 0 || !s.consume(':') || !field(i) {
			return false
		}
		seen |= 1 << i
		if s.consume('}') {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
}

func (s *scanner) datasetRequest(req *datasetRequest) bool {
	return s.object(datasetKeys, func(k int) bool {
		switch k {
		case 0:
			return s.str(&req.Name)
		case 1:
			return array(s, &req.Tables, (*scanner).table)
		default:
			return array(s, &req.FKs, (*scanner).fk)
		}
	})
}

func (s *scanner) table(t *tablePayload) bool {
	return s.object(tableKeys, func(k int) bool {
		switch k {
		case 0:
			return s.str(&t.Name)
		case 1:
			t.PK = new(int)
			return number(s, t.PK)
		default:
			return array(s, &t.Cols, (*scanner).column)
		}
	})
}

func (s *scanner) column(c *columnPayload) bool {
	return s.object(columnKeys, func(k int) bool {
		if k == 0 {
			return s.str(&c.Name)
		}
		return numbers(s, nil, &c.Data)
	})
}

func (s *scanner) fk(fk *fkPayload) bool {
	return s.object(fkKeys, func(k int) bool {
		return number(s, [...]*int{&fk.FromTable, &fk.FromCol, &fk.ToTable, &fk.ToCol}[k])
	})
}

func (s *scanner) estimateRequest(req *estimateRequest) bool {
	return s.object(estimateKeys, func(k int) bool {
		switch k {
		case 0:
			return s.str(&req.Dataset)
		case 1:
			return s.str(&req.Model)
		case 2:
			req.Query = new(queryPayload)
			return s.query(req.Query)
		default:
			// Decode the batch into one backing array, then point into it.
			var qs []queryPayload
			if !array(s, &qs, (*scanner).query) {
				return false
			}
			if qs == nil {
				return true // null
			}
			req.Queries = make([]*queryPayload, len(qs))
			for i := range qs {
				req.Queries[i] = &qs[i]
			}
			return true
		}
	})
}

func (s *scanner) query(q *queryPayload) bool {
	return s.object(queryKeys, func(k int) bool {
		switch k {
		case 0:
			return numbers(s, &s.tables, &q.Tables)
		case 1:
			return arrayIn(s, &s.joins, &q.Joins, (*scanner).join)
		default:
			return arrayIn(s, &s.preds, &q.Preds, (*scanner).pred)
		}
	})
}

func (s *scanner) join(j *joinPayload) bool {
	return s.object(joinKeys, func(k int) bool {
		return number(s, [...]*int{&j.LeftTable, &j.LeftCol, &j.RightTable, &j.RightCol}[k])
	})
}

func (s *scanner) pred(p *predPayload) bool {
	return s.object(predKeys, func(k int) bool {
		switch k {
		case 0:
			return number(s, &p.Table)
		case 1:
			return number(s, &p.Col)
		case 2:
			return number(s, &p.Lo)
		default:
			return number(s, &p.Hi)
		}
	})
}
