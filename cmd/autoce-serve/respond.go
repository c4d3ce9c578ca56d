package main

// The canonical response encoder: the counterpart of canonical.go's
// scanner for /estimate's answer. It appends an estimateResponse to a
// pooled buffer, without reflection, exactly as encoding/json's Encoder
// writes it: HTML-safe strings, numbers in encoding/json's ES6 form
// (strconv.AppendFloat, 'e' below 1e-6 and from 1e21 on, a one-digit
// negative exponent unpadded), omitempty's dropped zero estimate, and a
// trailing newline. It declines what it would not write byte for byte
// the same (a string that needs an escape or is not ASCII) and what
// encoding/json refuses (a NaN or infinite estimate); writeJSON answers
// those as before. The differential test and FuzzEstimateResponse hold
// the two encoders to the same bytes.

import (
	"math"
	"net/http"
	"strconv"
	"sync"
)

// respBufs pools the encoder's buffers. A buffer that grew past
// maxPooledResponse (a batch of several thousand estimates) is dropped
// rather than kept for every later small answer.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResponse = 64 << 10

// writeEstimate answers resp with status 200, through the canonical
// encoder when it accepts resp and through writeJSON otherwise.
func writeEstimate(w http.ResponseWriter, resp *estimateResponse) {
	bp := respBufs.Get().(*[]byte)
	b, ok := appendEstimateResponse((*bp)[:0], resp)
	if ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(b) // a failed write is the client's hang-up; writeJSON ignores it too
	}
	if cap(b) <= maxPooledResponse {
		*bp = b[:0]
		respBufs.Put(bp)
	}
	if !ok {
		writeJSON(w, http.StatusOK, resp)
	}
}

// appendEstimateResponse appends resp's encoding/json form, newline
// included, to dst and reports true, or reports false when it declines.
func appendEstimateResponse(dst []byte, resp *estimateResponse) ([]byte, bool) {
	dst = append(dst, `{"dataset":`...)
	dst, ok := appendPlainString(dst, resp.Dataset)
	if !ok {
		return dst, false
	}
	dst = append(dst, `,"model":`...)
	if dst, ok = appendPlainString(dst, resp.Model); !ok {
		return dst, false
	}
	if resp.Estimate != 0 { // omitempty drops +0 and -0 alike
		dst = append(dst, `,"estimate":`...)
		if dst, ok = appendJSONFloat(dst, resp.Estimate); !ok {
			return dst, false
		}
	}
	dst = append(dst, `,"estimates":`...)
	if resp.Estimates == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, e := range resp.Estimates {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, ok = appendJSONFloat(dst, e); !ok {
				return dst, false
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...), true
}

// appendPlainString appends s quoted when encoding/json would write it
// unescaped: ASCII from ' ' on, other than '"', '\\' and the
// HTML-escaped '<', '>' and '&'.
func appendPlainString(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
}

// appendJSONFloat appends f as encoding/json writes a float64, or
// reports false for a NaN or an infinity, which it refuses.
func appendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}
