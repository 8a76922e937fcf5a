// Package jsontext holds the JSON primitives the checkpoint encoders
// are built on: an append-based writer of strings and floats that
// writes what encoding/json writes. The NVD feed codec (internal/cve)
// and the reuse-state encoder (internal/store) lay their documents out
// on top of it; each one's tests hold it to encoding/json over its own
// layout.
package jsontext

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21
// up, with a one-digit negative exponent written without its leading
// zero (1e-7, not 1e-07). It reports false, appending nothing, for NaN
// and the infinities, which encoding/json refuses to write; the caller
// names the value in its error.
func AppendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}

// AppendQuoted appends, as a JSON string, the text appendText appends.
// The text is staged at the end of b, quoted after it and moved down
// over it, so quoting costs no buffer of its own.
func AppendQuoted(b []byte, appendText func([]byte) []byte) []byte {
	start := len(b)
	b = appendText(b)
	end := len(b)
	b = AppendString(b, b[start:end])
	return append(b[:start], b[end:]...)
}

// AppendString appends s as a JSON string, as encoding/json writes it
// with HTML escaping on (json.Marshal, and json.Encoder by default):
// '"' and '\\' escaped with a backslash; \b, \f, \n, \r and \t in short
// form; other control bytes and '<', '>' and '&' as \u00XX; each byte
// of invalid UTF-8 as \ufffd; and U+2028 and U+2029 as \u2028 and
// \u2029. Every other byte is written as is.
func AppendString[S string | []byte](b []byte, s S) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		n := min(len(s)-i, utf8.UTFMax)
		r, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
