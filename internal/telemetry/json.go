package telemetry

import "strconv"

// Hand-rolled JSON appenders behind the run ledger's round, event and span
// lines. They exist so every line of the stream obeys the same two rules:
// (1) output is always valid RFC 8259 JSON — in particular strings are
// escaped with JSON escapes, not Go ones (strconv.Quote emits
// \x and \a escapes that JSON parsers reject), and (2) appending into a
// caller-owned buffer allocates nothing once the buffer has grown to size.

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaping quotes,
// backslashes, and control characters per RFC 8259. Bytes ≥ 0x20 pass
// through untouched, so valid UTF-8 stays valid; invalid UTF-8 is passed
// through as-is and coerced to U+FFFD by conforming decoders.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			b = append(b, '\\', '"')
		case c == '\\':
			b = append(b, '\\', '\\')
		case c >= 0x20:
			b = append(b, c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c == '\t':
			b = append(b, '\\', 't')
		default: // other control characters: \u00XX
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
	}
	return append(b, '"')
}

// appendJSONFloat appends v as a JSON number. NaN and ±Inf have no JSON
// representation and become null, which decodes cleanly into a *float64 or
// is skipped by numeric consumers.
func appendJSONFloat(b []byte, v float64) []byte {
	if v != v || v > maxJSONFloat || v < -maxJSONFloat {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// maxJSONFloat is the largest finite float64; anything beyond is ±Inf.
const maxJSONFloat = 0x1.fffffffffffffp1023

// appendJSONFloats appends a JSON array of numbers (NaN/Inf → null).
func appendJSONFloats(b []byte, vs []float64) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, v)
	}
	return append(b, ']')
}

// appendJSONInts appends a JSON array of integers.
func appendJSONInts(b []byte, vs []int) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}
