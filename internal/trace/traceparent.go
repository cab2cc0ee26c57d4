package trace

import (
	"encoding/hex"
	"strings"
)

// The W3C traceparent header (https://www.w3.org/TR/trace-context/):
//
//	version "-" trace-id "-" parent-id "-" trace-flags
//	   00   -  32 hex    -   16 hex    -    02 hex
//
// Hex digits are lowercase only. Version 00 is exactly 55 characters; a
// later version may append fields after a '-'. Bit 0 of trace-flags is
// "sampled".

// ParseTraceparent decodes a traceparent header value. ok is false for a
// missing or malformed header; sampled reflects the caller's sampling flag.
func ParseTraceparent(h string) (id TraceID, parent SpanID, sampled, ok bool) {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' ||
		strings.ContainsAny(h[:55], "ABCDEF") {
		return
	}
	ver, err := hex.DecodeString(h[0:2])
	if err != nil || ver[0] == 0xff || len(h) > 55 && (ver[0] == 0 || h[55] != '-') {
		return
	}
	if _, err := hex.Decode(id[:], []byte(h[3:35])); err != nil || id.IsZero() {
		return TraceID{}, SpanID{}, false, false
	}
	if _, err := hex.Decode(parent[:], []byte(h[36:52])); err != nil || parent.IsZero() {
		return TraceID{}, SpanID{}, false, false
	}
	flags, err := hex.DecodeString(h[53:55])
	if err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	return id, parent, flags[0]&1 == 1, true
}

// FormatTraceparent renders a version-00 traceparent header value.
func FormatTraceparent(id TraceID, span SpanID, sampled bool) string {
	buf := make([]byte, 55)
	buf[0], buf[1] = '0', '0'
	buf[2], buf[35], buf[52] = '-', '-', '-'
	hex.Encode(buf[3:35], id[:])
	hex.Encode(buf[36:52], span[:])
	buf[53] = '0'
	if sampled {
		buf[54] = '1'
	} else {
		buf[54] = '0'
	}
	return string(buf)
}
