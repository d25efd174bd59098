package obs

import (
	"crypto/rand"
	"encoding/binary"
	"sync/atomic"
)

// This file is the W3C Trace Context corner of the observability
// layer: parsing and rendering the `traceparent` header
// (https://www.w3.org/TR/trace-context/) and generating the random
// trace/span IDs that stitch one request's gateway span, watchdog
// timestamps and metric exemplars together. Everything here is
// allocation-free except the explicit *String renderers, which only
// run for spans the tail sampler decided to keep.

// TraceContext is one parsed (or generated) traceparent: the 16-byte
// trace ID shared by every span of a distributed request, the 8-byte
// ID of the current span, and the trace flags (bit 0 = sampled).
type TraceContext struct {
	TraceID [16]byte
	SpanID  [8]byte
	Flags   byte
}

// Valid reports whether both IDs are non-zero, the spec's minimum for
// a usable context.
func (tc TraceContext) Valid() bool {
	return tc.TraceID != [16]byte{} && tc.SpanID != [8]byte{}
}

// traceparentLen is the fixed length of a version-00 header:
// "00-" + 32 hex + "-" + 16 hex + "-" + 2 hex.
const traceparentLen = 55

// ParseTraceparent parses a traceparent header value. It is strict
// per the spec: exact length, lowercase hex only, version ff and
// all-zero IDs rejected. Future versions (01..fe) are accepted as
// long as their first four fields match the version-00 layout, which
// the spec requires, and only they may carry further dash-separated
// fields: a version-00 value is exactly 55 characters. The zero value
// and false come back for anything malformed, so a bad header
// silently degrades to "start a new trace" instead of failing the
// request.
func ParseTraceparent(s string) (TraceContext, bool) {
	var tc TraceContext
	if len(s) < traceparentLen {
		return TraceContext{}, false
	}
	if len(s) > traceparentLen && (s[traceparentLen] != '-' || s[:2] == "00") {
		return TraceContext{}, false // only a later version may extend, and with a new field
	}
	s = s[:traceparentLen]
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceContext{}, false
	}
	ver, ok := hexByte(s[0], s[1])
	if !ok || ver == 0xff {
		return TraceContext{}, false
	}
	if !hexDecode(tc.TraceID[:], s[3:35]) || !hexDecode(tc.SpanID[:], s[36:52]) {
		return TraceContext{}, false
	}
	flags, ok := hexByte(s[53], s[54])
	if !ok {
		return TraceContext{}, false
	}
	tc.Flags = flags
	if !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}

// Traceparent renders the context as a version-00 header value.
func (tc TraceContext) Traceparent() string {
	var buf [traceparentLen]byte
	buf[0], buf[1], buf[2] = '0', '0', '-'
	hexEncode(buf[3:35], tc.TraceID[:])
	buf[35] = '-'
	hexEncode(buf[36:52], tc.SpanID[:])
	buf[52] = '-'
	const hexdigits = "0123456789abcdef"
	buf[53] = hexdigits[tc.Flags>>4]
	buf[54] = hexdigits[tc.Flags&0xf]
	return string(buf[:])
}

// TraceIDString renders the trace ID as 32 lowercase hex characters.
func (tc TraceContext) TraceIDString() string {
	var buf [32]byte
	hexEncode(buf[:], tc.TraceID[:])
	return string(buf[:])
}

// SpanIDString renders the span ID as 16 lowercase hex characters.
func (tc TraceContext) SpanIDString() string {
	var buf [16]byte
	hexEncode(buf[:], tc.SpanID[:])
	return string(buf[:])
}

func hexEncode(dst, src []byte) {
	const hexdigits = "0123456789abcdef"
	for i, b := range src {
		dst[2*i] = hexdigits[b>>4]
		dst[2*i+1] = hexdigits[b&0xf]
	}
}

// hexDecode fills dst from exactly len(dst)*2 lowercase hex chars.
func hexDecode(dst []byte, s string) bool {
	for i := range dst {
		hi, ok1 := hexNibble(s[2*i])
		lo, ok2 := hexNibble(s[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	default:
		return 0, false // uppercase is invalid per the spec
	}
}

func hexByte(hi, lo byte) (byte, bool) {
	h, ok1 := hexNibble(hi)
	l, ok2 := hexNibble(lo)
	return h<<4 | l, ok1 && ok2
}

// IDGen produces unique trace and span IDs from a splitmix64 stream
// over an atomic counter: one CAS-free atomic add per 8 bytes of ID,
// no locks, no allocation, safe for concurrent request handlers. The
// stream is seeded from crypto/rand once at construction, so two
// gateways never collide in practice; a fixed seed makes tests
// deterministic.
type IDGen struct {
	state atomic.Uint64
}

// NewIDGen seeds a generator; seed 0 draws a random seed.
func NewIDGen(seed uint64) *IDGen {
	g := &IDGen{}
	if seed == 0 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			seed = binary.LittleEndian.Uint64(b[:])
		}
		seed |= 1 // never zero, even if the random read failed
	}
	g.state.Store(seed)
	return g
}

// next is one splitmix64 step: the atomic add hands every caller a
// distinct gamma-spaced input, the mix turns it into output bits.
func (g *IDGen) next() uint64 {
	z := g.state.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewTraceID draws a 16-byte trace ID (never all-zero).
func (g *IDGen) NewTraceID() [16]byte {
	var id [16]byte
	for {
		binary.LittleEndian.PutUint64(id[:8], g.next())
		binary.LittleEndian.PutUint64(id[8:], g.next())
		if id != [16]byte{} {
			return id
		}
	}
}

// NewSpanID draws an 8-byte span ID (never all-zero).
func (g *IDGen) NewSpanID() [8]byte {
	var id [8]byte
	for {
		binary.LittleEndian.PutUint64(id[:], g.next())
		if id != [8]byte{} {
			return id
		}
	}
}
