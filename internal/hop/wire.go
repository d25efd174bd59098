package hop

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// This file is what both halves of the codec read: a message head, its
// body framing, and the two body readers.

// maxHead bounds a head (start line and fields) and a trailer section.
// net/http's server allows the same 1 MiB.
const maxHead = 1 << 20

var (
	errHeadTooLarge = errors.New("hop: message head too large")
	errMalformed    = errors.New("hop: malformed message head")
	errBothFramings = errors.New("hop: both Content-Length and Transfer-Encoding")
	errTwoLengths   = errors.New("hop: differing Content-Length values")
	errBadLength    = errors.New("hop: invalid Content-Length")
	errUnsupportedT = errors.New("hop: unsupported Transfer-Encoding")
	errChunk        = errors.New("hop: malformed chunked encoding")
)

// chunkedTE is the TransferEncoding of every chunked message; shared,
// never written.
var chunkedTE = []string{"chunked"}

// readHead reads lines up to and including the first empty one,
// appending them to buf: a head, or a trailer section. Every line ends
// in CRLF: a bare LF, which another parser might read as no line end,
// is refused. It fails with io.EOF only when nothing was read.
func readHead(br *bufio.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	line := 0 // where the line being read starts in buf
	for {
		frag, err := br.ReadSlice('\n')
		if len(buf)+len(frag) > maxHead {
			return buf, errHeadTooLarge
		}
		buf = append(buf, frag...)
		switch {
		case err == bufio.ErrBufferFull:
			continue
		case err == io.EOF && len(buf) > 0:
			return buf, io.ErrUnexpectedEOF
		case err != nil:
			return buf, err
		}
		if l := buf[line:]; len(l) < 2 || l[len(l)-2] != '\r' {
			return buf, errMalformed
		} else if len(l) == 2 {
			return buf, nil
		}
		line = len(buf)
	}
}

// parseHead splits a head from readHead into its start line and its
// fields, which it adds to h. Every string it returns or stores is cut
// from one copy of raw, and every value slice from one array.
func parseHead(raw []byte, h http.Header) (start string, err error) {
	s := string(raw)
	start, s, _ = strings.Cut(s, "\n")
	start = strings.TrimSuffix(start, "\r")
	return start, parseFields(s, h)
}

// parseFields adds the field lines of s, the last of them empty, to h;
// with h nil it only checks them. It refuses an obs-fold, a name that is
// not a token, and a value with a control byte other than a tab.
func parseFields(s string, h http.Header) error {
	n := strings.Count(s, "\n") - 1
	var vals []string
	if n > 0 && h != nil {
		vals = make([]string, n)
	}
	for i := 0; i < n; i++ {
		var line string
		line, s, _ = strings.Cut(s, "\n")
		line = strings.TrimSuffix(line, "\r")
		k, v, ok := strings.Cut(line, ":")
		if !ok || !token(k) {
			return errMalformed // an obs-fold starts with a space, which is no token
		}
		for len(v) > 0 && (v[0] == ' ' || v[0] == '\t') {
			v = v[1:]
		}
		for len(v) > 0 && (v[len(v)-1] == ' ' || v[len(v)-1] == '\t') {
			v = v[:len(v)-1]
		}
		for j := 0; j < len(v); j++ {
			if c := v[j]; c < ' ' && c != '\t' || c == 0x7f {
				return errMalformed
			}
		}
		if h == nil {
			continue
		}
		if !canonical(k) {
			k = http.CanonicalHeaderKey(k)
		}
		if cur, seen := h[k]; seen {
			h[k] = append(cur, v)
			continue
		}
		vals[i] = v
		h[k] = vals[i : i+1 : i+1]
	}
	return nil
}

// canonical reports whether field name k is already in the form
// http.CanonicalHeaderKey gives it: upper case first and after each
// hyphen, lower case elsewhere.
func canonical(k string) bool {
	upper := true
	for i := 0; i < len(k); i++ {
		c := k[i]
		if upper && 'a' <= c && c <= 'z' || !upper && 'A' <= c && c <= 'Z' {
			return false
		}
		upper = c == '-'
	}
	return true
}

// framing reads a message's body framing from its fields: chunked, or a
// Content-Length (-1 when there is none). It refuses any field set a
// peer could frame two ways: both framings, differing lengths, or a
// transfer coding other than chunked.
func framing(h http.Header) (length int64, chunked bool, err error) {
	te, hasTE := h["Transfer-Encoding"]
	cl, hasCL := h["Content-Length"]
	switch {
	case hasTE && hasCL:
		return 0, false, errBothFramings
	case hasTE:
		if len(te) != 1 || !strings.EqualFold(te[0], "chunked") {
			return 0, false, errUnsupportedT
		}
		return -1, true, nil
	case hasCL:
		for _, v := range cl[1:] {
			if v != cl[0] {
				return 0, false, errTwoLengths
			}
		}
		if length = parseLength(cl[0]); length < 0 {
			return 0, false, errBadLength
		}
		return length, false, nil
	}
	return -1, false, nil
}

// parseLength parses a Content-Length value: decimal digits only. It
// returns -1 for anything else.
func parseLength(s string) int64 {
	n, err := strconv.ParseUint(s, 10, 63)
	if err != nil {
		return -1
	}
	return int64(n)
}

// closeAsked reports whether a message asks for its connection to close
// after it: HTTP/1.0 always, HTTP/1.1 when Connection lists close.
func closeAsked(minor int, h http.Header) bool {
	return minor == 0 || named(h["Connection"], "close")
}

// parseProto parses the HTTP/1.x version a start line names.
func parseProto(p string) (minor int, ok bool) {
	switch p {
	case "HTTP/1.1":
		return 1, true
	case "HTTP/1.0":
		return 0, true
	}
	return 0, false
}

// lengthBody reads a body of known length.
type lengthBody struct {
	br *bufio.Reader
	n  int64 // bytes left
}

// segment reports the rest of the body: what follows without framing.
func (b *lengthBody) segment() (int64, error) {
	if b.n <= 0 {
		return 0, io.EOF
	}
	return b.n, nil
}

// skip books n bytes of the segment as read past the reader.
func (b *lengthBody) skip(n int64) { b.n -= n }

func (b *lengthBody) Read(p []byte) (int, error) {
	if b.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := b.br.Read(p)
	b.n -= int64(n)
	switch {
	case b.n == 0:
		return n, io.EOF
	case err == io.EOF:
		return n, io.ErrUnexpectedEOF
	}
	return n, err
}

// chunkedBody reads a chunked body and, after its last chunk, its
// trailer section. Like net/http's, it fills the caller's buffer within
// a chunk, and across chunks whose size line is already buffered.
type chunkedBody struct {
	br       *bufio.Reader
	n        int64 // bytes left in the current chunk
	checkEnd bool  // the CRLF closing a chunk's data is still to read
	err      error // sticky
	// trailer receives the trailer fields; nil checks and discards them.
	// raw is the scratch the trailer section is read into.
	trailer *http.Header
	raw     *[]byte
}

func (b *chunkedBody) reset(br *bufio.Reader, trailer *http.Header, raw *[]byte) {
	*b = chunkedBody{br: br, trailer: trailer, raw: raw}
}

// segment reports what is left of the current chunk, beginning the next
// one when the current is done: the bytes that follow without framing.
// At the end of the body it returns io.EOF, the trailers read.
func (b *chunkedBody) segment() (int64, error) {
	for b.err == nil && b.n == 0 {
		if b.checkEnd {
			b.endChunk()
		} else {
			b.beginChunk()
		}
	}
	return b.n, b.err
}

// skip books n bytes of the segment as read past the reader.
func (b *chunkedBody) skip(n int64) {
	if b.n -= n; b.n == 0 {
		b.checkEnd = true
	}
}

// endChunk reads the CRLF that closes a chunk's data.
func (b *chunkedBody) endChunk() {
	if crlf, err := b.br.Peek(2); err != nil {
		b.err = unexpected(err)
	} else if crlf[0] != '\r' || crlf[1] != '\n' {
		b.err = errChunk
	} else {
		b.br.Discard(2)
		b.checkEnd = false
	}
}

func (b *chunkedBody) Read(p []byte) (n int, err error) {
	for b.err == nil {
		if b.checkEnd {
			if n > 0 && b.br.Buffered() < 2 {
				break // return what we have rather than block for the CRLF
			}
			if b.endChunk(); b.err != nil {
				break
			}
		}
		if b.n == 0 {
			if n > 0 && !b.sizeBuffered() {
				break // do not block on the next size line
			}
			b.beginChunk()
			continue
		}
		if len(p) == 0 {
			break
		}
		q := p
		if int64(len(q)) > b.n {
			q = q[:b.n]
		}
		var k int
		k, b.err = b.br.Read(q)
		n += k
		p = p[k:]
		b.n -= int64(k)
		if b.n == 0 && b.err == nil {
			b.checkEnd = true
		} else if b.err == io.EOF {
			b.err = io.ErrUnexpectedEOF
		}
	}
	return n, b.err
}

// sizeBuffered reports whether a whole chunk size line is buffered.
func (b *chunkedBody) sizeBuffered() bool {
	buf, _ := b.br.Peek(b.br.Buffered())
	return bytes.IndexByte(buf, '\n') >= 0
}

// beginChunk reads a chunk size line; after the last chunk it reads the
// trailer section and ends the body.
func (b *chunkedBody) beginChunk() {
	line, err := b.br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			err = errChunk
		}
		b.err = unexpected(err)
		return
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		b.err = errChunk
		return
	}
	line = line[:len(line)-2]
	if i := bytes.IndexByte(line, ';'); i >= 0 {
		line = line[:i] // a chunk extension
	}
	size, err := strconv.ParseUint(string(line), 16, 63)
	if err != nil || len(line) > 16 {
		b.err = errChunk
		return
	}
	if b.n = int64(size); b.n > 0 {
		return
	}
	// The last chunk: the trailer section ends the body.
	raw, err := readHead(b.br, *b.raw)
	*b.raw = raw
	if err != nil {
		b.err = unexpected(err)
		return
	}
	b.err = io.EOF
	if len(raw) <= 2 {
		return // no trailer fields
	}
	var h http.Header
	if b.trailer != nil {
		if *b.trailer == nil {
			*b.trailer = http.Header{}
		}
		h = *b.trailer
	}
	if err := parseFields(string(raw), h); err != nil {
		b.err = err
	}
}

// unexpected turns an end of input inside a message into
// io.ErrUnexpectedEOF.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
