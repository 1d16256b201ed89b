package server

import (
	"bytes"
	"io"
	"net/http"
	"slices"
	"strconv"
)

// The POST /graphs/{name}/edges body is the one request body whose size
// grows with the work it asks for: a write of a thousand edges is a
// thousand pairs. encoding/json decodes it by reflection, element by
// element, which costs as much as rebuilding the graph the write changes.
// decodeEdges reads the body and fills the request straight from its
// bytes when it has the canonical shape every client writes:
//
//	{"add":[[u,v],...],"remove":[[u,v],...]}
//
// with each key at most once, in either order, either one optional, every
// value an array of two-element arrays of JSON integers (optional minus,
// no leading zero, at most maxEdgeDigits digits, no fraction or exponent),
// and JSON whitespace wherever JSON allows it, trailing whitespace
// included. Any other body — null, a pair of another length, a float, an
// unknown, duplicate, escaped or differently cased key, bytes after the
// object — goes to encoding/json unchanged, so every body decodes, and
// fails, exactly as decodeRequest decodes it.

// maxEdgeDigits is the most digits a canonical edge id may have: any
// integer that long fits an int, so the byte reader never needs
// encoding/json's range check (18 digits on 64-bit hosts, 9 on 32-bit).
const maxEdgeDigits = strconv.IntSize/64*9 + 9

// edgeProbe is how much of an /edges body decodeEdges reads before it
// first checks that the bytes so far can still begin a canonical body.
// Past it, it checks again each time what it has read doubles, so a body
// that stops fitting is handed to encoding/json by twice the offset of its
// first misfit (or edgeProbe) rather than read to maxBody first, and a
// canonical body is scanned at most three times over in all.
var edgeProbe = 64 << 10

// decodeEdges decodes r's /edges body into req, reading at most maxBody
// bytes. It answers and reports as decodeRequest does, with the same
// status and error text for every body.
func decodeEdges(w http.ResponseWriter, r *http.Request, req *mutateRequest) bool {
	body := http.MaxBytesReader(w, r.Body, maxBody)
	b := make([]byte, 0, min(512, edgeProbe))
	for check := edgeProbe; ; {
		if len(b) == cap(b) {
			if len(b) >= check {
				if _, more := parseEdgeBody(b, nil); !more {
					break
				}
				check = 2 * len(b)
			}
			b = slices.Grow(b, len(b))
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			if ok, _ := parseEdgeBody(b, req); ok {
				return true
			}
			break
		}
		if err != nil {
			break
		}
	}
	// Replay what was read, then the rest of the stream, whose reader
	// repeats the error that ended the read: the streaming decoder sees the
	// same bytes and the same failure it would have met reading the request
	// itself, and the multi-reader lets go of b once it is consumed.
	*req = mutateRequest{}
	return decodeJSON(w, io.MultiReader(bytes.NewReader(b), body), req)
}

// parseEdgeBody reports whether b is a canonical body (ok) and, when it is
// not, whether a longer body that starts with b could be (more): whether
// the scan ran out of bytes before it met one that does not fit. With a
// non-nil req it fills the zero *req from b; when b is not canonical, *req
// then holds garbage. With a nil req it only scans and allocates nothing.
func parseEdgeBody(b []byte, req *mutateRequest) (ok, more bool) {
	p := edgeScanner{b: b, req: req}
	if p.object() {
		p.space()
		ok = p.i == len(p.b)
	}
	return ok, p.i == len(p.b)
}

// edgeScanner walks a canonical /edges body.
type edgeScanner struct {
	b   []byte
	i   int
	req *mutateRequest // filled when non-nil
	all [][2]int       // the backing array of both lists
}

// object reads the body's object.
func (p *edgeScanner) object() bool {
	if !p.next('{') {
		return false
	}
	if p.req != nil {
		// One backing array holds both lists. Every pair opens with a '['
		// and takes at least five bytes, so either count bounds the pairs:
		// no append reallocates, and the array stays within about three
		// times the body.
		rest := p.b[p.i:]
		p.all = make([][2]int, 0, min(bytes.Count(rest, []byte{'['}), len(rest)/5))
	}
	if p.next('}') {
		return true
	}
	var seen [2]bool // add, remove
	for {
		if !p.next('"') {
			return false
		}
		k, rest := 0, p.b[p.i:]
		switch {
		case bytes.HasPrefix(rest, []byte(`add"`)):
			p.i += len(`add"`)
		case bytes.HasPrefix(rest, []byte(`remove"`)):
			k, p.i = 1, p.i+len(`remove"`)
		default:
			if bytes.HasPrefix([]byte(`add"`), rest) || bytes.HasPrefix([]byte(`remove"`), rest) {
				p.i = len(p.b) // the bytes end inside a key
			}
			return false
		}
		start := len(p.all)
		if seen[k] || !p.next(':') || !p.pairs() {
			return false
		}
		seen[k] = true
		if p.req != nil {
			// A full slice expression: appending to one list must not
			// write into the other. The list is non-nil even when empty,
			// as encoding/json leaves it.
			list := &p.req.Add
			if k == 1 {
				list = &p.req.Remove
			}
			*list = p.all[start:len(p.all):len(p.all)]
		}
		if p.next('}') {
			return true
		}
		if !p.next(',') {
			return false
		}
	}
}

// space skips JSON whitespace.
func (p *edgeScanner) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// next consumes c after optional whitespace and reports whether it was
// there.
func (p *edgeScanner) next(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// pairs reads an array of [u, v] pairs, appending them to p.all when
// p.req is filled.
func (p *edgeScanner) pairs() bool {
	if !p.next('[') {
		return false
	}
	if p.next(']') {
		return true
	}
	for {
		var e [2]int
		var ok bool
		if !p.next('[') {
			return false
		}
		if e[0], ok = p.integer(); !ok || !p.next(',') {
			return false
		}
		if e[1], ok = p.integer(); !ok || !p.next(']') {
			return false
		}
		if p.req != nil {
			p.all = append(p.all, e)
		}
		if p.next(']') {
			return true
		}
		if !p.next(',') {
			return false
		}
	}
}

// integer reads a JSON integer of at most maxEdgeDigits digits. A fraction or
// exponent after it fails the caller's next(',') or next(']').
func (p *edgeScanner) integer() (int, bool) {
	p.space()
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	if neg {
		p.i++
	}
	start, v := p.i, 0
	for p.i < len(p.b) && p.b[p.i]-'0' <= 9 {
		v = v*10 + int(p.b[p.i]-'0')
		p.i++
	}
	if d := p.i - start; d == 0 || d > maxEdgeDigits || (d > 1 && p.b[start] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}
