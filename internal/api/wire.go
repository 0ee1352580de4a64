package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The /suggest hop carries a request {"code": …, "codes": […]} many times a
// second, which both binaries decode, and the router answers it with a
// reply {"results": […]} of relayed items, which it first reads from a
// replica. readStrict decodes exactly those two shapes without reflection,
// and writeResults writes the reply without re-encoding its items.
// Everything else is json.Unmarshal's and json.Encoder's: readStrict
// declines, leaving the target as fresh as it found it, any body that is
// not valid JSON (so every error text is json.Unmarshal's), any key that is
// not byte-equal to a field's tag, a null, a request item that is not a
// string, a \u escape of a surrogate, and invalid UTF-8 in a request —
// whatever json.Unmarshal decodes its own way. FuzzReadSuggest holds the
// two to the same values and errors.

// readStrict decodes data into v when v is a fresh *SuggestRequest and data
// is the request shape above, or a fresh *Response[json.RawMessage] and
// data the reply shape, and reports whether it did.
func readStrict(data []byte, v any) bool {
	switch t := v.(type) {
	case *SuggestRequest:
		if t == nil || t.Code != "" || t.Codes != nil || !json.Valid(data) {
			return false
		}
		if !readSuggest(data, t) {
			*t = SuggestRequest{}
			return false
		}
		return true
	case *Response[json.RawMessage]:
		return t != nil && t.Results == nil && t.Trace == nil && json.Valid(data) && readReply(data, t)
	}
	return false
}

// readSuggest walks a request object, key by key; the last of duplicate
// keys wins, as in json.Unmarshal.
func readSuggest(data []byte, v *SuggestRequest) bool {
	w := wire{b: data}
	if !w.accept('{') {
		return false
	}
	if w.accept('}') {
		return true
	}
	for {
		ok := false
		switch string(w.key()) {
		case "code":
			v.Code, ok = w.str()
		case "codes":
			v.Codes, ok = w.strs()
		}
		if !ok {
			return false
		}
		if !w.accept(',') {
			return w.accept('}')
		}
	}
}

// readReply reads a reply of relayed items, {"results":[value…]} and
// nothing more: it declines a null list or item, and any key but results
// (so any trace). It writes v only once the whole body matched. Each item
// is a copy of its own of exactly the bytes json.Unmarshal would give its
// RawMessage, never a sub-slice of a shared copy: a stored item keeps only
// its own bytes alive.
func readReply(data []byte, v *Response[json.RawMessage]) bool {
	w := wire{b: data}
	if !w.accept('{') || string(w.key()) != "results" || !w.accept('[') {
		return false
	}
	save, n := w.i, 0
	for w.peek() != ']' {
		if w.b[w.i] == 'n' { // null
			return false
		}
		w.i = valueEnd(w.b, w.i)
		n++
		w.accept(',')
	}
	w.i++
	if !w.accept('}') {
		return false
	}
	w.i = save
	list := make([]json.RawMessage, n)
	for k := range list {
		w.peek()
		start := w.i
		w.i = valueEnd(w.b, w.i)
		list[k] = make(json.RawMessage, w.i-start)
		copy(list[k], w.b[start:w.i])
		w.accept(',')
	}
	v.Results = list
	return true
}

// wire walks a body json.Valid accepted, so it checks shapes, not syntax.
type wire struct {
	b []byte
	i int
}

// peek skips whitespace and returns the next byte.
func (w *wire) peek() byte {
	for w.i < len(w.b) {
		switch c := w.b[w.i]; c {
		case ' ', '\t', '\n', '\r':
			w.i++
		default:
			return c
		}
	}
	return 0
}

// accept consumes c if it is the next byte.
func (w *wire) accept(c byte) bool {
	if w.peek() == c {
		w.i++
		return true
	}
	return false
}

// strs reads an array of strings into a list allocated once, declining an
// item that is not a string.
func (w *wire) strs() ([]string, bool) {
	if !w.accept('[') {
		return nil, false
	}
	save, n := w.i, 0
	for w.peek() == '"' {
		w.i = stringEnd(w.b, w.i)
		n++
		w.accept(',')
	}
	if w.peek() != ']' {
		return nil, false
	}
	w.i = save
	list := make([]string, n)
	for k := range list {
		s, ok := w.str()
		if !ok {
			return nil, false
		}
		list[k] = s
		w.accept(',')
	}
	return list, w.accept(']')
}

// key reads an object key and the colon after it, and is nil when the next
// byte starts no key.
func (w *wire) key() []byte {
	if w.peek() != '"' {
		return nil
	}
	start := w.i + 1
	w.i = stringEnd(w.b, w.i)
	k := w.b[start : w.i-1]
	w.accept(':')
	return k
}

// valueEnd is the index just past the value that starts at i.
func valueEnd(b []byte, i int) int {
	switch b[i] {
	case '"':
		return stringEnd(b, i)
	case '{', '[':
		depth := 0
		for ; ; i++ {
			switch b[i] {
			case '"':
				i = stringEnd(b, i) - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
	}
	for i < len(b) { // a number, true or false
		switch b[i] {
		case ',', ']', '}', ' ', '\t', '\n', '\r':
			return i
		}
		i++
	}
	return i
}

// stringEnd is the index just past the string whose opening quote is at i.
func stringEnd(b []byte, i int) int {
	for i++; b[i] != '"'; i++ {
		if b[i] == '\\' {
			i++
		}
	}
	return i + 1
}

// str reads the string at the walk into one fresh string, unescaped as
// json.Unmarshal unescapes it. It declines invalid UTF-8 and a \u escape of
// a surrogate, which json.Unmarshal replaces by U+FFFD.
func (w *wire) str() (string, bool) {
	if w.peek() != '"' {
		return "", false
	}
	start := w.i + 1
	w.i = stringEnd(w.b, w.i)
	raw := w.b[start : w.i-1]
	if !utf8.Valid(raw) {
		return "", false
	}
	if bytes.IndexByte(raw, '\\') < 0 {
		return string(raw), true
	}
	var sb strings.Builder
	sb.Grow(len(raw)) // an escape is longer than what it stands for
	for {
		k := bytes.IndexByte(raw, '\\')
		if k < 0 {
			sb.Write(raw)
			return sb.String(), true
		}
		sb.Write(raw[:k])
		c := raw[k+1]
		switch c {
		case 'u':
			r := hex4(raw[k+2 : k+6])
			if utf16.IsSurrogate(r) {
				return "", false
			}
			sb.WriteRune(r)
			raw = raw[k+6:]
			continue
		case 'n':
			c = '\n'
		case 't':
			c = '\t'
		case 'r':
			c = '\r'
		case 'b':
			c = '\b'
		case 'f':
			c = '\f'
		} // '"', '\\' and '/' stand for themselves
		sb.WriteByte(c)
		raw = raw[k+2:]
	}
}

// hex4 is the rune four hex digits spell.
func hex4(h []byte) rune {
	var r rune
	for _, c := range h {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// writeResults answers 200 with {"results":[…]} around relayed items, the
// bytes WriteJSON would write for Response[json.RawMessage]{Results: items}.
// WriteJSON compacts and HTML-escapes a json.RawMessage; every relayed item
// was rendered by encoding/json, which wrote it compact and HTML-escaped
// already, so it is written as it is.
func writeResults(w http.ResponseWriter, items []json.RawMessage) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	b := encodeBufs.Get().(*encodeBuf)
	b.WriteString(`{"results":[`)
	for k, item := range items {
		if k > 0 {
			b.WriteByte(',')
		}
		if item == nil {
			b.WriteString("null")
		} else {
			b.Write(item)
		}
	}
	b.WriteString("]}\n")
	_, _ = w.Write(b.Bytes())
	b.release()
}
