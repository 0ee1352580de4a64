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
// reply {"results": […]} of relayed items. readStrict decodes exactly that
// request shape without reflection, and writeResults writes the reply
// without re-encoding its items. Everything else is json.Unmarshal's and
// json.Encoder's: readStrict declines, leaving the target as fresh as it
// found it, any body that is not valid JSON (so every error text is
// json.Unmarshal's), any key that is not byte-equal to a field's tag, a
// null, a non-string item, a \u escape of a surrogate, and invalid UTF-8 —
// whatever json.Unmarshal decodes its own way. FuzzReadSuggest holds the
// two to the same values and errors.

// readStrict decodes data into v when v is a fresh *SuggestRequest and data
// is the request shape above, and reports whether it did.
func readStrict(data []byte, v any) bool {
	req, ok := v.(*SuggestRequest)
	if !ok || req == nil || req.Code != "" || req.Codes != nil || !json.Valid(data) {
		return false
	}
	if !readSuggest(data, req) {
		*req = SuggestRequest{}
		return false
	}
	return true
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
		w.peek()
		start := w.i + 1
		w.i = stringEnd(w.b, w.i)
		key := w.b[start : w.i-1]
		w.accept(':')
		ok := false
		switch string(key) {
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
