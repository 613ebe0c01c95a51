package agg

import (
	"bytes"
	"strconv"
	"sync/atomic"
	"unicode/utf8"
)

// The wire form of an aggregate graph is decoded attribute values with
// weights, so downstream tools need no knowledge of tuple encoding:
//
//	{"attributes":["gender"],"kind":"ALL",
//	 "nodes":[{"values":["f"],"weight":3},…],
//	 "edges":[{"from":["f"],"to":["m"],"weight":2},…]}
//
// groups in wire order (order.go), an empty attributes/nodes/edges list
// rendered as null, strings escaped exactly like encoding/json with HTML
// escaping on. Those bytes are a contract: clients hash them and the router
// must answer what a single node answers. AppendJSON is the only place the
// shape is spelled; it appends to a caller-owned buffer and never reflects.

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json copies into a string
// verbatim: everything printable except the quote, the backslash and the
// HTML-sensitive <, > and &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

// AppendJSONString appends s as a JSON string literal, byte-identical to
// what encoding/json (go ≥ 1.22, HTML escaping on) emits: short escapes for
// \b \f \n \r \t, \u00XX for other control bytes and for < > &, \ufffd for
// each invalid UTF-8 byte, and U+2028/U+2029 escaped.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONStrings appends a non-nil slice of strings as a JSON array.
func appendJSONStrings(dst []byte, values []string) []byte {
	dst = append(dst, '[')
	for i, v := range values {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, v)
	}
	return append(dst, ']')
}

// appendGroups appends one group list in wire order — null when empty —
// each group's opening fields by open, then its weight.
func appendGroups[K any](dst []byte, groups []weighted[K], open func([]byte, K) []byte) []byte {
	if len(groups) == 0 {
		return append(dst, "null"...)
	}
	for i, p := range groups {
		sep := byte(',')
		if i == 0 {
			sep = '['
		}
		dst = strconv.AppendInt(append(open(append(dst, sep), p.key), `,"weight":`...), p.w, 10)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// AppendJSON appends the graph's wire form to dst and returns the extended
// buffer. Any number of goroutines may encode one shared (cached) graph:
// the first render sorts and encodes into dst and keeps an exact-size copy,
// every later one appends the kept bytes.
func (ag *Graph) AppendJSON(dst []byte) []byte {
	if b := ag.json.Load(); b != nil {
		return append(dst, *b...)
	}
	start, s, n := len(dst), ag.Schema, len(ag.Schema.attrs)
	nodes, edges := ag.sorted()
	values := make([]string, 2*n)
	from, to := values[:n], values[n:]
	dst = append(dst, `{"attributes":[`...)
	for i, a := range s.attrs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, s.g.Attr(a).Name)
	}
	dst = append(AppendJSONString(append(dst, `],"kind":`...), ag.Kind.String()), `,"nodes":`...)
	dst = appendGroups(dst, nodes, func(dst []byte, k Tuple) []byte {
		return appendJSONStrings(append(dst, `{"values":`...), s.decodeInto(from, k))
	})
	dst = appendGroups(append(dst, `,"edges":`...), edges, func(dst []byte, k EdgeKey) []byte {
		dst = appendJSONStrings(append(dst, `{"from":`...), s.decodeInto(from, k.From))
		return appendJSONStrings(append(dst, `,"to":`...), s.decodeInto(to, k.To))
	})
	return keep(&ag.json, start, append(dst, '}'))
}

// AppendJSONText appends String() as a JSON string literal — the "text"
// of a TGQL aggregate reply — and keeps it like AppendJSON keeps the wire
// form.
func (ag *Graph) AppendJSONText(dst []byte) []byte {
	if b := ag.text.Load(); b != nil {
		return append(dst, *b...)
	}
	return keep(&ag.text, len(dst), AppendJSONString(dst, ag.String()))
}

// keep publishes an exact-size copy of dst[start:], the form just rendered,
// in slot and returns dst. Concurrent first renders each render; their
// bytes are equal and either copy is kept.
func keep(slot *atomic.Pointer[[]byte], start int, dst []byte) []byte {
	b := bytes.Clone(dst[start:])
	slot.Store(&b)
	return dst
}

// renderBounds bounds the lengths of AppendJSON's and AppendJSONText's
// bytes. Per group, with W the schema's value width (widths): a node is at
// most W+43 wire bytes and W+34 text bytes, an edge 2W+48 and 2W+39 —
// the fixed punctuation, a weight of up to 20 characters and a separator.
func (ag *Graph) renderBounds() (json, text int64) {
	w, names := ag.Schema.widths()
	n, e := int64(len(ag.Nodes)), int64(len(ag.Edges))
	return 64 + names + n*(w+43) + e*(2*w+48), 64 + n*(w+34) + e*(2*w+39)
}

// widths returns, computed once per schema, the widest a tuple's values
// render — the sum over attributes of the longest escaped dictionary value
// (quotes included) plus one separator — and the same sum over the
// attribute names.
func (s *Schema) widths() (values, names int64) {
	s.widthOnce.Do(func() {
		var buf []byte
		for _, a := range s.attrs {
			widest := 2 // "", what an empty domain decodes to
			for _, v := range s.g.Dict(a).Values() {
				buf = AppendJSONString(buf[:0], v)
				widest = max(widest, len(buf))
			}
			s.valueWidth += int64(widest) + 1
			s.nameWidth += int64(len(AppendJSONString(buf[:0], s.g.Attr(a).Name))) + 1
		}
	})
	return s.valueWidth, s.nameWidth
}

// MarshalJSON renders the wire form for encoding/json callers.
func (ag *Graph) MarshalJSON() ([]byte, error) { return ag.AppendJSON(nil), nil }
