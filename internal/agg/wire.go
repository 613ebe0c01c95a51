package agg

import (
	"strconv"
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
// must answer what a single node answers. WireWriter is the only place the
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

// appendJSONStrings appends a JSON array of strings; nil renders as null,
// like encoding/json renders a nil slice.
func appendJSONStrings(dst []byte, values []string) []byte {
	if values == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range values {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, v)
	}
	return append(dst, ']')
}

// WireWriter appends one aggregate graph in wire form. Feed it every node,
// then every edge, each already in wire order, then Close.
type WireWriter struct {
	dst     []byte
	inEdges bool
	n       int // items written to the open list
}

// NewWireWriter starts a graph with the given attribute names and kind
// ("DIST" or "ALL"), appending to dst.
func NewWireWriter(dst []byte, attrs []string, kind string) WireWriter {
	dst = append(dst, `{"attributes":`...)
	dst = appendJSONStrings(dst, attrs)
	dst = append(dst, `,"kind":`...)
	dst = AppendJSONString(dst, kind)
	return WireWriter{dst: append(dst, `,"nodes":`...)}
}

// item opens the next object of the current list.
func (w *WireWriter) item(open string) {
	sep := byte(',')
	if w.n == 0 {
		sep = '['
	}
	w.n++
	w.dst = append(append(w.dst, sep), open...)
}

// endList closes the current list; one that received no item is null.
func (w *WireWriter) endList() {
	if w.n == 0 {
		w.dst = append(w.dst, "null"...)
	} else {
		w.dst = append(w.dst, ']')
	}
	w.n = 0
}

// Node appends one node group given by its decoded values.
func (w *WireWriter) Node(values []string, weight int64) {
	w.item(`{"values":`)
	w.dst = appendJSONStrings(w.dst, values)
	w.weight(weight)
}

// Edge appends one edge group given by its decoded endpoint values; the
// first edge closes the node list.
func (w *WireWriter) Edge(from, to []string, weight int64) {
	if !w.inEdges {
		w.endList()
		w.dst = append(w.dst, `,"edges":`...)
		w.inEdges = true
	}
	w.item(`{"from":`)
	w.dst = appendJSONStrings(w.dst, from)
	w.dst = append(w.dst, `,"to":`...)
	w.dst = appendJSONStrings(w.dst, to)
	w.weight(weight)
}

func (w *WireWriter) weight(weight int64) {
	w.dst = append(w.dst, `,"weight":`...)
	w.dst = append(strconv.AppendInt(w.dst, weight, 10), '}')
}

// Close ends the graph and returns the extended buffer.
func (w *WireWriter) Close() []byte {
	if !w.inEdges {
		w.endList()
		w.dst = append(w.dst, `,"edges":`...)
	}
	w.endList()
	return append(w.dst, '}')
}

// AppendJSON appends the graph's wire form to dst and returns the extended
// buffer. Any number of goroutines may encode one shared (cached) graph;
// after the first, each walks the remembered wire order without sorting.
func (ag *Graph) AppendJSON(dst []byte) []byte {
	s, o := ag.Schema, ag.wire()
	w := NewWireWriter(dst, s.AttrNames(), ag.Kind.String())
	from, to := make([]string, len(s.attrs)), make([]string, len(s.attrs))
	for _, p := range o.nodes {
		w.Node(s.decodeInto(from, p.key), p.w)
	}
	for _, p := range o.edges {
		w.Edge(s.decodeInto(from, p.key.From), s.decodeInto(to, p.key.To), p.w)
	}
	return w.Close()
}

// MarshalJSON renders the wire form for encoding/json callers.
func (ag *Graph) MarshalJSON() ([]byte, error) { return ag.AppendJSON(nil), nil }
