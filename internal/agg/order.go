package agg

import (
	"bytes"
	"slices"

	"repro/internal/dict"
)

// Wire order is the one presentation order of aggregate groups, shared by
// every renderer (JSON, text, DOT) and by plan.MergePartials, so that equal
// graphs always render equal bytes:
//
//   - nodes ascend by label, the group's values joined with ",";
//   - edges ascend by the concatenated string label(from)+"→"+label(to) —
//     NOT by the (from, to) pair: with values "1" and "10" the two differ,
//     because "f,10→…" < "f,1→…" ('0' sorts before the first byte of "→");
//   - groups whose labels collide (a value containing "," can make
//     ("a,b","c") and ("a","b,c") both read "a,b,c") fall back to comparing
//     their value lists element-wise, from before to for edges.
//
// Each label is rendered once per sort, not once per comparison, and each
// Graph is sorted once: its first render remembers the order (Graph.wire).

// sortByKey sorts items by the bytes key appends for each, breaking ties
// with tie.
func sortByKey[T any](items []T, key func(dst []byte, item T) []byte, tie func(a, b T) int) {
	if len(items) < 2 {
		return
	}
	type keyed struct {
		lo, hi int // the item's key is keys[lo:hi]
		item   T
	}
	keys := make([]byte, 0, 16*len(items))
	sorted := make([]keyed, len(items))
	for i, it := range items {
		lo := len(keys)
		keys = key(keys, it)
		sorted[i] = keyed{lo, len(keys), it}
	}
	slices.SortFunc(sorted, func(a, b keyed) int {
		if c := bytes.Compare(keys[a.lo:a.hi], keys[b.lo:b.hi]); c != 0 {
			return c
		}
		return tie(a.item, b.item)
	})
	for i := range sorted {
		items[i] = sorted[i].item
	}
}

// SortNodes sorts node groups into wire order. value extracts a group's
// value — a Tuple under a Schema, or a decoded value list — label appends
// its label and cmp orders two values element-wise (the tie-break).
func SortNodes[T, V any](items []T, value func(T) V, label func([]byte, V) []byte, cmp func(a, b V) int) {
	sortByKey(items,
		func(dst []byte, it T) []byte { return label(dst, value(it)) },
		func(a, b T) int { return cmp(value(a), value(b)) })
}

// SortEdges sorts edge groups into wire order; ends extracts an edge's
// endpoint values, label and cmp are as for SortNodes.
func SortEdges[T, V any](items []T, ends func(T) (from, to V), label func([]byte, V) []byte, cmp func(a, b V) int) {
	sortByKey(items,
		func(dst []byte, it T) []byte {
			from, to := ends(it)
			return label(append(label(dst, from), "→"...), to)
		},
		func(a, b T) int {
			af, at := ends(a)
			bf, bt := ends(b)
			if c := cmp(af, bf); c != 0 {
				return c
			}
			return cmp(at, bt)
		})
}

// AppendLabel appends the label of a decoded value list: the values joined
// with ",", like the paper's figures ("f,1").
func AppendLabel(dst []byte, values []string) []byte {
	for i, v := range values {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, v...)
	}
	return dst
}

// AppendLabel appends the label of tu without decoding it into a slice.
func (s *Schema) AppendLabel(dst []byte, tu Tuple) []byte {
	rem := int64(tu)
	for i, a := range s.attrs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, s.g.Dict(a).Value(dict.Code(rem%s.radices[i]))...)
		rem /= s.radices[i]
	}
	return dst
}

// compareTuples orders two tuples by their decoded values, element-wise in
// schema order. Distinct tuples never compare equal.
func (s *Schema) compareTuples(a, b Tuple) int {
	ra, rb := int64(a), int64(b)
	for i, at := range s.attrs {
		d, r := s.g.Dict(at), s.radices[i]
		if va, vb := d.Value(dict.Code(ra%r)), d.Value(dict.Code(rb%r)); va != vb {
			if va < vb {
				return -1
			}
			return 1
		}
		ra, rb = ra/r, rb/r
	}
	return 0
}

// SortedTuples returns the keys of a tuple-keyed group map in wire order
// under s.
func SortedTuples[W any](s *Schema, groups map[Tuple]W) []Tuple {
	out := make([]Tuple, 0, len(groups))
	for tu := range groups {
		out = append(out, tu)
	}
	SortNodes(out, func(tu Tuple) Tuple { return tu }, s.AppendLabel, s.compareTuples)
	return out
}

// SortedEdgeKeys returns the keys of an edge-keyed group map in wire order
// under s.
func SortedEdgeKeys[W any](s *Schema, groups map[EdgeKey]W) []EdgeKey {
	out := make([]EdgeKey, 0, len(groups))
	for k := range groups {
		out = append(out, k)
	}
	SortEdges(out, func(k EdgeKey) (Tuple, Tuple) { return k.From, k.To }, s.AppendLabel, s.compareTuples)
	return out
}
