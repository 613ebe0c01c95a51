// Package bitset provides dense bitsets.
//
// GraphTempo represents the timestamp functions τu and τe of a temporal
// attributed graph as binary vectors over the time domain (one bit per time
// point), and represents node/edge selections produced by the temporal
// operators as binary vectors over the node/edge id space. Both uses share
// this implementation.
//
// Both domains only ever grow under streaming ingest, so a set frozen at an
// earlier length reads as zero-padded to today's: a timestamp frozen when
// the timeline had T points means "absent after T", and a per-point
// existence column (core.PointIndex) frozen when the graph had n entities
// means "absent for every later id". The read-only combinators (Contains,
// Intersects, ContainsAll, CountAnd, And, Or, AndNot, Equal) pad whichever
// side is shorter. The in-place combinators (OrWith, AndWith,
// AndNotWith, CopyFrom) pad in one direction only: the operand may be
// shorter than the receiver — AndWith and CopyFrom clear the receiver's
// tail, as the padding zeros would — but a longer operand panics, because
// the receiver is a selection buffer sized for today's id space and bits
// beyond it belong to a different one. Add, Remove, SetAnd and SetAndNotOr
// stay strict about length.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bitset with a fixed logical length. The zero value is an
// empty set of length 0; use New to create a set with capacity for n bits.
type Set struct {
	words []uint64
	n     int
}

// New returns a set able to hold n bits, all initially zero.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative length")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns a set of length n with the given bits set.
// It panics if any index is out of range.
func FromIndices(n int, indices ...int) *Set {
	s := New(n)
	for _, i := range indices {
		s.Add(i)
	}
	return s
}

// Len reports the logical length (capacity in bits) of the set.
func (s *Set) Len() int { return s.n }

// Add sets bit i. It panics if i is out of range.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove clears bit i. It panics if i is out of range.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Contains reports whether bit i is set. Indices at or beyond Len report
// false (zero-padding); negative indices panic.
func (s *Set) Contains(i int) bool {
	if i < 0 {
		s.check(i)
	}
	if i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether no bit is set.
func (s *Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns a copy of s.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n}
}

// CloneGrow returns a copy of s with logical length at least n; bits beyond
// s's original length start zero. It is the copy-on-write step of growing a
// frozen timestamp when the timeline gains points.
func (s *Set) CloneGrow(n int) *Set {
	if n < s.n {
		n = s.n
	}
	r := New(n)
	copy(r.words, s.words)
	return r
}

// Equal reports whether s and t contain the same bits. Lengths may differ:
// the shorter set is treated as zero-padded, so a timestamp frozen at an
// earlier timeline length equals its padded form.
func (s *Set) Equal(t *Set) bool {
	long, short := s.words, t.words
	if len(long) < len(short) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

func (s *Set) sameLen(t *Set, op string) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: %s of sets with different lengths %d and %d", op, s.n, t.n))
	}
}

// notLonger panics when operand t is longer than receiver s: the in-place
// combinators zero-pad a shorter operand and reject a longer one.
func (s *Set) notLonger(t *Set, op string) {
	if t.n > s.n {
		panic(fmt.Sprintf("bitset: %s of a length-%d set with a longer one (%d)", op, s.n, t.n))
	}
}

// minWords returns the number of backing words shared by both sets.
func (s *Set) minWords(t *Set) int {
	if len(s.words) < len(t.words) {
		return len(s.words)
	}
	return len(t.words)
}

// Intersects reports whether s and t share at least one set bit. The
// shorter set is treated as zero-padded.
func (s *Set) Intersects(t *Set) bool {
	for i := 0; i < s.minWords(t); i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// ContainsAll reports whether every bit set in t is also set in s. The
// shorter set is treated as zero-padded (so any bit of t beyond s's length
// makes the answer false).
func (s *Set) ContainsAll(t *Set) bool {
	m := s.minWords(t)
	for i, w := range t.words[:m] {
		if w&^s.words[i] != 0 {
			return false
		}
	}
	for _, w := range t.words[m:] {
		if w != 0 {
			return false
		}
	}
	return true
}

// CountAnd returns the number of bits set in both s and t without
// materializing the intersection. The shorter set is treated as
// zero-padded.
func (s *Set) CountAnd(t *Set) int {
	c := 0
	for i := 0; i < s.minWords(t); i++ {
		c += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return c
}

// maxLen returns the larger logical length of the two sets.
func (s *Set) maxLen(t *Set) int {
	if s.n > t.n {
		return s.n
	}
	return t.n
}

// And returns a new set with the bits set in both s and t. The result has
// the longer of the two lengths; the shorter set is treated as zero-padded.
func (s *Set) And(t *Set) *Set {
	r := New(s.maxLen(t))
	for i := 0; i < s.minWords(t); i++ {
		r.words[i] = s.words[i] & t.words[i]
	}
	return r
}

// Or returns a new set with the bits set in either s or t. The result has
// the longer of the two lengths; the shorter set is treated as zero-padded.
func (s *Set) Or(t *Set) *Set {
	r := New(s.maxLen(t))
	m := s.minWords(t)
	for i := 0; i < m; i++ {
		r.words[i] = s.words[i] | t.words[i]
	}
	long := s.words
	if len(t.words) > len(long) {
		long = t.words
	}
	copy(r.words[m:], long[m:])
	return r
}

// AndNot returns a new set with the bits set in s but not in t. The result
// has the longer of the two lengths; the shorter set is treated as
// zero-padded.
func (s *Set) AndNot(t *Set) *Set {
	r := New(s.maxLen(t))
	m := s.minWords(t)
	for i := 0; i < m; i++ {
		r.words[i] = s.words[i] &^ t.words[i]
	}
	copy(r.words[m:], s.words[m:])
	return r
}

// AndWith sets s to the intersection of s and t, in place. A shorter t is
// zero-padded (s's tail is cleared); it panics if t is longer than s.
func (s *Set) AndWith(t *Set) {
	s.notLonger(t, "AndWith")
	dst := s.words[:len(t.words)]
	for i, w := range t.words {
		dst[i] &= w
	}
	clear(s.words[len(t.words):])
}

// OrWith sets s to the union of s and t, in place. A shorter t is
// zero-padded; it panics if t is longer than s.
func (s *Set) OrWith(t *Set) {
	s.notLonger(t, "OrWith")
	dst := s.words[:len(t.words)]
	for i, w := range t.words {
		dst[i] |= w
	}
}

// SetAll sets every bit in [0, Len).
func (s *Set) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim clears any bits above the logical length.
func (s *Set) trim() {
	if s.n%wordBits != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(s.n%wordBits)) - 1
	}
}

// Next returns the index of the first set bit at or after i, or -1 if none.
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// Indices returns the indices of all set bits, in increasing order.
func (s *Set) Indices() []int {
	return s.AppendIndices(make([]int, 0, s.Count()))
}

// AppendIndices appends the indices of all set bits to buf, in increasing
// order, and returns the extended slice. Passing a reused buffer (buf[:0])
// makes repeated index extraction allocation-free once the buffer has grown
// to the high-water mark.
func (s *Set) AppendIndices(buf []int) []int {
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			buf = append(buf, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return buf
}

// ForEachWord calls fn for every backing word of the set, in order. The
// index wi is the word's position: bit b of word wi is set-bit wi*64+b.
// It is the non-allocating building block for word-parallel consumers.
func (s *Set) ForEachWord(fn func(wi int, w uint64)) {
	for wi, w := range s.words {
		fn(wi, w)
	}
}

// CopyFrom overwrites s with the contents of t, in place. A shorter t is
// zero-padded (s's tail is cleared); it panics if t is longer than s.
func (s *Set) CopyFrom(t *Set) {
	s.notLonger(t, "CopyFrom")
	clear(s.words[copy(s.words, t.words):])
}

// AndNotWith clears every bit of s that is set in t, in place. A shorter t
// is zero-padded; it panics if t is longer than s.
func (s *Set) AndNotWith(t *Set) {
	s.notLonger(t, "AndNotWith")
	dst := s.words[:len(t.words)]
	for i, w := range t.words {
		dst[i] &^= w
	}
}

// SetAnd overwrites s with a ∧ b in one pass. All three sets must have the
// same length.
func (s *Set) SetAnd(a, b *Set) {
	s.sameLen(a, "SetAnd")
	s.sameLen(b, "SetAnd")
	for i := range s.words {
		s.words[i] = a.words[i] & b.words[i]
	}
}

// SetAndNotOr overwrites s with pos ∧ (¬neg ∨ rescue) in one pass: the
// word-parallel form of Definition 2.5's node rule, where rescue holds the
// endpoints of kept difference edges. All four sets must have the same
// length.
func (s *Set) SetAndNotOr(pos, neg, rescue *Set) {
	s.sameLen(pos, "SetAndNotOr")
	s.sameLen(neg, "SetAndNotOr")
	s.sameLen(rescue, "SetAndNotOr")
	for i := range s.words {
		s.words[i] = pos.words[i] & (^neg.words[i] | rescue.words[i])
	}
}

// ForEach calls fn for every set bit in increasing index order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &^= 1 << uint(b)
		}
	}
}

// String renders the set as a binary vector, least index first, matching the
// labeled-array representation of the paper (e.g. "1101").
func (s *Set) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		if s.Contains(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
