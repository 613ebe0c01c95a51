package bitset

import (
	"fmt"
	"math/bits"
)

// FromWords returns a set of length n backed directly by words — no copy is
// made, so the caller must not mutate words afterwards. It is the aliasing
// constructor the mmap snapshot reader uses to serve timestamps straight
// from a file mapping. len(words) must be exactly ceil(n/64) and any bits
// at or beyond n must be zero (callers that cannot guarantee the latter
// should validate the last word themselves; all combinators assume it).
func FromWords(n int, words []uint64) *Set {
	if n < 0 || len(words) != (n+wordBits-1)/wordBits {
		panic(fmt.Sprintf("bitset: FromWords(%d) with %d words", n, len(words)))
	}
	return &Set{words: words, n: n}
}

// Word returns backing word wi. Bit b of word wi is set-bit wi*64+b.
func (s *Set) Word(wi int) uint64 { return s.words[wi] }

// NumWords returns the number of backing words.
func (s *Set) NumWords() int { return len(s.words) }

// clampHi clamps hi to the logical length and panics on a negative lo,
// mirroring Contains' treatment of out-of-range indices.
func (s *Set) clampHi(lo, hi int) int {
	if lo < 0 {
		panic(fmt.Sprintf("bitset: negative range start %d", lo))
	}
	if hi > s.n {
		return s.n
	}
	return hi
}

// CountRange returns the number of set bits in [lo, hi). Bits at or beyond
// Len count as zero.
func (s *Set) CountRange(lo, hi int) int {
	hi = s.clampHi(lo, hi)
	if lo >= hi {
		return 0
	}
	wlo, whi := lo/wordBits, (hi-1)/wordBits
	first := ^uint64(0) << uint(lo%wordBits)
	last := ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	if wlo == whi {
		return bits.OnesCount64(s.words[wlo] & first & last)
	}
	c := bits.OnesCount64(s.words[wlo] & first)
	for wi := wlo + 1; wi < whi; wi++ {
		c += bits.OnesCount64(s.words[wi])
	}
	return c + bits.OnesCount64(s.words[whi]&last)
}

// ContainsRange reports whether every bit in [lo, hi) is set. An empty
// range is contained; a range extending past Len is not (zero-padding).
func (s *Set) ContainsRange(lo, hi int) bool {
	if lo >= hi {
		if lo < 0 {
			s.clampHi(lo, hi)
		}
		return true
	}
	if hi > s.n {
		return false
	}
	return s.CountRange(lo, hi) == hi-lo
}

// IntersectsRange reports whether any bit in [lo, hi) is set.
func (s *Set) IntersectsRange(lo, hi int) bool {
	hi = s.clampHi(lo, hi)
	if lo >= hi {
		return false
	}
	i := s.Next(lo)
	return i >= 0 && i < hi
}

// ForEachInRange calls fn for every set bit in [lo, hi), in increasing
// order.
func (s *Set) ForEachInRange(lo, hi int, fn func(i int)) {
	hi = s.clampHi(lo, hi)
	for i := s.Next(lo); i >= 0 && i < hi; i = s.Next(i + 1) {
		fn(i)
	}
}

// nextClear returns the index of the first clear bit at or after i, where
// every index at or beyond Len counts as clear.
func (s *Set) nextClear(i int) int {
	if i < 0 {
		i = 0
	}
	for i < s.n {
		w := ^s.words[i/wordBits] >> uint(i%wordBits)
		if w != 0 {
			j := i + bits.TrailingZeros64(w)
			if j > s.n {
				j = s.n
			}
			return j
		}
		i = (i/wordBits + 1) * wordBits
	}
	return s.n
}

// ForEachRun calls fn for every maximal run [lo, hi) of consecutive set
// bits, in increasing order — what a diff-array consumer (the static
// per-point builder of package materialize) needs instead of single bits.
func (s *Set) ForEachRun(fn func(lo, hi int)) {
	for i := s.Next(0); i >= 0; {
		j := s.nextClear(i)
		fn(i, j)
		if j >= s.n {
			return
		}
		i = s.Next(j)
	}
}
