package bitset

import "fmt"

// FromWords returns a set of length n backed directly by words — no copy is
// made, so the caller must not mutate words afterwards. It is the aliasing
// constructor the snapshot reader uses to serve timestamps straight from
// the file's bytes. len(words) must be exactly ceil(n/64) and any bits
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

// WordIn returns backing word wi with the bits outside [lo, hi) cleared —
// the building block for consumers that shard a set by index range and read
// only the words of their shard.
func (s *Set) WordIn(wi, lo, hi int) uint64 {
	w := s.words[wi]
	if base := wi * wordBits; base < lo {
		w &= ^uint64(0) << uint(lo-base)
	}
	if rest := hi - wi*wordBits; rest < wordBits {
		w &= 1<<uint(rest) - 1
	}
	return w
}
