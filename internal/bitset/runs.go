package bitset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Vector is the read-only combinator contract shared by the dense Set and
// the run-length compressed Runs. Kernels that only scan a timestamp (agg
// accumulation, interval views, prefix-sum construction) accept a Vector so
// they can operate on whichever representation the density heuristic chose
// without materializing dense words. Mask arguments keep Set's zero-padded
// length-mismatch semantics; range arguments are half-open [lo, hi).
type Vector interface {
	Len() int
	Count() int
	IsEmpty() bool
	Contains(i int) bool
	Next(i int) int
	ForEach(fn func(i int))
	ForEachRun(fn func(lo, hi int))

	ContainsAll(t *Set) bool
	Intersects(t *Set) bool
	CountAnd(t *Set) int
	ForEachAnd(t *Set, fn func(i int))

	ContainsRange(lo, hi int) bool
	IntersectsRange(lo, hi int) bool
	CountRange(lo, hi int) int
	ForEachInRange(lo, hi int, fn func(i int))

	// Dense returns the dense form: the Set itself, or a materialized copy.
	Dense() *Set
	String() string
}

var (
	_ Vector = (*Set)(nil)
	_ Vector = (*Runs)(nil)
)

// Runs is a run-length compressed bitset: a sorted list of maximal runs of
// consecutive set bits. DBLP-like timestamps (an author active for 15
// consecutive snapshots, an edge alive for a whole interval) are dominated
// by a handful of runs, so scanning runs beats scanning one bit per time
// point exactly on the hot aggregation path. Runs is immutable after
// construction.
type Runs struct {
	n     int
	count int
	runs  []uint32 // flattened [start, end) pairs, strictly increasing, gaps ≥ 1
}

// RunsOf returns the run-length form of s unconditionally. Use Compress for
// the density-heuristic choice.
func RunsOf(s *Set) *Runs {
	r := &Runs{n: s.Len()}
	s.ForEachRun(func(lo, hi int) {
		r.runs = append(r.runs, uint32(lo), uint32(hi))
		r.count += hi - lo
	})
	return r
}

// Compress returns the run-length form of s at logical length n when the
// density heuristic says it pays off, or nil when the dense form should be
// kept. n is the length of the timeline s lives on: a set that was only
// grown while its entity kept appearing is shorter, and its missing tail
// reads as zero. A run costs 8 bytes (two uint32) against 8 bytes per
// 64-bit dense word, so compression wins asymptotically when there are
// fewer runs than words; requiring a 2x margin leaves the dense form in
// place when the indirection would buy little (in particular every vector
// on a timeline of ≤ 2 words stays dense — one popcount already beats any
// run walk there).
func Compress(s *Set, n int) *Runs {
	words := (n + wordBits - 1) / wordBits
	if words < 4 {
		return nil
	}
	if 2*s.NumRuns() > words {
		return nil
	}
	r := RunsOf(s)
	r.n = n
	return r
}

// NewRuns builds a Runs of length n from explicit [lo, hi) pairs, which
// must be sorted, non-overlapping, non-adjacent and within [0, n). It is a
// test constructor; production forms come from RunsOf/Compress/DecodeRuns.
func NewRuns(n int, pairs ...[2]int) *Runs {
	r := &Runs{n: n}
	prev := 0
	for i, p := range pairs {
		lo, hi := p[0], p[1]
		if lo >= hi || hi > n || (i > 0 && lo <= prev) || (i == 0 && lo < 0) {
			panic(fmt.Sprintf("bitset: invalid run [%d,%d) in NewRuns(%d)", lo, hi, n))
		}
		prev = hi
		r.runs = append(r.runs, uint32(lo), uint32(hi))
		r.count += hi - lo
	}
	return r
}

// Len reports the logical length of the vector.
func (r *Runs) Len() int { return r.n }

// Count returns the number of set bits.
func (r *Runs) Count() int { return r.count }

// IsEmpty reports whether no bit is set.
func (r *Runs) IsEmpty() bool { return r.count == 0 }

// NumRuns returns the number of runs.
func (r *Runs) NumRuns() int { return len(r.runs) / 2 }

// Run returns the i-th run as [lo, hi).
func (r *Runs) Run(i int) (lo, hi int) {
	return int(r.runs[2*i]), int(r.runs[2*i+1])
}

// SizeBytes returns the in-memory payload size of the run list, the number
// the density heuristic and TauStats compare against 8 bytes per dense
// word.
func (r *Runs) SizeBytes() int { return 4 * len(r.runs) }

// firstOverlapping returns the index of the first run with end > lo.
func (r *Runs) firstOverlapping(lo int) int {
	return sort.Search(r.NumRuns(), func(i int) bool { return int(r.runs[2*i+1]) > lo })
}

// Contains reports whether bit i is set. Indices at or beyond Len report
// false (zero-padding); negative indices panic.
func (r *Runs) Contains(i int) bool {
	if i < 0 {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, r.n))
	}
	k := r.firstOverlapping(i)
	return k < r.NumRuns() && int(r.runs[2*k]) <= i
}

// Next returns the index of the first set bit at or after i, or -1 if none.
func (r *Runs) Next(i int) int {
	if i < 0 {
		i = 0
	}
	k := r.firstOverlapping(i)
	if k == r.NumRuns() {
		return -1
	}
	if lo := int(r.runs[2*k]); lo > i {
		return lo
	}
	return i
}

// ForEach calls fn for every set bit in increasing index order.
func (r *Runs) ForEach(fn func(i int)) {
	for k := 0; k < len(r.runs); k += 2 {
		for i := int(r.runs[k]); i < int(r.runs[k+1]); i++ {
			fn(i)
		}
	}
}

// ForEachRun calls fn for every maximal run [lo, hi), in increasing order.
func (r *Runs) ForEachRun(fn func(lo, hi int)) {
	for k := 0; k < len(r.runs); k += 2 {
		fn(int(r.runs[k]), int(r.runs[k+1]))
	}
}

// ContainsAll reports whether every bit set in t is also set in r, under
// Set's zero-padded semantics: t must have no bit in any gap of r,
// including beyond r's last run.
func (r *Runs) ContainsAll(t *Set) bool {
	prev := 0
	for k := 0; k < len(r.runs); k += 2 {
		if t.IntersectsRange(prev, int(r.runs[k])) {
			return false
		}
		prev = int(r.runs[k+1])
	}
	return !t.IntersectsRange(prev, t.Len())
}

// Intersects reports whether r and t share at least one set bit.
func (r *Runs) Intersects(t *Set) bool {
	for k := 0; k < len(r.runs); k += 2 {
		if t.IntersectsRange(int(r.runs[k]), int(r.runs[k+1])) {
			return true
		}
	}
	return false
}

// CountAnd returns |r ∧ t| without materializing either intersection.
func (r *Runs) CountAnd(t *Set) int {
	c := 0
	for k := 0; k < len(r.runs); k += 2 {
		c += t.CountRange(int(r.runs[k]), int(r.runs[k+1]))
	}
	return c
}

// ForEachAnd calls fn for every index set in both r and t, in increasing
// order.
func (r *Runs) ForEachAnd(t *Set, fn func(i int)) {
	for k := 0; k < len(r.runs); k += 2 {
		t.ForEachInRange(int(r.runs[k]), int(r.runs[k+1]), fn)
	}
}

// ContainsRange reports whether every bit in [lo, hi) is set: some single
// run must cover the whole range.
func (r *Runs) ContainsRange(lo, hi int) bool {
	if lo >= hi {
		if lo < 0 {
			panic(fmt.Sprintf("bitset: negative range start %d", lo))
		}
		return true
	}
	k := r.firstOverlapping(lo)
	return k < r.NumRuns() && int(r.runs[2*k]) <= lo && int(r.runs[2*k+1]) >= hi
}

// IntersectsRange reports whether any bit in [lo, hi) is set.
func (r *Runs) IntersectsRange(lo, hi int) bool {
	if lo < 0 {
		panic(fmt.Sprintf("bitset: negative range start %d", lo))
	}
	if lo >= hi {
		return false
	}
	k := r.firstOverlapping(lo)
	return k < r.NumRuns() && int(r.runs[2*k]) < hi
}

// CountRange returns the number of set bits in [lo, hi) in O(log runs +
// overlapping runs) — the compressed-form replacement for a dense popcount
// scan.
func (r *Runs) CountRange(lo, hi int) int {
	if lo < 0 {
		panic(fmt.Sprintf("bitset: negative range start %d", lo))
	}
	c := 0
	for k := r.firstOverlapping(lo); k < r.NumRuns(); k++ {
		a, b := int(r.runs[2*k]), int(r.runs[2*k+1])
		if a >= hi {
			break
		}
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		c += b - a
	}
	return c
}

// ForEachInRange calls fn for every set bit in [lo, hi), in increasing
// order.
func (r *Runs) ForEachInRange(lo, hi int, fn func(i int)) {
	if lo < 0 {
		panic(fmt.Sprintf("bitset: negative range start %d", lo))
	}
	for k := r.firstOverlapping(lo); k < r.NumRuns(); k++ {
		a, b := int(r.runs[2*k]), int(r.runs[2*k+1])
		if a >= hi {
			return
		}
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		for i := a; i < b; i++ {
			fn(i)
		}
	}
}

// Dense materializes the dense form.
func (r *Runs) Dense() *Set {
	s := New(r.n)
	for k := 0; k < len(r.runs); k += 2 {
		for i := int(r.runs[k]); i < int(r.runs[k+1]); i++ {
			s.Add(i)
		}
	}
	return s
}

// String renders the vector as a binary vector, least index first,
// identical to Set.String on the same contents.
func (r *Runs) String() string {
	var b strings.Builder
	b.Grow(r.n)
	prev := 0
	for k := 0; k < len(r.runs); k += 2 {
		for i := prev; i < int(r.runs[k]); i++ {
			b.WriteByte('0')
		}
		for i := int(r.runs[k]); i < int(r.runs[k+1]); i++ {
			b.WriteByte('1')
		}
		prev = int(r.runs[k+1])
	}
	for i := prev; i < r.n; i++ {
		b.WriteByte('0')
	}
	return b.String()
}

// ErrCorrupt reports a malformed run encoding. DecodeRuns wraps it in
// every error it returns, so callers can errors.Is against it, matching
// the storage package's corruption conventions.
var ErrCorrupt = errors.New("bitset: corrupt run encoding")

// AppendBinary appends the canonical binary encoding of r to buf and
// returns the extended slice. The layout is:
//
//	uvarint n          logical length in bits
//	uvarint numRuns
//	numRuns × (uvarint gap, uvarint length-1)
//
// where gap is the distance from the previous run's end (zero is legal
// only for the first run) and lengths are at least one. The delta form
// keeps run-heavy vectors to ~2 bytes per run.
func (r *Runs) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.n))
	buf = binary.AppendUvarint(buf, uint64(r.NumRuns()))
	prev := 0
	for k := 0; k < len(r.runs); k += 2 {
		lo, hi := int(r.runs[k]), int(r.runs[k+1])
		buf = binary.AppendUvarint(buf, uint64(lo-prev))
		buf = binary.AppendUvarint(buf, uint64(hi-lo-1))
		prev = hi
	}
	return buf
}

// DecodeRuns decodes one AppendBinary encoding from the front of data,
// returning the vector and the number of bytes consumed. Corrupt input —
// truncation, non-canonical gaps, runs past the length, implausible run
// counts — returns an error wrapping ErrCorrupt and never panics.
func DecodeRuns(data []byte) (*Runs, int, error) {
	off := 0
	uv := func(what string) (uint64, error) {
		v, k := binary.Uvarint(data[off:])
		if k <= 0 {
			return 0, fmt.Errorf("%w: truncated %s at byte %d", ErrCorrupt, what, off)
		}
		off += k
		return v, nil
	}
	un, err := uv("length")
	if err != nil {
		return nil, 0, err
	}
	const maxBits = 1 << 40 // far above any timeline; rejects nonsense lengths
	if un > maxBits {
		return nil, 0, fmt.Errorf("%w: implausible length %d", ErrCorrupt, un)
	}
	n := int(un)
	numRuns, err := uv("run count")
	if err != nil {
		return nil, 0, err
	}
	// Runs are non-empty and separated by gaps ≥ 1, so at most (n+1)/2 fit.
	if numRuns > uint64(n+1)/2 {
		return nil, 0, fmt.Errorf("%w: %d runs cannot fit in %d bits", ErrCorrupt, numRuns, n)
	}
	r := &Runs{n: n, runs: make([]uint32, 0, 2*numRuns)}
	prev := 0
	for i := uint64(0); i < numRuns; i++ {
		gap, err := uv("gap")
		if err != nil {
			return nil, 0, err
		}
		length, err := uv("run length")
		if err != nil {
			return nil, 0, err
		}
		if i > 0 && gap == 0 {
			return nil, 0, fmt.Errorf("%w: adjacent runs not merged at run %d", ErrCorrupt, i)
		}
		lo := uint64(prev) + gap
		hi := lo + length + 1
		if hi > uint64(n) {
			return nil, 0, fmt.Errorf("%w: run %d ends at %d past length %d", ErrCorrupt, i, hi, n)
		}
		r.runs = append(r.runs, uint32(lo), uint32(hi))
		r.count += int(hi - lo)
		prev = int(hi)
	}
	return r, off, nil
}
