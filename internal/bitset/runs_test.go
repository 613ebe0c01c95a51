package bitset_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// randomSet draws a set of length n whose bits form runs: run-heavy with
// probability ½ (the DBLP-like shape), uniform-random otherwise, plus the
// all-empty and all-full corners.
func randomSet(rng *rand.Rand, n int) *bitset.Set {
	s := bitset.New(n)
	switch rng.Intn(6) {
	case 0: // empty
	case 1: // full
		s.SetAll()
	case 2, 3: // run-heavy: a few contiguous spans
		for k := 0; k < 1+rng.Intn(4); k++ {
			if n == 0 {
				break
			}
			lo := rng.Intn(n)
			hi := lo + 1 + rng.Intn(n-lo)
			for i := lo; i < hi; i++ {
				s.Add(i)
			}
		}
	default: // uniform
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				s.Add(i)
			}
		}
	}
	return s
}

// TestRunsEquivalence is the property suite of satellite 1: every Vector
// combinator on the compressed form must agree with the dense Set,
// including across the zero-padded length-mismatch semantics (masks both
// shorter and longer than the vector).
func TestRunsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := []int{0, 1, 63, 64, 65, 128, 200, 512, 1000}
	for trial := 0; trial < 300; trial++ {
		n := lengths[rng.Intn(len(lengths))]
		s := randomSet(rng, n)
		r := bitset.RunsOf(s)

		if r.Len() != s.Len() || r.Count() != s.Count() || r.IsEmpty() != s.IsEmpty() {
			t.Fatalf("n=%d: Len/Count/IsEmpty diverge: runs(%d,%d) dense(%d,%d)",
				n, r.Len(), r.Count(), s.Len(), s.Count())
		}
		if r.String() != s.String() {
			t.Fatalf("n=%d: String diverges\nruns:  %s\ndense: %s", n, r, s)
		}
		if !r.Dense().Equal(s) {
			t.Fatalf("n=%d: Dense round-trip diverges", n)
		}
		if r.NumRuns() != s.NumRuns() {
			t.Fatalf("n=%d: NumRuns %d (runs) vs %d (dense)", n, r.NumRuns(), s.NumRuns())
		}

		for _, i := range []int{0, 1, n / 2, n - 1, n, n + 10} {
			if i < 0 {
				continue
			}
			if r.Contains(i) != s.Contains(i) {
				t.Fatalf("n=%d: Contains(%d) diverges", n, i)
			}
			if r.Next(i) != s.Next(i) {
				t.Fatalf("n=%d: Next(%d): runs %d dense %d", n, i, r.Next(i), s.Next(i))
			}
		}

		var a, b []int
		r.ForEach(func(i int) { a = append(a, i) })
		s.ForEach(func(i int) { b = append(b, i) })
		if !equalInts(a, b) {
			t.Fatalf("n=%d: ForEach diverges: %v vs %v", n, a, b)
		}
		var ra, rb [][2]int
		r.ForEachRun(func(lo, hi int) { ra = append(ra, [2]int{lo, hi}) })
		s.ForEachRun(func(lo, hi int) { rb = append(rb, [2]int{lo, hi}) })
		if len(ra) != len(rb) {
			t.Fatalf("n=%d: ForEachRun diverges: %v vs %v", n, ra, rb)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("n=%d: ForEachRun diverges at %d: %v vs %v", n, i, ra, rb)
			}
		}

		// Mask combinators under length mismatch in both directions.
		for _, mn := range []int{n / 2, n, n + 70} {
			mask := randomSet(rng, mn)
			if r.ContainsAll(mask) != s.ContainsAll(mask) {
				t.Fatalf("n=%d mask=%d: ContainsAll diverges\nvec:  %s\nmask: %s", n, mn, s, mask)
			}
			if r.Intersects(mask) != s.Intersects(mask) {
				t.Fatalf("n=%d mask=%d: Intersects diverges", n, mn)
			}
			if r.CountAnd(mask) != s.CountAnd(mask) {
				t.Fatalf("n=%d mask=%d: CountAnd: runs %d dense %d", n, mn, r.CountAnd(mask), s.CountAnd(mask))
			}
			var fa, fb []int
			r.ForEachAnd(mask, func(i int) { fa = append(fa, i) })
			s.ForEachAnd(mask, func(i int) { fb = append(fb, i) })
			if !equalInts(fa, fb) {
				t.Fatalf("n=%d mask=%d: ForEachAnd diverges: %v vs %v", n, mn, fa, fb)
			}
			// And/Or/AndNot on the dense forms must agree with Dense()
			// round-tripping (the compressed type is read-only; its
			// materialized form must be combinator-compatible).
			if !r.Dense().And(mask).Equal(s.And(mask)) ||
				!r.Dense().Or(mask).Equal(s.Or(mask)) ||
				!r.Dense().AndNot(mask).Equal(s.AndNot(mask)) {
				t.Fatalf("n=%d mask=%d: And/Or/AndNot via Dense diverge", n, mn)
			}
		}

		// Range forms, including ranges past the logical length.
		for trial := 0; trial < 8; trial++ {
			lo := rng.Intn(n + 2)
			hi := lo + rng.Intn(n+2-lo)
			if r.ContainsRange(lo, hi) != s.ContainsRange(lo, hi) {
				t.Fatalf("n=%d: ContainsRange(%d,%d) diverges on %s", n, lo, hi, s)
			}
			if r.IntersectsRange(lo, hi) != s.IntersectsRange(lo, hi) {
				t.Fatalf("n=%d: IntersectsRange(%d,%d) diverges on %s", n, lo, hi, s)
			}
			if r.CountRange(lo, hi) != s.CountRange(lo, hi) {
				t.Fatalf("n=%d: CountRange(%d,%d): runs %d dense %d on %s",
					n, lo, hi, r.CountRange(lo, hi), s.CountRange(lo, hi), s)
			}
			var fa, fb []int
			r.ForEachInRange(lo, hi, func(i int) { fa = append(fa, i) })
			s.ForEachInRange(lo, hi, func(i int) { fb = append(fb, i) })
			if !equalInts(fa, fb) {
				t.Fatalf("n=%d: ForEachInRange(%d,%d) diverges: %v vs %v", n, lo, hi, fa, fb)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRunsCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(600)
		s := randomSet(rng, n)
		r := bitset.RunsOf(s)
		buf := r.AppendBinary([]byte("prefix")[len("prefix"):])
		// Appending trailing garbage must not confuse the consumed count.
		wire := append(append([]byte(nil), buf...), 0xde, 0xad)
		got, used, err := bitset.DecodeRuns(wire)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if used != len(buf) {
			t.Fatalf("consumed %d bytes, want %d", used, len(buf))
		}
		if got.String() != s.String() {
			t.Fatalf("round trip diverges:\n got %s\nwant %s", got, s)
		}
	}
}

func TestDecodeRunsCorrupt(t *testing.T) {
	valid := bitset.RunsOf(bitset.FromIndices(100, 1, 2, 3, 40, 41, 90)).AppendBinary(nil)
	cases := map[string][]byte{
		"empty":              {},
		"truncated mid-run":  valid[:len(valid)-1],
		"count over cap":     {10, 200, 1},        // n=10, 200 runs
		"adjacent runs":      {20, 2, 1, 2, 0, 2}, // second gap 0
		"end past length":    {4, 1, 0, 10},       // run [0,11) in n=4
		"implausible length": append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, 0),
	}
	for name, data := range cases {
		if _, _, err := bitset.DecodeRuns(data); !errors.Is(err, bitset.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestCompressHeuristic pins the density choice: short timelines and
// fragmented vectors stay dense, long run-dominated vectors compress.
func TestCompressHeuristic(t *testing.T) {
	short := bitset.New(64)
	short.SetAll()
	if bitset.Compress(short, short.Len()) != nil {
		t.Errorf("64-bit vector should stay dense")
	}
	long := bitset.New(1024)
	for i := 100; i < 900; i++ {
		long.Add(i)
	}
	r := bitset.Compress(long, long.Len())
	if r == nil {
		t.Fatalf("single 800-bit run over 1024 bits should compress")
	}
	if r.SizeBytes() >= 8*long.NumWords() {
		t.Errorf("compressed %d bytes not smaller than dense %d", r.SizeBytes(), 8*long.NumWords())
	}
	frag := bitset.New(1024)
	for i := 0; i < 1024; i += 2 {
		frag.Add(i)
	}
	if bitset.Compress(frag, frag.Len()) != nil {
		t.Errorf("alternating vector should stay dense")
	}
	// A set that stopped growing before the timeline did compresses at the
	// timeline's length; its missing tail reads as zero.
	grown := bitset.New(260)
	grown.SetAll()
	if r := bitset.Compress(grown, 300); r == nil || r.Len() != 300 || r.Count() != 260 || r.Contains(260) {
		t.Errorf("260-bit run at logical length 300 compressed to %v", r)
	}
}

func TestFromWords(t *testing.T) {
	words := []uint64{0b1011, 1}
	s := bitset.FromWords(70, words)
	if s.Len() != 70 || !s.Contains(0) || s.Contains(2) || !s.Contains(64) {
		t.Fatalf("FromWords aliasing wrong: %s", s)
	}
	want := bitset.FromIndices(70, 0, 1, 3, 64)
	if !s.Equal(want) {
		t.Fatalf("FromWords = %s, want %s", s, want)
	}
}
