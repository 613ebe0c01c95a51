package bitset

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	if !s.IsEmpty() {
		t.Fatal("new set should be empty")
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Fatalf("bit %d set before Add", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("bit %d not set after Add", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("bit 64 still set after Remove")
	}
	if s.Count() != 7 {
		t.Fatalf("Count = %d, want 7", s.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	New(10).Add(10)
}

func TestLengthMismatchPanicsInPlace(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched lengths")
		}
	}()
	// The in-place operations reject a longer operand; a shorter one is
	// zero-padded (TestInPlaceZeroPadding).
	New(10).OrWith(New(11))
}

// TestInPlaceZeroPadding pins the one direction in which the in-place
// combinators pad: an operand frozen at an earlier length (a point-index
// column from before the id space grew) acts as its zero-padded extension,
// and an operand longer than the receiver panics.
func TestInPlaceZeroPadding(t *testing.T) {
	const n = 130 // three words, so the cleared tail spans a whole word and a partial one
	recv := func() *Set { return FromIndices(n, 0, 2, 63, 64, 70, 129) }
	short := FromIndices(67, 2, 5, 64, 66)
	ops := []struct {
		name  string
		apply func(s, t *Set)
		want  []int // recv() op short-zero-padded
	}{
		{"OrWith", (*Set).OrWith, []int{0, 2, 5, 63, 64, 66, 70, 129}},
		{"AndWith", (*Set).AndWith, []int{2, 64}},
		{"AndNotWith", (*Set).AndNotWith, []int{0, 63, 70, 129}},
		{"CopyFrom", (*Set).CopyFrom, []int{2, 5, 64, 66}},
	}
	for _, op := range ops {
		got := recv()
		op.apply(got, short)
		if got.Len() != n || !got.Equal(FromIndices(n, op.want...)) {
			t.Errorf("%s with a shorter operand = %v, want %v", op.name, got.Indices(), op.want)
		}
		padded := recv()
		op.apply(padded, short.CloneGrow(n))
		if !got.Equal(padded) {
			t.Errorf("%s: shorter operand %v != its padded form %v", op.name, got.Indices(), padded.Indices())
		}
		empty, zeros := recv(), recv()
		op.apply(empty, New(0))
		op.apply(zeros, New(n))
		if !empty.Equal(zeros) {
			t.Errorf("%s with a zero-length operand = %v, want %v", op.name, empty.Indices(), zeros.Indices())
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a longer operand should panic", op.name)
				}
			}()
			op.apply(New(10), New(11)) // same word count: the check is on length, not words
		}()
	}
	// The three-operand forms have no frozen-column consumer and stay strict
	// in both directions.
	for name, fn := range map[string]func(){
		"SetAnd shorter":      func() { New(n).SetAnd(New(n), short) },
		"SetAnd longer":       func() { New(10).SetAnd(New(10), New(11)) },
		"SetAndNotOr shorter": func() { New(n).SetAndNotOr(New(n), short, New(n)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestZeroPadSemantics pins the append-only timeline contract: a set frozen
// at an earlier length behaves exactly like its zero-padded extension under
// every read-only combinator.
func TestZeroPadSemantics(t *testing.T) {
	short := FromIndices(3, 0, 2)  // timestamp frozen when the timeline had 3 points
	padded := FromIndices(8, 0, 2) // the same timestamp on the grown timeline
	long := FromIndices(8, 2, 5, 7)

	if short.Contains(5) || short.Contains(200) {
		t.Error("Contains beyond Len should report false")
	}
	if !short.Equal(padded) || !padded.Equal(short) {
		t.Error("Equal should ignore trailing zeros")
	}
	if short.Equal(long) {
		t.Error("Equal must still compare content")
	}
	for name, pair := range map[string][2]*Set{"short-long": {short, long}, "long-short": {long, short}} {
		a, b := pair[0], pair[1]
		if got, want := a.Intersects(b), true; got != want {
			t.Errorf("%s: Intersects = %v, want %v", name, got, want)
		}
		if got, want := a.CountAnd(b), 1; got != want {
			t.Errorf("%s: CountAnd = %d, want %d", name, got, want)
		}
		if got := a.And(b); got.Len() != 8 || !got.Equal(FromIndices(8, 2)) {
			t.Errorf("%s: And = %v", name, got.Indices())
		}
	}
	if got := short.Or(long); got.Len() != 8 || !got.Equal(FromIndices(8, 0, 2, 5, 7)) {
		t.Errorf("short∨long = %v", got.Indices())
	}
	if got := long.Or(short); !got.Equal(FromIndices(8, 0, 2, 5, 7)) {
		t.Errorf("long∨short = %v", got.Indices())
	}
	if got := short.AndNot(long); !got.Equal(FromIndices(8, 0)) {
		t.Errorf("short∖long = %v", got.Indices())
	}
	if got := long.AndNot(short); !got.Equal(FromIndices(8, 5, 7)) {
		t.Errorf("long∖short = %v", got.Indices())
	}
	if !long.ContainsAll(FromIndices(2)) {
		t.Error("ContainsAll of an empty shorter set should hold")
	}
	if long.ContainsAll(short) {
		t.Error("ContainsAll must still compare content (bit 0 missing)")
	}
	if FromIndices(3, 0, 2).ContainsAll(FromIndices(8, 0, 7)) {
		t.Error("a bit beyond the receiver's length is not contained")
	}
	grown := short.CloneGrow(8)
	if grown.Len() != 8 || !grown.Equal(short) {
		t.Errorf("CloneGrow = len %d, bits %v", grown.Len(), grown.Indices())
	}
	grown.Add(7) // must not alias the original
	if short.Contains(7) {
		t.Error("CloneGrow aliases its source")
	}
}

func TestFromIndices(t *testing.T) {
	s := FromIndices(10, 1, 3, 7)
	want := []int{1, 3, 7}
	got := s.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
}

func TestSetOps(t *testing.T) {
	a := FromIndices(8, 0, 1, 2, 5)
	b := FromIndices(8, 1, 2, 3, 6)

	if got := a.And(b).Indices(); !equalInts(got, []int{1, 2}) {
		t.Errorf("And = %v, want [1 2]", got)
	}
	if got := a.Or(b).Indices(); !equalInts(got, []int{0, 1, 2, 3, 5, 6}) {
		t.Errorf("Or = %v, want [0 1 2 3 5 6]", got)
	}
	if got := a.AndNot(b).Indices(); !equalInts(got, []int{0, 5}) {
		t.Errorf("AndNot = %v, want [0 5]", got)
	}
	if !a.Intersects(b) {
		t.Error("Intersects = false, want true")
	}
	if a.ContainsAll(b) {
		t.Error("ContainsAll = true, want false")
	}
	if !a.Or(b).ContainsAll(a) {
		t.Error("union should contain a")
	}
	if got := a.CountAnd(b); got != 2 {
		t.Errorf("CountAnd = %d, want 2", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromIndices(8, 0, 1, 5)
	b := FromIndices(8, 1, 5, 7)
	c := a.Clone()
	c.AndWith(b)
	if !c.Equal(a.And(b)) {
		t.Error("AndWith disagrees with And")
	}
	d := a.Clone()
	d.OrWith(b)
	if !d.Equal(a.Or(b)) {
		t.Error("OrWith disagrees with Or")
	}
}

func TestSetAll(t *testing.T) {
	s := New(70)
	s.SetAll()
	if s.Count() != 70 {
		t.Fatalf("Count after SetAll = %d, want 70", s.Count())
	}
}

func TestNext(t *testing.T) {
	s := FromIndices(200, 3, 64, 199)
	cases := []struct{ from, want int }{
		{0, 3}, {3, 3}, {4, 64}, {64, 64}, {65, 199}, {199, 199}, {-5, 3},
	}
	for _, c := range cases {
		if got := s.Next(c.from); got != c.want {
			t.Errorf("Next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := s.Next(200); got != -1 {
		t.Errorf("Next past end = %d, want -1", got)
	}
	if got := New(10).Next(0); got != -1 {
		t.Errorf("Next on empty = %d, want -1", got)
	}
}

func TestForEachMatchesIndices(t *testing.T) {
	s := FromIndices(150, 0, 9, 63, 64, 100, 149)
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if !equalInts(got, s.Indices()) {
		t.Fatalf("ForEach = %v, Indices = %v", got, s.Indices())
	}
}

func TestString(t *testing.T) {
	s := FromIndices(4, 0, 2)
	if s.String() != "1010" {
		t.Fatalf("String = %q, want 1010", s.String())
	}
}

// randomSet builds a reproducible random set for property tests.
func randomSet(r *rand.Rand, n int) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			s.Add(i)
		}
	}
	return s
}

func TestQuickDeMorgan(t *testing.T) {
	// |A ∪ B| = |A| + |B| - |A ∩ B|, and AndNot(A,B) = A ∩ complement(B).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, b := randomSet(r, n), randomSet(r, n)
		if a.Or(b).Count() != a.Count()+b.Count()-a.And(b).Count() {
			return false
		}
		if a.AndNot(b).Count() != a.Count()-a.And(b).Count() {
			return false
		}
		return a.CountAnd(b) == a.And(b).Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAlgebra(t *testing.T) {
	// Commutativity, associativity, idempotence of And/Or.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, b, c := randomSet(r, n), randomSet(r, n), randomSet(r, n)
		return a.And(b).Equal(b.And(a)) &&
			a.Or(b).Equal(b.Or(a)) &&
			a.And(b).And(c).Equal(a.And(b.And(c))) &&
			a.Or(b).Or(c).Equal(a.Or(b.Or(c))) &&
			a.And(a).Equal(a) && a.Or(a).Equal(a) &&
			a.And(a.Or(b)).Equal(a) && a.Or(a.And(b)).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	// FromIndices(Indices(s)) == s.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		s := randomSet(r, n)
		return FromIndices(n, s.Indices()...).Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
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

func TestAppendIndicesMatchesIndices(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		s := New(n)
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				s.Add(i)
			}
		}
		want := s.Indices()
		buf := make([]int, 0, 4)
		got := s.AppendIndices(buf[:0])
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		// Appending after existing content must preserve it.
		pre := s.AppendIndices([]int{-7})
		return len(pre) == len(want)+1 && pre[0] == -7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForEachWordCoversAllBits(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 63, 64, 100, 129} {
		s.Add(i)
	}
	rebuilt := New(130)
	s.ForEachWord(func(wi int, w uint64) {
		for b := 0; b < wordBits; b++ {
			if w&(1<<uint(b)) != 0 {
				rebuilt.Add(wi*wordBits + b)
			}
		}
	})
	if !rebuilt.Equal(s) {
		t.Fatalf("ForEachWord rebuild = %v, want %v", rebuilt, s)
	}
}

func TestInPlaceCombinators(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		mk := func() *Set {
			s := New(n)
			for i := 0; i < n; i++ {
				if r.Intn(2) == 0 {
					s.Add(i)
				}
			}
			return s
		}
		pos, neg, rescue := mk(), mk(), mk()

		cp := New(n)
		cp.CopyFrom(pos)
		if !cp.Equal(pos) {
			return false
		}

		anw := pos.Clone()
		anw.AndNotWith(neg)
		if !anw.Equal(pos.AndNot(neg)) {
			return false
		}

		sa := New(n)
		sa.SetAnd(pos, neg)
		if !sa.Equal(pos.And(neg)) {
			return false
		}

		// SetAndNotOr == pos ∧ (¬neg ∨ rescue) == (pos ∧ ¬neg) ∨ (pos ∧ rescue)
		dk := New(n)
		dk.SetAndNotOr(pos, neg, rescue)
		want := pos.AndNot(neg).Or(pos.And(rescue))
		return dk.Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkIndicesVsAppend measures the allocation the reusable-buffer
// iteration removes from hot loops.
func BenchmarkIndicesVsAppend(b *testing.B) {
	s := New(4096)
	for i := 0; i < 4096; i += 3 {
		s.Add(i)
	}
	b.Run("Indices", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.Indices()
		}
	})
	b.Run("AppendIndices", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]int, 0, s.Count())
		for i := 0; i < b.N; i++ {
			buf = s.AppendIndices(buf[:0])
		}
	})
}

func TestFromWords(t *testing.T) {
	words := []uint64{0b1011, 1}
	s := FromWords(70, words)
	if s.Len() != 70 || !s.Contains(0) || s.Contains(2) || !s.Contains(64) {
		t.Fatalf("FromWords aliasing wrong: %s", s)
	}
	want := FromIndices(70, 0, 1, 3, 64)
	if !s.Equal(want) {
		t.Fatalf("FromWords = %s, want %s", s, want)
	}
}

// TestRangeOpsMatchMaskOps pins the half-open range operations to
// the mask forms over a mask holding exactly [lo, hi), on empty, full,
// run-heavy and uniform sets of one to several words, including ranges past
// Len (which read as zero).
func TestRangeOpsMatchMaskOps(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	lengths := []int{0, 1, 63, 64, 65, 128, 200, 512, 1000}
	for trial := 0; trial < 300; trial++ {
		n := lengths[r.Intn(len(lengths))]
		s := New(n)
		switch r.Intn(6) {
		case 0: // empty
		case 1:
			s.SetAll()
		case 2, 3: // a few contiguous spans
			for k := 0; n > 0 && k < 1+r.Intn(4); k++ {
				lo := r.Intn(n)
				for i, hi := lo, lo+1+r.Intn(n-lo); i < hi; i++ {
					s.Add(i)
				}
			}
		default:
			for i := 0; i < n; i++ {
				if r.Intn(3) == 0 {
					s.Add(i)
				}
			}
		}

		for k := 0; k < 8; k++ {
			lo := r.Intn(n + 2)
			hi := lo + r.Intn(n+2-lo)
			mask := New(hi)
			for i := lo; i < hi; i++ {
				mask.Add(i)
			}
			var got []int
			for wi := lo / wordBits; wi*wordBits < min(hi, n); wi++ {
				for w := s.WordIn(wi, lo, hi); w != 0; w &= w - 1 {
					got = append(got, wi*wordBits+bits.TrailingZeros64(w))
				}
			}
			if want := s.And(mask).Indices(); !equalInts(got, want) {
				t.Fatalf("n=%d: WordIn over [%d,%d) = %v, And(mask) = %v", n, lo, hi, got, want)
			}
		}
	}
}
