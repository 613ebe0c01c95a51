package timeline

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func tl3(t *testing.T) *Timeline {
	t.Helper()
	return MustNew("t0", "t1", "t2")
}

func TestNewErrors(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("New() with no labels should fail")
	}
	if _, err := New("a", ""); err == nil {
		t.Error("New with empty label should fail")
	}
	if _, err := New("a", "a"); err == nil {
		t.Error("New with duplicate labels should fail")
	}
}

func TestLookup(t *testing.T) {
	tl := tl3(t)
	if tl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tl.Len())
	}
	if tl.Label(1) != "t1" {
		t.Errorf("Label(1) = %q, want t1", tl.Label(1))
	}
	tp, ok := tl.TimeOf("t2")
	if !ok || tp != 2 {
		t.Errorf("TimeOf(t2) = %d,%v, want 2,true", tp, ok)
	}
	if _, ok := tl.TimeOf("nope"); ok {
		t.Error("TimeOf(nope) should not be found")
	}
}

func TestPointRangeAll(t *testing.T) {
	tl := tl3(t)
	p := tl.Point(1)
	if p.Len() != 1 || !p.Contains(1) || p.Contains(0) {
		t.Errorf("Point(1) wrong: %v", p)
	}
	r := tl.Range(0, 1)
	if r.Len() != 2 || !r.Contains(0) || !r.Contains(1) || r.Contains(2) {
		t.Errorf("Range(0,1) wrong: %v", r)
	}
	if tl.All().Len() != 3 {
		t.Errorf("All wrong: %v", tl.All())
	}
	if !tl.Empty().IsEmpty() {
		t.Error("Empty not empty")
	}
	o := tl.Of(0, 2)
	if o.Len() != 2 || o.IsContiguous() {
		t.Errorf("Of(0,2) wrong: %v contiguous=%v", o, o.IsContiguous())
	}
}

func TestMinMax(t *testing.T) {
	tl := MustNew("a", "b", "c", "d", "e")
	iv := tl.Of(1, 3)
	if iv.Min() != 1 || iv.Max() != 3 {
		t.Errorf("Min/Max = %d/%d, want 1/3", iv.Min(), iv.Max())
	}
	e := tl.Empty()
	if e.Min() != -1 || e.Max() != -1 {
		t.Errorf("empty Min/Max = %d/%d, want -1/-1", e.Min(), e.Max())
	}
}

func TestSetOps(t *testing.T) {
	tl := MustNew("a", "b", "c", "d")
	x := tl.Range(0, 2)
	y := tl.Range(1, 3)
	if got := x.Union(y); got.Len() != 4 {
		t.Errorf("Union = %v", got)
	}
	if got := x.Intersect(y); got.Len() != 2 || !got.Contains(1) || !got.Contains(2) {
		t.Errorf("Intersect = %v", got)
	}
	if got := x.Minus(y); got.Len() != 1 || !got.Contains(0) {
		t.Errorf("Minus = %v", got)
	}
	if !x.Intersects(y) {
		t.Error("Intersects = false")
	}
	if !x.Intersect(y).SubsetOf(x) {
		t.Error("intersection should be subset")
	}
	if !x.Equal(tl.Range(0, 2)) {
		t.Error("Equal failed")
	}
}

func TestString(t *testing.T) {
	tl := MustNew("2000", "2001", "2002")
	cases := []struct {
		iv   Interval
		want string
	}{
		{tl.Empty(), "∅"},
		{tl.Point(0), "2000"},
		{tl.Range(0, 2), "[2000,2002]"},
		{tl.Of(0, 2), "{2000,2002}"},
	}
	for _, c := range cases {
		if got := c.iv.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestQuickLatticeLaws(t *testing.T) {
	// The intervals under union/intersection form a lattice (§3.1).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		labels := make([]string, n)
		for i := range labels {
			labels[i] = string(rune('A' + i))
		}
		tl := MustNew(labels...)
		ri := func() Interval {
			iv := tl.Empty()
			for i := 0; i < n; i++ {
				if r.Intn(2) == 1 {
					iv = iv.Union(tl.Point(Time(i)))
				}
			}
			return iv
		}
		a, b, c := ri(), ri(), ri()
		return a.Union(b).Equal(b.Union(a)) &&
			a.Intersect(b).Equal(b.Intersect(a)) &&
			a.Union(b.Union(c)).Equal(a.Union(b).Union(c)) &&
			a.Intersect(b.Intersect(c)).Equal(a.Intersect(b).Intersect(c)) &&
			a.Union(a.Intersect(b)).Equal(a) &&
			a.Intersect(a.Union(b)).Equal(a) &&
			a.Minus(b).Union(a.Intersect(b)).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
