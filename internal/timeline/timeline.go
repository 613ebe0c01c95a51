// Package timeline models the time domain of a temporal attributed graph.
//
// GraphTempo defines a temporal graph over a finite, ordered set of base
// time points (the shortest intervals T_i of the paper, e.g. years for DBLP
// or months for MovieLens). An Interval is a set of those time points; the
// temporal operators of the paper combine intervals with union and
// intersection, and the exploration strategies of §3 walk the union and
// intersection semi-lattices by extending an interval with its neighbouring
// base point.
package timeline

import (
	"fmt"
	"strings"

	"repro/internal/bitset"
)

// Time identifies a base time point by its index on the timeline.
type Time int

// Timeline is an ordered sequence of labeled base time points.
type Timeline struct {
	labels []string
	index  map[string]Time
}

// New returns a timeline with the given point labels, in order.
// Labels must be unique and non-empty.
func New(labels ...string) (*Timeline, error) {
	if len(labels) == 0 {
		return nil, fmt.Errorf("timeline: no time points")
	}
	tl := &Timeline{labels: append([]string(nil), labels...), index: make(map[string]Time, len(labels))}
	for i, l := range labels {
		if l == "" {
			return nil, fmt.Errorf("timeline: empty label at position %d", i)
		}
		if _, dup := tl.index[l]; dup {
			return nil, fmt.Errorf("timeline: duplicate label %q", l)
		}
		tl.index[l] = Time(i)
	}
	return tl, nil
}

// MustNew is like New but panics on error. Intended for tests and fixtures.
func MustNew(labels ...string) *Timeline {
	tl, err := New(labels...)
	if err != nil {
		panic(err)
	}
	return tl
}

// Len returns the number of base time points.
func (tl *Timeline) Len() int { return len(tl.labels) }

// Label returns the label of time point t. It panics if t is out of range.
func (tl *Timeline) Label(t Time) string { return tl.labels[t] }

// Labels returns a copy of all point labels in order.
func (tl *Timeline) Labels() []string { return append([]string(nil), tl.labels...) }

// TimeOf returns the time point with the given label.
func (tl *Timeline) TimeOf(label string) (Time, bool) {
	t, ok := tl.index[label]
	return t, ok
}

// Interval is a set of time points on a timeline. Although GraphTempo's
// exploration only ever produces contiguous intervals, the model (and the
// union/intersection/difference operators) is defined on arbitrary sets of
// time points, so Interval supports both.
type Interval struct {
	tl  *Timeline
	set *bitset.Set
}

// Point returns the interval containing the single time point t.
func (tl *Timeline) Point(t Time) Interval {
	tl.checkTime(t)
	return Interval{tl, bitset.FromIndices(tl.Len(), int(t))}
}

// Range returns the contiguous interval [from, to], inclusive on both ends.
// It panics if from > to or either end is out of range.
func (tl *Timeline) Range(from, to Time) Interval {
	tl.checkTime(from)
	tl.checkTime(to)
	if from > to {
		panic(fmt.Sprintf("timeline: Range(%d, %d) with from > to", from, to))
	}
	s := bitset.New(tl.Len())
	for t := from; t <= to; t++ {
		s.Add(int(t))
	}
	return Interval{tl, s}
}

// Empty returns the empty interval on tl.
func (tl *Timeline) Empty() Interval {
	return Interval{tl, bitset.New(tl.Len())}
}

// All returns the interval covering every time point of tl.
func (tl *Timeline) All() Interval {
	s := bitset.New(tl.Len())
	s.SetAll()
	return Interval{tl, s}
}

// Of returns the interval containing exactly the given time points.
func (tl *Timeline) Of(ts ...Time) Interval {
	s := bitset.New(tl.Len())
	for _, t := range ts {
		tl.checkTime(t)
		s.Add(int(t))
	}
	return Interval{tl, s}
}

func (tl *Timeline) checkTime(t Time) {
	if int(t) < 0 || int(t) >= tl.Len() {
		panic(fmt.Sprintf("timeline: time %d out of range [0,%d)", t, tl.Len()))
	}
}

// Timeline returns the timeline the interval is defined on.
func (iv Interval) Timeline() *Timeline { return iv.tl }

// Mask returns the interval's underlying time-point bitset. The caller must
// not modify it.
func (iv Interval) Mask() *bitset.Set { return iv.set }

// IsEmpty reports whether the interval contains no time point.
func (iv Interval) IsEmpty() bool { return iv.set == nil || iv.set.IsEmpty() }

// Len returns the number of time points in the interval.
func (iv Interval) Len() int {
	if iv.set == nil {
		return 0
	}
	return iv.set.Count()
}

// Contains reports whether the interval contains time point t.
func (iv Interval) Contains(t Time) bool {
	return iv.set != nil && iv.set.Contains(int(t))
}

// Times returns the time points of the interval in increasing order.
func (iv Interval) Times() []Time {
	if iv.set == nil {
		return nil
	}
	idx := iv.set.Indices()
	ts := make([]Time, len(idx))
	for i, x := range idx {
		ts[i] = Time(x)
	}
	return ts
}

// Min returns the earliest time point, or -1 if the interval is empty.
func (iv Interval) Min() Time {
	if iv.set == nil {
		return -1
	}
	return Time(iv.set.Next(0))
}

// Max returns the latest time point, or -1 if the interval is empty.
func (iv Interval) Max() Time {
	if iv.set == nil {
		return -1
	}
	m := Time(-1)
	for i := iv.set.Next(0); i >= 0; i = iv.set.Next(i + 1) {
		m = Time(i)
	}
	return m
}

// IsContiguous reports whether the interval is a contiguous run of points.
func (iv Interval) IsContiguous() bool {
	if iv.IsEmpty() {
		return true
	}
	return int(iv.Max()-iv.Min())+1 == iv.Len()
}

func (iv Interval) sameTimeline(other Interval, op string) {
	if iv.tl != other.tl {
		panic("timeline: " + op + " of intervals on different timelines")
	}
}

// Union returns the set union of the two intervals.
func (iv Interval) Union(other Interval) Interval {
	iv.sameTimeline(other, "Union")
	return Interval{iv.tl, iv.set.Or(other.set)}
}

// Intersect returns the set intersection of the two intervals.
func (iv Interval) Intersect(other Interval) Interval {
	iv.sameTimeline(other, "Intersect")
	return Interval{iv.tl, iv.set.And(other.set)}
}

// Minus returns the set difference iv − other.
func (iv Interval) Minus(other Interval) Interval {
	iv.sameTimeline(other, "Minus")
	return Interval{iv.tl, iv.set.AndNot(other.set)}
}

// Intersects reports whether the intervals share a time point.
func (iv Interval) Intersects(other Interval) bool {
	iv.sameTimeline(other, "Intersects")
	return iv.set.Intersects(other.set)
}

// SubsetOf reports whether every point of iv is also in other.
func (iv Interval) SubsetOf(other Interval) bool {
	iv.sameTimeline(other, "SubsetOf")
	return other.set.ContainsAll(iv.set)
}

// Equal reports whether the intervals contain the same time points.
func (iv Interval) Equal(other Interval) bool {
	return iv.tl == other.tl && iv.set.Equal(other.set)
}

// String renders the interval with point labels: a single label for a
// point, "[a,b]" for a contiguous run, and "{a,b,c}" for a general set.
func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "∅"
	}
	ts := iv.Times()
	if len(ts) == 1 {
		return iv.tl.Label(ts[0])
	}
	if iv.IsContiguous() {
		return "[" + iv.tl.Label(ts[0]) + "," + iv.tl.Label(ts[len(ts)-1]) + "]"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range ts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(iv.tl.Label(t))
	}
	b.WriteByte('}')
	return b.String()
}
