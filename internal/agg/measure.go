package agg

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// §2.2 fixes COUNT as the aggregate function but notes that "other
// aggregations may be supported". This file adds numeric measures over a
// node attribute: for each aggregate node (attribute tuple), aggregate a
// numeric attribute of the underlying nodes with SUM / AVG / MIN / MAX —
// e.g. the average number of publications per gender per year, or the
// total contact intensity per school grade.

// Measure selects the numeric aggregate function.
type Measure int

const (
	// Sum adds the attribute values of all appearances.
	Sum Measure = iota
	// Avg averages them.
	Avg
	// Min takes the smallest.
	Min
	// Max takes the largest.
	Max
)

// String names the measure.
func (m Measure) String() string {
	switch m {
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	default:
		return "MAX"
	}
}

// MeasureGraph is an aggregate graph whose node weights are a numeric
// measure of an attribute rather than a count. Edges are not measured
// (edges carry no attributes in the model, as §2.2 notes).
type MeasureGraph struct {
	Schema  *Schema
	Measure Measure
	// Attr is the measured numeric attribute.
	Attr core.AttrID
	// Nodes maps each tuple to its measure value.
	Nodes map[Tuple]float64
	// Count maps each tuple to the number of appearances measured.
	Count map[Tuple]int64
}

// AggregateMeasure computes the measure of the numeric attribute attr per
// aggregate node of the view under schema s. Every (node, time point)
// appearance within the view contributes one sample: for static measured
// attributes the node's single value, for time-varying ones the value at
// that time point. Appearances with a missing or non-numeric value are
// skipped.
//
// The measured attribute may not be part of the grouping schema (grouping
// by a value and measuring it would always yield that value).
func AggregateMeasure(v *ops.View, s *Schema, attr core.AttrID, m Measure) (*MeasureGraph, error) {
	g := s.Graph()
	s.owns(v)
	if int(attr) < 0 || int(attr) >= g.NumAttrs() {
		return nil, fmt.Errorf("agg: measured attribute id %d out of range", attr)
	}
	for _, a := range s.attrs {
		if a == attr {
			return nil, fmt.Errorf("agg: attribute %q cannot be both grouped and measured", g.Attr(attr).Name)
		}
	}
	out := &MeasureGraph{
		Schema:  s,
		Measure: m,
		Attr:    attr,
		Nodes:   make(map[Tuple]float64),
		Count:   make(map[Tuple]int64),
	}
	v.ForEachNode(func(n core.NodeID) {
		v.NodeTimes(n).ForEach(func(t int) {
			tu := Tuple(s.Codes(timeline.Time(t))[n])
			if tu < 0 {
				return
			}
			code := g.Value(attr, n, timeline.Time(t))
			if code == dict.None {
				return
			}
			val, err := strconv.ParseFloat(g.Dict(attr).Value(code), 64)
			if err != nil {
				return
			}
			count := out.Count[tu]
			switch m {
			case Sum, Avg:
				out.Nodes[tu] += val
			case Min:
				if count == 0 || val < out.Nodes[tu] {
					out.Nodes[tu] = val
				}
			case Max:
				if count == 0 || val > out.Nodes[tu] {
					out.Nodes[tu] = val
				}
			}
			out.Count[tu] = count + 1
		})
	})
	if m == Avg {
		for tu, c := range out.Count {
			out.Nodes[tu] /= float64(c)
		}
	}
	return out, nil
}

// Value returns the measure for tu and whether the tuple had any samples.
func (mg *MeasureGraph) Value(tu Tuple) (float64, bool) {
	v, ok := mg.Nodes[tu]
	return v, ok
}

// SortedNodes returns the measured tuples in wire order.
func (mg *MeasureGraph) SortedNodes() []Tuple { return SortedTuples(mg.Schema, mg.Nodes) }

// String renders the measured aggregate graph.
func (mg *MeasureGraph) String() string {
	var b strings.Builder
	g := mg.Schema.Graph()
	fmt.Fprintf(&b, "measure %s(%s) per tuple\n", mg.Measure, g.Attr(mg.Attr).Name)
	for _, tu := range mg.SortedNodes() {
		v := mg.Nodes[tu]
		if v == math.Trunc(v) {
			fmt.Fprintf(&b, "  (%s) = %.0f (n=%d)\n", mg.Schema.Label(tu), v, mg.Count[tu])
		} else {
			fmt.Fprintf(&b, "  (%s) = %.3f (n=%d)\n", mg.Schema.Label(tu), v, mg.Count[tu])
		}
	}
	return b.String()
}
