package agg

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/gtest"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// recordError checks every scan record s has built against its column, one
// word at a time: [lo, hi] is the span of the words holding the column's
// singles; the aggregate of singles, once built, counts them by code; and
// once grouped, each group is non-empty, its entities are multi-appearance
// entities of the column with that code — disjoint from the word's other
// groups, whose codes differ — and together the groups hold every such
// entity with a tuple, none without (code −1). It returns the number of
// records checked, and of those with groups.
func recordError(s *Schema) (checked, grouped int, err error) {
	g, ix := s.g, s.g.PointIndex()
	code := func(id int, t timeline.Time, edges bool) int64 {
		if !edges {
			if tu, ok := s.TupleAt(core.NodeID(id), t); ok {
				return int64(tu)
			}
			return -1
		}
		ep := g.Edge(core.EdgeID(id))
		fu, ok1 := s.TupleAt(ep.U, t)
		tu, ok2 := s.TupleAt(ep.V, t)
		if !ok1 || !ok2 {
			return -1
		}
		return int64(fu)*s.domain + int64(tu)
	}
	for side, at := range []func(timeline.Time) *bitset.Set{ix.NodesAt, ix.EdgesAt} {
		multi, edges := ix.MultiNodes(), side == 1
		if edges {
			multi = ix.MultiEdges()
		}
		for t := range s.scans[side] {
			p := s.scans[side][t].Load()
			if p == nil {
				continue
			}
			checked++
			col, tt := at(timeline.Time(t)), timeline.Time(t)
			what := fmt.Sprintf("%v point %d side %d", s.AttrNames(), t, side)
			if p.start != nil {
				grouped++
				if len(p.start) != col.NumWords()+1 {
					return checked, grouped, fmt.Errorf("%s: %d word starts for %d words", what, len(p.start), col.NumWords())
				}
			}
			singles, lo, hi := map[int64]int64{}, col.NumWords(), -1
			for wi := range col.NumWords() {
				var held uint64
				codes := map[int64]bool{}
				var gs []group
				if p.start != nil {
					gs = p.word(wi)
				}
				for _, gr := range gs {
					if gr.mask == 0 || held&gr.mask != 0 || codes[gr.code] || gr.code < 0 {
						return checked, grouped, fmt.Errorf("%s word %d: group %+v empty, overlapping, repeated or without a tuple", what, wi, gr)
					}
					held, codes[gr.code] = held|gr.mask, true
					for y := gr.mask; y != 0; y &= y - 1 {
						if c := code(wi*64+bits.TrailingZeros64(y), tt, edges); c != gr.code {
							return checked, grouped, fmt.Errorf("%s word %d: group of code %d holds an entity of code %d", what, wi, gr.code, c)
						}
					}
				}
				var want uint64
				for y := col.Word(wi) & multi.Word(wi); y != 0; y &= y - 1 {
					if b := bits.TrailingZeros64(y); code(wi*64+b, tt, edges) >= 0 {
						want |= 1 << b
					}
				}
				if p.start != nil && held != want {
					return checked, grouped, fmt.Errorf("%s word %d: groups hold %b, want the multi-appearance entities with a tuple %b", what, wi, held, want)
				}
				if y := col.Word(wi) &^ multi.Word(wi); y != 0 {
					lo, hi = min(lo, wi), wi
					for ; y != 0; y &= y - 1 {
						if c := code(wi*64+bits.TrailingZeros64(y), tt, edges); c >= 0 {
							singles[c]++
						}
					}
				}
			}
			got := map[int64]int64{}
			for _, e := range p.singles {
				got[e[0]] += e[1]
			}
			if p.lo != lo || p.hi != hi || p.singles != nil && (fmt.Sprint(got) != fmt.Sprint(singles) || len(got) != len(p.singles)) {
				return checked, grouped, fmt.Errorf("%s: singles %v over words [%d, %d], want %v over [%d, %d]", what, got, p.lo, p.hi, singles, lo, hi)
			}
		}
	}
	return checked, grouped, nil
}

// groupedPaths counts, over the points of v's interval and both sides, the
// (point, side) pairs at which v selects a multi-appearance entity that is
// in a group of the point's scan record — the grouped path — those at
// which it selects one the record has not grouped yet, which ALL streams per
// appearance, and those at which v selects singles, which a filtered scan
// streams.
func groupedPaths(v *ops.View, s *Schema) (grouped, ungrouped, singles int) {
	ix := s.g.PointIndex()
	mask := v.Times().Mask()
	if mask == nil {
		return 0, 0, 0
	}
	for t := mask.Next(0); t >= 0; t = mask.Next(t + 1) {
		for side, sets := range [][3]*bitset.Set{
			{v.Nodes(), ix.NodesAt(timeline.Time(t)), ix.MultiNodes()},
			{v.Edges(), ix.EdgesAt(timeline.Time(t)), ix.MultiEdges()},
		} {
			sel, col, multi := sets[0], sets[1], sets[2]
			if col.AndNot(multi).Intersects(sel) {
				singles++
			}
			p := s.scans[side][t].Load()
			if p == nil || p.start == nil {
				if col.Intersects(multi) && col.Intersects(sel) && multi.Intersects(sel) {
					ungrouped++
				}
				continue
			}
			met := false
			for wi := range col.NumWords() {
				x := col.Word(wi) & multi.Word(wi) & sel.Word(wi)
				for _, gr := range p.word(wi) {
					met = met || gr.mask&x != 0
				}
			}
			if met {
				grouped++
			}
		}
	}
	return grouped, ungrouped, singles
}

// groupedRuns counts the runs of TestGroupedKernelMatchesMapEngine in this
// process, so that each -count repetition draws other graphs.
var groupedRuns int64

// TestGroupedKernelMatchesMapEngine: the scan kernel that counts
// multi-appearance entities on per-point code groups gives what the map
// engines give — AggregateMap, and the filtered oracle under a WHERE-style
// filter — on random graphs whose words hold several tuples and entities
// without one at some points (nodes missing an attribute, edges with such
// an endpoint), built and accumulated, and on a wide-domain schema whose
// accumulators are maps; every operator and the exploration pair views,
// DIST and ALL — ALL first on every other graph, so that it meets points
// no DIST scan grouped yet — serially, over 2–5 shard workers and over
// shards cut at unaligned bounds. Every record built is checked against its
// column (recordError), both of ALL's paths and the grouped path ran, and
// the filtered scans streamed singles: a filtered view absorbs no point.
func TestGroupedKernelMatchesMapEngine(t *testing.T) {
	defer forceParallel(t)()
	r := rand.New(rand.NewSource(52 + groupedRuns))
	groupedRuns++
	type graph struct {
		name string
		g    *core.Graph
	}
	var graphs []graph
	for i := 0; i < 24; i++ {
		built := singlesGraph(r, i%3)
		graphs = append(graphs, graph{fmt.Sprintf("graph %d", i), built}, graph{fmt.Sprintf("accumulated %d", i), gtest.Accumulated(built)})
	}
	wide := gtest.WideGraph(r, 300, 6, 50_000, 50_000, 3)
	graphs = append(graphs, graph{"wide", wide})
	var grouped, ungrouped, streamedFiltered, records, rows int
	for gi, gr := range graphs {
		g := gr.g
		kinds := []Kind{Distinct, All}
		if gi%2 == 1 {
			kinds = []Kind{All, Distinct}
		}
		schemas := []*Schema{MustSchema(g, 1), MustSchema(g, 0, 1), MustSchema(g, 1, 0)}
		if g == wide {
			if schemas[0].Domain() <= 1024 {
				t.Fatalf("the wide schema's domain is %d: its edge accumulators stay flat", schemas[0].Domain())
			}
			schemas = schemas[:2]
		}
		for _, s := range schemas {
			for vi, v := range singlesViews(r, g) {
				for _, kind := range kinds {
					what := fmt.Sprintf("%s %v view %d %s", gr.name, s.AttrNames(), vi, kind)
					if kind == All {
						_, ug, _ := groupedPaths(v, s)
						ungrouped += ug
					}
					want := AggregateMap(v, s, kind)
					if got := Aggregate(v, s, kind); !got.Equal(want) {
						t.Fatalf("%s: serial kernel\n%s\nmap engine\n%s", what, got, want)
					}
					if got := aggregateParallel(v, s, kind, 2+r.Intn(4)); !got.Equal(want) {
						t.Fatalf("%s: shard workers\n%s\nmap engine\n%s", what, got, want)
					}
					if got := aggregateInPieces(r, v, s, kind); !got.Equal(want) {
						t.Fatalf("%s: unaligned shards\n%s\nmap engine\n%s", what, got, want)
					}
					if got, want := mustFiltered(t, v, s, kind, twoInThree), filteredMap(v, s, kind, twoInThree); !got.Equal(want) {
						t.Fatalf("%s: filtered kernel\n%s\nfiltered oracle\n%s", what, got, want)
					}
					gp, _, sp := groupedPaths(v, s)
					grouped, streamedFiltered, rows = grouped+gp, streamedFiltered+sp, rows+1
				}
			}
			n, ng, err := recordError(s)
			if err != nil || ng == 0 {
				t.Fatalf("%s: %d records grouped: %v", gr.name, ng, err)
			}
			records += n
		}
	}
	if grouped == 0 || ungrouped == 0 || streamedFiltered == 0 {
		t.Fatalf("over %d rows, %d (point, side) pairs met groups, %d met ungrouped points under ALL and %d streamed singles under the filter: want all three", rows, grouped, ungrouped, streamedFiltered)
	}
	t.Logf("%d rows, %d records; %d (point, side) pairs met groups, %d ungrouped under ALL, %d streamed singles under the filter", rows, records, grouped, ungrouped, streamedFiltered)
}
