// Package dataset provides the evaluation datasets of the paper's §5.
//
// The paper uses two real graphs: a DBLP co-authorship extract (21 years,
// 2000–2020, 21 data-management conferences) and a MovieLens co-rating
// graph (6 months, May–October 2000). Neither raw extract is
// redistributable (and the authors' gender labels are derived data), so
// this package generates seeded synthetic graphs that reproduce what the
// paper's experiments actually depend on:
//
//   - the exact per-time-point node and edge counts of Tables 3 and 4
//     (including MovieLens's August spike);
//   - the attribute schemas and domain cardinalities (§5.1): DBLP gender
//     (static, 2 values) + publications (time-varying, ~18 values);
//     MovieLens gender/age/occupation (static; 2/6/21 values) + average
//     rating (time-varying, ~41 values);
//   - the temporal persistence structure: ~10% year-over-year edge
//     carry-over for DBLP (→ ~60 stable female-female collaborations
//     around 2019, Fig. 14a), a long-lived collaboration core making
//     [2000,2017] the longest interval with a non-empty edge intersection
//     (Fig. 7), and near-total month-over-month churn for MovieLens
//     (Fig. 13c);
//   - a female author share (~17%) giving Fig. 12's ≈8:1 stable male:
//     female ratio and Fig. 14b's ≈700 new female collaborations in 2019.
//
// All generators are deterministic in the seed.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/timeline"
)

// DBLPYears, DBLPNodeCounts and DBLPEdgeCounts are Table 3 of the paper.
var (
	DBLPYears = []string{
		"2000", "2001", "2002", "2003", "2004", "2005", "2006", "2007",
		"2008", "2009", "2010", "2011", "2012", "2013", "2014", "2015",
		"2016", "2017", "2018", "2019", "2020",
	}
	DBLPNodeCounts = []int{
		1708, 2165, 1761, 2827, 3278, 4466, 4730, 5193, 5501, 5363, 6236,
		6535, 6769, 7457, 7035, 8581, 8966, 9660, 11037, 12377, 12996,
	}
	DBLPEdgeCounts = []int{
		2336, 2949, 2458, 4130, 4821, 7145, 7296, 7620, 8528, 8740, 10163,
		10090, 11871, 12989, 12072, 15844, 16873, 18470, 21197, 27455, 28546,
	}
)

// MovieLensMonths, MovieLensNodeCounts and MovieLensEdgeCounts are Table 4.
var (
	MovieLensMonths     = []string{"May", "Jun", "Jul", "Aug", "Sep", "Oct"}
	MovieLensNodeCounts = []int{486, 508, 778, 1309, 575, 498}
	MovieLensEdgeCounts = []int{100202, 85334, 201800, 610050, 77216, 48516}
)

// DBLP generates the synthetic DBLP collaboration graph at full Table 3
// scale. Schema: gender (static), publications (time-varying).
func DBLP(seed int64) *core.Graph { return DBLPScaled(seed, 1.0) }

// DBLPScaled generates the DBLP graph with node/edge counts scaled by the
// given factor (0 < scale ≤ 1); useful for fast tests. Scaled counts are
// floored so every year keeps at least a handful of nodes and edges.
func DBLPScaled(seed int64, scale float64) *core.Graph {
	p := params{
		labels:     DBLPYears,
		nodeCounts: scaleCounts(DBLPNodeCounts, scale, 8),
		edgeCounts: scaleCounts(DBLPEdgeCounts, scale, 8),
		attrs: []core.AttrSpec{
			{Name: "gender", Kind: core.Static},
			{Name: "publications", Kind: core.TimeVarying},
		},
		assignStatic: dblpStatic,
		carryNode:    0.75, // casual authors tend to stay a few years
		traitBoost:   0.05, // productive authors stay much longer
		carryEdge:    0.10, // ~10% of collaborations repeat next year
		femaleShare:  0.17,
		coreEdges:    1 + int(19*scale),
		coreLastIdx:  17, // the core collaborations span [2000,2017]
		varyingValue: publicationsValue,
	}
	return generate(rand.New(rand.NewSource(seed)), p)
}

// MovieLens generates the synthetic MovieLens co-rating graph at full
// Table 4 scale. Schema: gender, age, occupation (static), rating
// (time-varying average rating of the month).
func MovieLens(seed int64) *core.Graph { return MovieLensScaled(seed, 1.0) }

// MovieLensScaled generates the MovieLens graph with counts scaled by the
// given factor.
func MovieLensScaled(seed int64, scale float64) *core.Graph {
	p := params{
		labels:     MovieLensMonths,
		nodeCounts: scaleCounts(MovieLensNodeCounts, scale, 8),
		edgeCounts: scaleCounts(MovieLensEdgeCounts, scale, 8),
		attrs: []core.AttrSpec{
			{Name: "gender", Kind: core.Static},
			{Name: "age", Kind: core.Static},
			{Name: "occupation", Kind: core.Static},
			{Name: "rating", Kind: core.TimeVarying},
		},
		assignStatic: movieLensStatic,
		carryNode:    0.55,  // moderate user retention
		carryEdge:    0.015, // co-rating pairs churn almost completely
		femaleShare:  0.30,
		varyingValue: ratingValue,
	}
	return generate(rand.New(rand.NewSource(seed)), p)
}

// CheckScale is the command-line tools' check on their -scale flag: NaN,
// an infinity, zero or a negative factor would floor every count to a
// silent toy graph, so each tool refuses it as a usage error.
func CheckScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("invalid value %v for flag -scale: want a finite size factor > 0", scale)
	}
	return nil
}

func scaleCounts(counts []int, scale float64, floor int) []int {
	out := make([]int, len(counts))
	for i, c := range counts {
		s := int(math.Round(float64(c) * scale))
		if s < floor {
			s = floor
		}
		out[i] = s
	}
	return out
}

// params drives the shared evolving-graph generator.
type params struct {
	labels       []string
	nodeCounts   []int
	edgeCounts   []int
	attrs        []core.AttrSpec
	assignStatic func(r *rand.Rand, b *core.Builder, n core.NodeID, female bool)
	carryNode    float64 // probability an active node stays active next step
	traitBoost   float64 // extra retention per unit of productivity trait
	carryEdge    float64 // probability a previous edge repeats this step
	femaleShare  float64
	coreEdges    int // long-lived edges spanning steps [0, coreLastIdx]
	coreLastIdx  int
	// varyingValue computes the time-varying attribute value of a node at
	// a time point, given the node's persistent productivity trait and its
	// degree (incident edge count) there.
	varyingValue func(r *rand.Rand, trait, degree int) string
}

func dblpStatic(r *rand.Rand, b *core.Builder, n core.NodeID, female bool) {
	if female {
		b.SetStatic(0, n, "f")
	} else {
		b.SetStatic(0, n, "m")
	}
}

var ageGroups = []string{"<18", "18-24", "25-34", "35-44", "45-55", "56+"}

func movieLensStatic(r *rand.Rand, b *core.Builder, n core.NodeID, female bool) {
	if female {
		b.SetStatic(0, n, "F")
	} else {
		b.SetStatic(0, n, "M")
	}
	b.SetStatic(1, n, ageGroups[r.Intn(len(ageGroups))])
	b.SetStatic(2, n, fmt.Sprintf("occ%02d", r.Intn(21)))
}

// publicationsValue ties the yearly publication count to the author's
// persistent productivity trait plus this year's collaboration degree, so
// the Fig. 12 high-activity filter (#publications > 4) mostly selects the
// same durable authors in consecutive periods — which is what makes ~61%
// of high-activity authors stable across a decade boundary in the paper.
// Domain ≈ 1..18, as §5.1 reports.
func publicationsValue(r *rand.Rand, trait, degree int) string {
	v := trait + degree/4 + r.Intn(2)
	if v > 18 {
		v = 18
	}
	if v < 1 {
		v = 1
	}
	return fmt.Sprintf("%d", v)
}

// ratingValue draws a monthly average rating in 1.0..5.0, one decimal
// (domain ≈ 41 values).
func ratingValue(r *rand.Rand, trait, degree int) string {
	v := 3.5 + r.NormFloat64()*0.7
	if v < 1 {
		v = 1
	}
	if v > 5 {
		v = 5
	}
	return fmt.Sprintf("%.1f", v)
}

// generate builds an evolving graph with exact per-time-point node and
// edge counts. All choices are drawn from r, so output is deterministic in
// the seed.
func generate(r *rand.Rand, p params) *core.Graph {
	tl := timeline.MustNew(p.labels...)
	b := core.NewBuilder(tl, p.attrs...)
	varyingAttr := core.AttrID(len(p.attrs) - 1)

	nSteps := len(p.labels)
	var nextID int
	var traits []int // indexed by NodeID
	newNode := func() core.NodeID {
		n := b.AddNode(fmt.Sprintf("n%d", nextID))
		nextID++
		p.assignStatic(r, b, n, r.Float64() < p.femaleShare)
		// Productivity trait: most nodes are casual (1–3), a minority is
		// durably prolific (5–8).
		trait := 1 + r.Intn(3)
		if r.Float64() < 0.15 {
			trait = 5 + r.Intn(4)
		}
		traits = append(traits, trait)
		return n
	}

	// Core long-lived edges (the intersection backbone of Fig. 7): their
	// endpoints stay active over the whole core span.
	var coreNodes []core.NodeID
	var corePairs []core.Endpoints
	blocked := make(map[core.Endpoints]bool)
	if p.coreEdges > 0 {
		for len(coreNodes) < p.coreEdges+1 {
			coreNodes = append(coreNodes, newNode())
		}
		for i := 0; i < p.coreEdges; i++ {
			ep := core.Endpoints{U: coreNodes[i], V: coreNodes[i+1]}
			corePairs = append(corePairs, ep)
			// Core pairs must not reappear after the core window, so that
			// [0, coreLastIdx] really is the longest interval with a
			// non-empty edge intersection (Fig. 7).
			blocked[ep] = true
			blocked[core.Endpoints{U: ep.V, V: ep.U}] = true
		}
	}

	var prevActive []core.NodeID
	var prevEdges []core.Endpoints // insertion order: deterministic
	degree := make(map[core.NodeID]int)

	for step := 0; step < nSteps; step++ {
		target := p.nodeCounts[step]
		activeSet := make(map[core.NodeID]bool, target)
		if p.coreEdges > 0 && step <= p.coreLastIdx {
			for _, n := range coreNodes {
				activeSet[n] = true
			}
		}
		for _, n := range prevActive {
			if len(activeSet) >= target {
				break
			}
			keep := p.carryNode + p.traitBoost*float64(traits[n])
			if keep > 0.985 {
				keep = 0.985
			}
			if r.Float64() < keep {
				activeSet[n] = true
			}
		}
		for len(activeSet) < target {
			activeSet[newNode()] = true
		}
		active := make([]core.NodeID, 0, len(activeSet))
		for n := range activeSet {
			active = append(active, n)
		}
		sort.Slice(active, func(i, j int) bool { return active[i] < active[j] })
		for _, n := range active {
			b.SetNodeTime(n, timeline.Time(step))
		}

		eTarget := p.edgeCounts[step]
		if maxPairs := len(active) * (len(active) - 1); eTarget > maxPairs {
			eTarget = maxPairs
		}
		edgeSet := make(map[core.Endpoints]bool, eTarget)
		edges := make([]core.Endpoints, 0, eTarget)
		pastCore := p.coreEdges > 0 && step > p.coreLastIdx
		addEdge := func(ep core.Endpoints) {
			if ep.U == ep.V || edgeSet[ep] || !activeSet[ep.U] || !activeSet[ep.V] {
				return
			}
			if pastCore && blocked[ep] {
				return
			}
			edgeSet[ep] = true
			edges = append(edges, ep)
		}
		if p.coreEdges > 0 && step <= p.coreLastIdx {
			for _, ep := range corePairs {
				addEdge(ep)
			}
		}
		if step > 0 && p.carryEdge > 0 {
			for _, ep := range prevEdges {
				if len(edges) >= eTarget {
					break
				}
				if r.Float64() < p.carryEdge {
					addEdge(ep)
				}
			}
		}
		// Fresh random interactions, with mild hubs: picking the smaller
		// of two uniform indices biases toward earlier (longer-lived,
		// better-connected) nodes.
		pick := func() core.NodeID {
			i := r.Intn(len(active))
			if j := r.Intn(len(active)); j < i {
				i = j
			}
			return active[i]
		}
		for len(edges) < eTarget {
			addEdge(core.Endpoints{U: pick(), V: pick()})
		}

		clear(degree)
		for _, ep := range edges {
			e := b.AddEdge(ep.U, ep.V)
			b.SetEdgeTime(e, timeline.Time(step))
			degree[ep.U]++
			degree[ep.V]++
		}
		for _, n := range active {
			b.SetVarying(varyingAttr, n, timeline.Time(step), p.varyingValue(r, traits[n], degree[n]))
		}
		prevActive, prevEdges = active, edges
	}
	g, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("dataset: generator produced invalid graph: %v", err))
	}
	return g
}
