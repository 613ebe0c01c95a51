package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/bitset"
	"repro/internal/dict"
	"repro/internal/timeline"
)

// sharedIndex is the label → id index shared between an Accumulator and
// every Graph snapshot taken from it. The accumulator keeps interning new
// labels while old snapshots serve lookups, so access is lock-guarded and
// each snapshot clips results to the node/edge count it was frozen at.
type sharedIndex struct {
	mu    sync.RWMutex
	nodes map[string]NodeID
	edges map[Endpoints]EdgeID
}

func (ix *sharedIndex) nodeByLabel(label string, bound int) (NodeID, bool) {
	ix.mu.RLock()
	n, ok := ix.nodes[label]
	ix.mu.RUnlock()
	if !ok || int(n) >= bound {
		return 0, false
	}
	return n, true
}

// Accumulator grows a temporal attributed graph one time point at a time
// and hands out immutable Graph snapshots between appends — the O(batch)
// counterpart of replaying the whole history through a Builder.
//
// The sharing discipline that makes snapshots cheap and race-free:
//
//   - Node labels, edges and attribute columns are append-only; a snapshot
//     holds length-bounded slice headers over the shared backing arrays,
//     so later appends land beyond every frozen length.
//   - Timestamp bitsets are copy-on-write: the per-entity pointer slices
//     are copied at snapshot time (O(V+E) pointer moves), and the first
//     mutation of an entity's timestamp after a snapshot clones the bitset
//     before extending it. Frozen timestamps keep their old length; the
//     bitset package's zero-padding semantics make that equivalent to
//     "absent at every newer point".
//   - Time-varying columns are time-major ([time][node]); each row is
//     written only while its point is current and is immutable afterwards.
//   - Dictionaries are cloned per snapshot (domains are small), and label
//     indexes are shared through a lock-guarded sharedIndex.
//
// An Accumulator is not safe for concurrent use; callers (stream.Series)
// serialize mutation. Snapshots are safe for unsynchronized concurrent
// reads alongside further accumulation.
type Accumulator struct {
	attrs []AttrSpec
	dicts []*dict.Dict
	index *sharedIndex

	labels []string // time point labels, append-only

	nodeLabels []string
	nodeTau    []*bitset.Set
	nodeTauGen []uint64 // generation that last cloned the node's tau

	edges      []Endpoints
	edgeTau    []*bitset.Set
	edgeTauGen []uint64

	// The tau pointer slices are shared with the newest snapshot up to the
	// frozen length: appends land beyond it and are invisible to the
	// length-clipped snapshot header, and the first pointer replacement
	// below it copies the slice (copy-on-write). This makes Snapshot itself
	// O(1) on the tau slices — the per-batch copy happens at most once per
	// side, and only for batches that re-touch pre-snapshot entities.
	nodeTauShared bool
	nodeTauFrozen int
	edgeTauShared bool
	edgeTauFrozen int

	// Per-snapshot clone caches: a dictionary (or the timeline) that did
	// not grow since the previous snapshot is shared with it instead of
	// being cloned again — published clones are never mutated, so reuse is
	// safe.
	dictSnap    []*dict.Dict
	dictSnapLen []int
	tlSnap      *timeline.Timeline

	// static[a] is the per-node value column of static attribute a (nil for
	// time-varying attributes). staticFrozen[a] is the column length visible
	// to the newest snapshot: writes below it copy the column first.
	static       [][]dict.Code
	staticFrozen []int

	// varying[a][t] is the dense per-node row of time-varying attribute a
	// at time t (nil for static attributes), the Graph layout. The current
	// point's values are staged sparsely in curVarying and densified when
	// the point ends.
	varying    [][][]dict.Code
	curVarying []map[NodeID]dict.Code

	// The point index (points.go) grows with the graph: one frozen node
	// column and one edge column per finished point, so Snapshot hands the
	// index over in O(1) and no generation re-transposes τ. head are the
	// lazily built columns of the graph this accumulator resumed from (nil
	// for a fresh one); nodeAt/edgeAt cover the points after them.
	head           *lazyColumns
	nodeAt, edgeAt pointColumns

	gen uint64 // bumped by Snapshot; COW epoch for timestamp bitsets
}

// NewAccumulator returns an empty accumulator over the given attribute
// schema. It panics on an invalid schema (empty or duplicate names), like
// NewBuilder reports through Build.
func NewAccumulator(attrs ...AttrSpec) *Accumulator {
	a := &Accumulator{
		attrs:        append([]AttrSpec(nil), attrs...),
		dicts:        make([]*dict.Dict, len(attrs)),
		index:        &sharedIndex{nodes: make(map[string]NodeID), edges: make(map[Endpoints]EdgeID)},
		static:       make([][]dict.Code, len(attrs)),
		staticFrozen: make([]int, len(attrs)),
		varying:      make([][][]dict.Code, len(attrs)),
		curVarying:   make([]map[NodeID]dict.Code, len(attrs)),
		dictSnap:     make([]*dict.Dict, len(attrs)),
		dictSnapLen:  make([]int, len(attrs)),
	}
	seen := make(map[string]bool, len(attrs))
	for i, spec := range attrs {
		if spec.Name == "" {
			panic(fmt.Sprintf("core: attribute %d has empty name", i))
		}
		if seen[spec.Name] {
			panic(fmt.Sprintf("core: duplicate attribute name %q", spec.Name))
		}
		seen[spec.Name] = true
		a.dicts[i] = dict.New()
	}
	return a
}

// NumNodes returns the number of distinct nodes seen so far.
func (a *Accumulator) NumNodes() int { return len(a.nodeLabels) }

// NodeID returns the id of the node with the given label, if seen.
func (a *Accumulator) NodeID(label string) (NodeID, bool) {
	n, ok := a.index.nodes[label]
	return n, ok
}

// StaticValue returns the currently recorded code of static attribute attr
// for node n (dict.None when unset). Callers use it to validate that a new
// batch does not contradict an earlier static value.
func (a *Accumulator) StaticValue(attr AttrID, n NodeID) dict.Code {
	return a.static[attr][n]
}

// StaticCode returns the code attr's dictionary currently assigns to value,
// or dict.None if the value has never been seen.
func (a *Accumulator) StaticCode(attr AttrID, value string) dict.Code {
	return a.dicts[attr].Code(value)
}

// ValueString decodes a code through attr's dictionary.
func (a *Accumulator) ValueString(attr AttrID, c dict.Code) string {
	return a.dicts[attr].Value(c)
}

// AddPoint starts a new time point with the given label. All subsequent
// SetNodeTime/SetEdgeTime/SetVarying calls apply to this point until the
// next AddPoint. The label must be new (callers validate).
func (a *Accumulator) AddPoint(label string) {
	a.finishPoint()
	a.labels = append(a.labels, label)
}

// column returns the current point's position among the appended
// point-index columns.
func (a *Accumulator) column() int { return len(a.labels) - 1 - a.head.points() }

// finishPoint freezes the current point's index columns and densifies its
// staged time-varying values into immutable rows.
func (a *Accumulator) finishPoint() {
	if len(a.labels) == 0 {
		return
	}
	a.nodeAt.freeze(a.column(), len(a.nodeLabels))
	a.edgeAt.freeze(a.column(), len(a.edges))
	t := len(a.labels) - 1
	for ai := range a.attrs {
		if a.attrs[ai].Kind != TimeVarying {
			continue
		}
		if len(a.varying[ai]) > t {
			continue // already densified (repeated Snapshot)
		}
		row := make([]dict.Code, len(a.nodeLabels))
		for i := range row {
			row[i] = dict.None
		}
		for n, c := range a.curVarying[ai] {
			row[n] = c
		}
		a.varying[ai] = append(a.varying[ai], row)
		a.curVarying[ai] = nil
	}
}

// EnsureNode returns the id of the node with the given label, registering
// it if new.
func (a *Accumulator) EnsureNode(label string) NodeID {
	if n, ok := a.index.nodes[label]; ok {
		return n
	}
	n := NodeID(len(a.nodeLabels))
	a.index.mu.Lock()
	a.index.nodes[label] = n
	a.index.mu.Unlock()
	a.nodeLabels = append(a.nodeLabels, label)
	a.nodeTau = append(a.nodeTau, bitset.New(len(a.labels)))
	a.nodeTauGen = append(a.nodeTauGen, a.gen)
	for ai := range a.attrs {
		if a.attrs[ai].Kind == Static {
			a.static[ai] = append(a.static[ai], dict.None)
		}
	}
	return n
}

// SetNodeTime marks node n as existing at the current point.
func (a *Accumulator) SetNodeTime(n NodeID) {
	s := a.touch(a.nodeTau[n], &a.nodeTauGen[n])
	if s != a.nodeTau[n] {
		// Replacing a pointer below the frozen length would mutate the
		// newest snapshot's view: copy the slice first (once per batch).
		if a.nodeTauShared && int(n) < a.nodeTauFrozen {
			a.nodeTau = append([]*bitset.Set(nil), a.nodeTau...)
			a.nodeTauShared = false
		}
		a.nodeTau[n] = s
	}
	a.nodeAt.mark(a.column(), int(n), a.elsewhere(s))
	s.Add(len(a.labels) - 1)
}

// touch prepares a timestamp bitset for mutation at the current point:
// clone when the set is frozen into a snapshot (or too short), in place
// otherwise.
func (a *Accumulator) touch(s *bitset.Set, sGen *uint64) *bitset.Set {
	if *sGen != a.gen || s.Len() < len(a.labels) {
		s = s.CloneGrow(len(a.labels))
		*sGen = a.gen
	}
	return s
}

// elsewhere reports whether timestamp s holds a point other than the
// current one: the entity exists at two or more points once recorded.
func (a *Accumulator) elsewhere(s *bitset.Set) bool {
	return !s.Contains(len(a.labels)-1) && !s.IsEmpty()
}

// EnsureEdge returns the id of edge (u, v), registering it if new.
func (a *Accumulator) EnsureEdge(u, v NodeID) EdgeID {
	key := Endpoints{u, v}
	if e, ok := a.index.edges[key]; ok {
		return e
	}
	e := EdgeID(len(a.edges))
	a.index.mu.Lock()
	a.index.edges[key] = e
	a.index.mu.Unlock()
	a.edges = append(a.edges, key)
	a.edgeTau = append(a.edgeTau, bitset.New(len(a.labels)))
	a.edgeTauGen = append(a.edgeTauGen, a.gen)
	return e
}

// SetEdgeTime marks edge e as existing at the current point.
func (a *Accumulator) SetEdgeTime(e EdgeID) {
	s := a.touch(a.edgeTau[e], &a.edgeTauGen[e])
	if s != a.edgeTau[e] {
		if a.edgeTauShared && int(e) < a.edgeTauFrozen {
			a.edgeTau = append([]*bitset.Set(nil), a.edgeTau...)
			a.edgeTauShared = false
		}
		a.edgeTau[e] = s
	}
	a.edgeAt.mark(a.column(), int(e), a.elsewhere(s))
	s.Add(len(a.labels) - 1)
}

// intern returns attr's code for value, copying value into the dictionary
// only when new: a caller passing converted bytes allocates nothing else.
func (a *Accumulator) intern(attr AttrID, value string) dict.Code {
	if c := a.dicts[attr].Code(value); c != dict.None {
		return c
	}
	return a.dicts[attr].Put(strings.Clone(value))
}

// SetStatic records the value of static attribute attr for node n. Writing
// below the newest snapshot's frozen length copies the column first
// (filling a value that earlier points left unset — the only legal case,
// since conflicting rewrites are rejected by the caller).
func (a *Accumulator) SetStatic(attr AttrID, n NodeID, value string) {
	c := a.intern(attr, value)
	col := a.static[attr]
	if col[n] == c {
		return
	}
	if int(n) < a.staticFrozen[attr] {
		col = append([]dict.Code(nil), col...)
		a.static[attr] = col
		a.staticFrozen[attr] = 0
	}
	col[n] = c
}

// SetVarying records the value of time-varying attribute attr for node n at
// the current point.
func (a *Accumulator) SetVarying(attr AttrID, n NodeID, value string) {
	if a.curVarying[attr] == nil {
		a.curVarying[attr] = make(map[NodeID]dict.Code)
	}
	a.curVarying[attr][n] = a.intern(attr, value)
}

// Snapshot freezes the accumulated state into an immutable Graph. The tau
// pointer slices, the timeline and the dictionaries are shared with the
// accumulator (and re-cloned lazily only when a later batch actually
// dirties them), so the cost is O(new entities + new points) per batch
// instead of O(nodes + edges) — independent of how much history each
// entity carries. It panics when no point has been appended (a graph
// needs a non-empty timeline).
func (a *Accumulator) Snapshot() *Graph {
	if len(a.labels) == 0 {
		panic("core: snapshot of an accumulator with no time points")
	}
	a.finishPoint()
	tl := a.tlSnap
	if tl == nil || tl.Len() != len(a.labels) {
		var err error
		if tl, err = timeline.New(a.labels...); err != nil {
			panic("core: " + err.Error()) // duplicate labels are rejected at AddPoint by callers
		}
		a.tlSnap = tl
	}
	g := &Graph{
		tl:         tl,
		attrs:      a.attrs,
		dicts:      make([]*dict.Dict, len(a.dicts)),
		nodeLabels: a.nodeLabels[:len(a.nodeLabels):len(a.nodeLabels)],
		nodeTau:    a.nodeTau[:len(a.nodeTau):len(a.nodeTau)],
		edges:      a.edges[:len(a.edges):len(a.edges)],
		edgeTau:    a.edgeTau[:len(a.edgeTau):len(a.edgeTau)],
		static:     make([][]dict.Code, len(a.attrs)),
		varying:    make([][][]dict.Code, len(a.attrs)),
		shared:     a.index,
		points: PointIndex{
			head:       a.head,
			nodeAt:     a.nodeAt.cols[:len(a.nodeAt.cols):len(a.nodeAt.cols)],
			edgeAt:     a.edgeAt.cols[:len(a.edgeAt.cols):len(a.edgeAt.cols)],
			multiNodes: a.nodeAt.multiSet(len(a.nodeTau)),
			multiEdges: a.edgeAt.multiSet(len(a.edgeTau)),
		},
	}
	a.nodeTauShared, a.nodeTauFrozen = true, len(a.nodeTau)
	a.edgeTauShared, a.edgeTauFrozen = true, len(a.edgeTau)
	for i, d := range a.dicts {
		if a.dictSnap[i] == nil || a.dictSnapLen[i] != d.Len() {
			a.dictSnap[i] = d.Clone()
			a.dictSnapLen[i] = d.Len()
		}
		g.dicts[i] = a.dictSnap[i]
	}
	for ai := range a.attrs {
		if a.attrs[ai].Kind == Static {
			col := a.static[ai]
			g.static[ai] = col[:len(col):len(col)]
			a.staticFrozen[ai] = len(col)
		} else {
			rows := a.varying[ai]
			g.varying[ai] = rows[:len(rows):len(rows)]
		}
	}
	a.gen++
	return g
}
