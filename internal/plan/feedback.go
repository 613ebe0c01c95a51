package plan

import "sync"

// Feedback closes the planner's loop: executed plans record what they
// actually observed — the view's selected entity count and the aggregate's
// output cardinality — and Compile consults those observations the next
// time the same logical query is planned. The cost model alone sees only
// graph-wide totals (scanCost = |V|+|E|); observations are per-query and
// per-dataset, so they can demote a parallel plan whose merge dominates.
//
// Observations are advisory: a stale or wrong one costs performance, never
// correctness (every operator computes the same result on every engine).
// They are keyed on the canonical logical text (Logical.Key, the plan
// cache's key without its epoch suffix) and bounded FIFO like the plan
// cache. Safe for concurrent use.
type Feedback struct {
	mu    sync.Mutex
	obs   map[string]*Observation
	order []string
	max   int
}

// Observation is what one executed plan reported about a logical query.
type Observation struct {
	// Entities is the entity count (nodes + edges) the plan's view selected.
	Entities int
	// Results is the output cardinality: distinct aggregate node tuples
	// plus edge tuple pairs. Against Entities it bounds the per-worker
	// merge cost of the parallel engine.
	Results int
	// Executions counts how many runs reported this key.
	Executions int64

	// epoch increments when an observation materially changes the decision
	// inputs (first record, or a ≥2x move in either cardinality). The plan
	// cache key includes it, so adapted selections take effect on the next
	// compile instead of being pinned behind a stale cached plan.
	epoch int
}

// feedbackMaxKeys bounds the observation map; FIFO eviction past it.
const feedbackMaxKeys = 1024

// NewFeedback returns an empty feedback store.
func NewFeedback() *Feedback {
	return &Feedback{obs: make(map[string]*Observation), max: feedbackMaxKeys}
}

// materially reports whether b is a ≥2x move from a in either direction —
// the hysteresis that keeps repeated executions of a stable query from
// bumping epochs (and re-compiling) forever.
func materially(a, b int) bool {
	if a == b {
		return false
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo*2 <= hi
}

// observe records one execution's cardinalities for a logical key.
func (f *Feedback) observe(key string, entities, results int) {
	if f == nil {
		return
	}
	Feedbacks.Cardinality.Inc()
	f.mu.Lock()
	defer f.mu.Unlock()
	o := f.obs[key]
	if o == nil {
		for len(f.order) >= f.max {
			delete(f.obs, f.order[0])
			f.order = f.order[1:]
		}
		o = &Observation{epoch: 1}
		f.obs[key] = o
		f.order = append(f.order, key)
	} else if materially(o.Entities, entities) || materially(o.Results, results) {
		o.epoch++
	}
	o.Entities, o.Results = entities, results
	o.Executions++
}

// Lookup returns the recorded observation for a logical key.
func (f *Feedback) Lookup(key string) (Observation, bool) {
	if f == nil {
		return Observation{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if o := f.obs[key]; o != nil {
		return *o, true
	}
	return Observation{}, false
}

// Reset drops every observation: the serving snapshot was replaced
// wholesale, so cardinalities observed against the old graph no longer
// describe anything. (Append-only advances keep observations — entity
// counts only grow under the append-only contract, and the hysteresis
// absorbs the drift.)
func (f *Feedback) Reset() {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	clear(f.obs)
	f.order = f.order[:0]
}

// epochFor is the feedback component of the plan cache key: it changes
// exactly when a new observation should invalidate the cached plan for
// this logical key.
func (f *Feedback) epochFor(key string) int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if o := f.obs[key]; o != nil {
		return o.epoch
	}
	return 0
}

// ---- selection adaptation --------------------------------------------

// mergeBoundFactor demotes a parallel aggregation to serial when the
// observed output cardinality is within this factor of the selected entity
// count: each worker materializes a private partial with ~all result
// tuples, so the O(workers × results) merge eats the sharded scan's win.
// It only ever trades one correct engine for another, so it is coarse on
// purpose.
const mergeBoundFactor = 4

// mergeBound reports whether feedback demotes one aggregate compile to
// serial: its last run selected a view past the engine's serial/parallel
// crossover (parallelMin, agg.ParallelMinEntities) and answered within
// mergeBoundFactor of it.
func mergeBound(f *Feedback, key string, parallelMin int) bool {
	obs, ok := f.Lookup(key)
	return ok && obs.Entities >= parallelMin && obs.Results*mergeBoundFactor >= obs.Entities
}
