package materialize

import (
	"fmt"

	"repro/internal/agg"
)

// NewStoreFromPoints wraps externally decoded per-time-point ALL
// aggregates as a Store — the reconstruction path of binary snapshot
// loading (internal/storage). Every point must carry the given schema and
// the ALL kind, and there must be exactly one per base time point.
func NewStoreFromPoints(s *agg.Schema, perPoint []*agg.Graph) (*Store, error) {
	if want := s.Graph().Timeline().Len(); len(perPoint) != want {
		return nil, fmt.Errorf("materialize: %d per-point aggregates for a timeline of %d points", len(perPoint), want)
	}
	for t, ag := range perPoint {
		if ag == nil || ag.Schema != s {
			return nil, fmt.Errorf("materialize: point %d carries a different schema", t)
		}
		if ag.Kind != agg.All {
			return nil, fmt.Errorf("materialize: point %d is not an ALL aggregate", t)
		}
	}
	return &Store{schema: s, perPoint: perPoint}, nil
}
