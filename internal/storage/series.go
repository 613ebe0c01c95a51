package storage

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stream"
)

// seriesFromSnapshot rebuilds the series of a stream checkpoint: its
// embedded records, in transaction order, become the journal as they are,
// and its graph seeds the accumulator, so no record is applied twice and
// codes and entity IDs come back in their original order — recovered
// responses are byte-identical to pre-crash ones.
func seriesFromSnapshot(snap *Snapshot, attrs []core.AttrSpec) (*stream.Series, error) {
	if err := matchAttrs(snap.Graph.Attrs(), attrs); err != nil {
		return nil, err
	}
	if len(snap.records) != snap.Graph.Timeline().Len() {
		return nil, fmt.Errorf("%w: snapshot carries %d series records for %d time points (not a stream checkpoint?)",
			ErrCorrupt, len(snap.records), snap.Graph.Timeline().Len())
	}
	journal := make([]stream.JournalEntry, len(snap.records))
	for i, rec := range snap.records {
		e, err := stream.RecordEntry(rec)
		if err != nil {
			return nil, fmt.Errorf("%w: series record %d: %v", ErrCorrupt, i, err)
		}
		journal[i] = e
	}
	s, err := stream.Restore(snap.Graph, journal, len(journal))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, nil
}

// matchAttrs verifies the on-disk schema equals the configured one: a data
// directory cannot be reopened under a different attribute schema.
func matchAttrs(have, want []core.AttrSpec) error {
	if len(have) != len(want) {
		return fmt.Errorf("storage: data directory schema has %d attributes, configuration has %d",
			len(have), len(want))
	}
	for i := range have {
		if have[i] != want[i] {
			return fmt.Errorf("storage: data directory attribute %d is %q (kind %d), configuration says %q (kind %d)",
				i, have[i].Name, have[i].Kind, want[i].Name, want[i].Kind)
		}
	}
	return nil
}
