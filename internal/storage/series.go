package storage

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stream"
)

// seriesFromSnapshot rebuilds the in-memory series of a stream checkpoint:
// its embedded ingest records — the WAL's encoding, in transaction order —
// become the series journal, each entry keeping its record's bytes, and its
// graph, which is the series' own graph at the checkpoint, seeds the
// accumulator, so no record is applied twice and dictionary codes and
// entity IDs come back in the order the original process assigned them.
// Recovered query responses are byte-identical to pre-crash ones.
func seriesFromSnapshot(snap *Snapshot, attrs []core.AttrSpec) (*stream.Series, error) {
	if err := matchAttrs(snap.Graph.Attrs(), attrs); err != nil {
		return nil, err
	}
	if len(snap.records) != snap.Graph.Timeline().Len() {
		return nil, fmt.Errorf("%w: snapshot carries %d series records for %d time points (not a stream checkpoint?)",
			ErrCorrupt, len(snap.records), snap.Graph.Timeline().Len())
	}
	journal := make([]stream.JournalEntry, len(snap.records))
	for i, payload := range snap.records {
		label, before, batch, err := DecodeIngestRecord(payload)
		if err != nil {
			return nil, err
		}
		journal[i] = stream.JournalEntry{Label: label, Before: before, Snap: batch, Record: payload}
	}
	s, err := stream.Restore(snap.Graph, journal, len(journal))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, nil
}

// replayRecord applies one encoded ingest record (either type) to a series,
// whose journal keeps a copy of the payload.
func replayRecord(s *stream.Series, payload []byte) error {
	label, before, batch, err := DecodeIngestRecord(payload)
	if err != nil {
		return err
	}
	e := stream.JournalEntry{Label: label, Before: before, Snap: batch, Record: append([]byte(nil), payload...)}
	if _, err := s.AppendEntry(e); err != nil {
		return fmt.Errorf("%w: replay of %q: %v", ErrCorrupt, label, err)
	}
	return nil
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
