package storage

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stream"
)

// seriesFromSnapshot rebuilds the in-memory series of a stream checkpoint
// by replaying its embedded ingest records — the same encoding the WAL
// carries, in the same transaction order — so dictionary codes and append
// order come out exactly as the original process built them, and recovered
// query responses are byte-identical to pre-crash ones. Retroactive
// records route through AppendAt, reproducing the valid-time insert.
func seriesFromSnapshot(snap *Snapshot, attrs []core.AttrSpec) (*stream.Series, error) {
	if err := matchAttrs(snap.Graph.Attrs(), attrs); err != nil {
		return nil, err
	}
	if len(snap.points) != snap.Graph.Timeline().Len() {
		return nil, fmt.Errorf("%w: snapshot carries %d series records for %d time points (not a stream checkpoint?)",
			ErrCorrupt, len(snap.points), snap.Graph.Timeline().Len())
	}
	s := stream.New(attrs...)
	for _, p := range snap.points {
		if err := replayRecord(s, p.payload); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// replayRecord applies one encoded ingest record (either type) to a series.
func replayRecord(s *stream.Series, payload []byte) error {
	label, before, batch, err := DecodeIngestRecord(payload)
	if err != nil {
		return err
	}
	if _, err := s.AppendAt(label, batch, before); err != nil {
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
