package storage

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
)

// recover loads the directory state into e: series, generation, active
// WAL writer, and the RecoveryInfo describing what happened.
//
// Recovery order:
//
//  1. Remove leftover .tmp files (incomplete snapshot writes).
//  2. Load the newest snapshot that passes validation; a corrupt snapshot
//     is logged and the next older one tried, because the WAL segments it
//     would have replaced are only garbage-collected after the new
//     snapshot verified — an older snapshot plus its segments is always
//     complete. When none loads and the segments do not reach back to
//     generation 0, the history before the oldest segment is gone with the
//     snapshots: refuse with ErrUnrecoverable rather than serve the rest.
//  3. Replay every WAL segment with generation ≥ the loaded snapshot's,
//     in ascending order. Only the newest segment may carry a torn tail
//     (rotation syncs a segment before creating its successor); the tail
//     is truncated to the last complete record. If an unloadable snapshot's
//     framed meta sections still parse and name a covered txn above the
//     one replay reached, records it covered are gone: refuse with
//     ErrUnrecoverable before touching any file.
//  4. Garbage-collect snapshots and segments older than the loaded
//     snapshot's generation — never a segment that snapshot does not cover
//     — and open the newest segment for append (creating segment <gen> if
//     none exists).
func (e *Engine) recover(attrs []core.AttrSpec) error {
	start := time.Now()
	snaps, segs, err := e.scan()
	if err != nil {
		return err
	}

	// Newest loadable snapshot wins.
	var (
		loaded     *Snapshot
		snapGen    uint64
		unloadable []string
		// named is the highest covered txn an unloadable snapshot still
		// names in its meta sections (namedBy), 0 when none does.
		named   int
		namedBy string
	)
	for i := len(snaps) - 1; i >= 0; i-- {
		gen := snaps[i]
		data, rerr := e.fs.ReadFile(filepath.Join(e.dir, snapName(gen)))
		if rerr != nil {
			return rerr // IO error: do not silently fall back
		}
		s, lerr := decode(data)
		if lerr == nil {
			loaded, snapGen = s, gen
			break
		}
		if !errorsIsAny(lerr, ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum, ErrCorrupt) {
			return lerr
		}
		e.log.Warn("snapshot unusable, trying previous generation",
			"file", snapName(gen), "err", lerr)
		unloadable = append(unloadable, fmt.Sprintf("%s: %v", snapName(gen), lerr))
		if p, perr := parseV2(data, false); perr == nil {
			if txn := (&Snapshot{records: p.records, coveredTxn: p.coveredTxn}).CoveredTxn(); txn > named {
				named, namedBy = txn, snapName(gen)
			}
		}
	}
	if loaded == nil && len(unloadable) > 0 && (len(segs) == 0 || segs[0] > 0) {
		oldest := "none"
		if len(segs) > 0 {
			oldest = walName(segs[0])
		}
		return fmt.Errorf("%w: %s: no snapshot loads (%s) and the oldest surviving wal segment is %s; the records before it exist only in those snapshots",
			ErrUnrecoverable, e.dir, strings.Join(unloadable, "; "), oldest)
	}

	if loaded != nil {
		e.series, err = seriesFromSnapshot(loaded, attrs)
		if err != nil {
			return err
		}
		e.recovery.SnapshotGeneration = snapGen
		e.recovery.SnapshotPoints = e.series.Len()
	} else {
		e.series = stream.New(attrs...)
	}
	e.gen = snapGen

	// Replay segments at or after the snapshot generation.
	var replaySegs []uint64
	for _, gen := range segs {
		if gen >= snapGen {
			replaySegs = append(replaySegs, gen)
		}
	}
	var (
		tailPath    string
		tailGoodLen int64
	)
	for i, gen := range replaySegs {
		path := filepath.Join(e.dir, walName(gen))
		records, goodLen, size, rerr := replayWAL(e.fs, path, func(p []byte) error {
			// The series journals p, which ReadFramedRecord allocated.
			if _, err := e.series.AppendRecord(p); err != nil {
				return fmt.Errorf("%w: replay: %v", ErrCorrupt, err)
			}
			return nil
		})
		if errors.Is(rerr, ErrTruncated) && i == len(replaySegs)-1 {
			// A crash cut this segment's creation short: its header is synced
			// before any record is written, so it held none. Recreate it.
			e.log.Warn("wal segment without a complete header, recreating", "file", walName(gen), "bytes", size)
			e.gen = max(e.gen, gen)
			if rerr = e.fs.Remove(path); rerr == nil {
				break
			}
		}
		if rerr != nil {
			return fmt.Errorf("replay %s: %w", walName(gen), rerr)
		}
		if goodLen < size {
			if i != len(replaySegs)-1 {
				return fmt.Errorf("%w: non-final wal segment %s has a torn tail", ErrCorrupt, walName(gen))
			}
			e.recovery.TruncatedBytes = size - goodLen
			e.log.Warn("wal tail truncated to last complete record",
				"file", walName(gen), "records", records, "discarded_bytes", e.recovery.TruncatedBytes)
		}
		e.recovery.WALRecords += records
		e.recovery.WALSegments++
		if gen > e.gen {
			e.gen = gen
		}
		if i == len(replaySegs)-1 {
			tailPath, tailGoodLen, e.segRecords = path, goodLen, records
		}
	}
	if txn := e.series.Txn(); named > txn {
		from := "no snapshot"
		if loaded != nil {
			from = snapName(snapGen)
		}
		return fmt.Errorf("%w: %s: %s does not load but covers txn %d; %s and the surviving wal segments reach only txn %d",
			ErrUnrecoverable, e.dir, namedBy, named, from, txn)
	}
	if tailPath != "" {
		if e.wal, err = openWALForAppend(e.fs, tailPath, tailGoodLen); err != nil {
			return err
		}
	} else {
		e.wal, err = createWAL(e.fs, filepath.Join(e.dir, walName(e.gen)), e.gen)
		if err != nil {
			return err
		}
		if err := syncDir(e.fs, e.dir); err != nil {
			return err
		}
	}

	e.gcBefore(snapGen)
	e.recovery.Elapsed = time.Since(start)
	if e.recovery.SnapshotPoints > 0 || e.recovery.WALRecords > 0 {
		e.log.Info("storage recovered",
			"dir", e.dir, "generation", e.gen,
			"snapshot_points", e.recovery.SnapshotPoints,
			"wal_records", e.recovery.WALRecords,
			"truncated_bytes", e.recovery.TruncatedBytes,
			"elapsed", e.recovery.Elapsed.Round(time.Millisecond).String())
	}
	return nil
}

// scan lists snapshot and segment generations (ascending) and removes
// leftover temporary files.
func (e *Engine) scan() (snaps, segs []uint64, err error) {
	entries, err := e.fs.ReadDir(e.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasSuffix(name, ".tmp") {
			e.fs.Remove(filepath.Join(e.dir, name))
			continue
		}
		if gen, ok := parseGen(name, "snapshot-", ".gts"); ok {
			snaps = append(snaps, gen)
		}
		if gen, ok := parseGen(name, "wal-", ".log"); ok {
			segs = append(segs, gen)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return snaps, segs, nil
}

// gcBefore removes the snapshots and segments older than generation keep —
// files the verified snapshot of that generation made redundant. Snapshots
// go first, so a crash in between never leaves a snapshot without the
// segments that follow it.
func (e *Engine) gcBefore(keep uint64) {
	snaps, segs, err := e.scan()
	if err != nil {
		return
	}
	for _, gen := range snaps {
		if gen < keep {
			e.fs.Remove(filepath.Join(e.dir, snapName(gen)))
		}
	}
	for _, gen := range segs {
		if gen < keep {
			e.fs.Remove(filepath.Join(e.dir, walName(gen)))
		}
	}
}
