// Package storage is graphtempod's durable persistence engine: a
// versioned, CRC32C-checksummed binary format with two parts — a columnar
// snapshot of the dictionary-encoded temporal graph (plus optional
// materialized per-time-point aggregate vectors and, for stream-mode
// checkpoints, the raw ingest records), and an append-only write-ahead log
// of stream ingest batches.
//
// The daemon opens an Engine over a data directory: boot recovers the
// latest valid snapshot and replays the WAL segments that follow it
// (truncating a torn tail to the last complete record), ingestion appends
// to the WAL under a configurable fsync policy before acknowledging, and a
// background checkpointer compacts the WAL into a new snapshot generation
// with atomic rename and old-file garbage collection. See DESIGN.md §4.
//
// File layout of a data directory:
//
//	snapshot-<gen>.gts   columnar snapshot covering every record before
//	                     WAL segment <gen> (16-digit zero-padded hex)
//	wal-<gen>.log        ingest records appended after snapshot <gen>
//	*.tmp                in-progress snapshot writes (removed on open)
//
// Both file kinds share one record framing:
//
//	[length uint32 LE][crc32c uint32 LE][payload]
//
// where the checksum is the Castagnoli CRC of the payload. A snapshot is a
// header (magic "GTSNAP01", version uint16) followed by framed sections
// and a terminating end section; a WAL segment is a header (magic
// "GTWAL001", version, generation) followed by framed ingest records.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	snapMagic = "GTSNAP01"
	walMagic  = "GTWAL001"

	// formatVersion is the one snapshot format: framed varint meta sections
	// plus an 8-aligned little-endian blob area for the fixed-width numeric
	// columns (existence words, edge endpoints, attribute codes), described
	// by a directory section, so a reader can serve them straight out of
	// the file's bytes. Any other version is ErrVersion (version 1 framed
	// every column inside varint records; no such file exists any more).
	formatVersion uint16 = 2

	// maxRecordBytes bounds a single framed record, guarding the reader
	// against absurd allocations from corrupt length prefixes.
	maxRecordBytes = 1 << 30
)

// FormatVersion is the on-disk snapshot/WAL format version, exported for
// the serving tier's /v1/status report.
const FormatVersion = formatVersion

// Typed errors. Readers never panic on malformed input: every failure maps
// to one of these (possibly wrapped with positional detail).
var (
	// ErrBadMagic marks a file that is not a snapshot/WAL at all.
	ErrBadMagic = errors.New("storage: bad magic")
	// ErrVersion marks a file written by an incompatible format version.
	ErrVersion = errors.New("storage: unsupported format version")
	// ErrTruncated marks a file that ends mid-header, mid-record, or
	// before the snapshot end marker.
	ErrTruncated = errors.New("storage: truncated file")
	// ErrChecksum marks a record whose payload does not match its CRC32C.
	ErrChecksum = errors.New("storage: checksum mismatch")
	// ErrCorrupt marks structurally invalid content inside a record that
	// passed its checksum (impossible lengths, dangling references).
	ErrCorrupt = errors.New("storage: corrupt content")
	// ErrWAL wraps a failure to append or sync the write-ahead log; the
	// in-memory state is ahead of disk when it is returned.
	ErrWAL = errors.New("storage: wal append failed")
	// ErrUnrecoverable is returned by Open when booting would serve a
	// fragment of the acknowledged history: no snapshot in the data
	// directory loads and the surviving WAL segments do not reach back to
	// generation 0, or an unloadable snapshot still names a covered txn
	// above the one recovery reached without it. The records in between
	// exist only in the damaged file(s); the message names them.
	ErrUnrecoverable = errors.New("storage: unrecoverable data directory")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteFramedRecord frames payload as [len u32 LE][crc32c u32 LE][payload]
// into w — the framing of WAL records, snapshot sections and the
// replication stream (`/v1/wal/stream`), which is a plain sequence of such
// frames, one ingest record each, in transaction order from a txn.
func WriteFramedRecord(w io.Writer, payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// appendRecord frames payload into buf (one contiguous slice, so a WAL
// append is a single write syscall and a torn tail is contiguous).
func appendRecord(buf, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// ReadFramedRecord reads and checksum-verifies one framed record from r.
// io.EOF at a record boundary is returned as io.EOF; a partial header or
// short payload maps to ErrTruncated, a bad checksum to ErrChecksum. The
// returned payload is a fresh allocation that belongs to the caller: a
// series may journal it as it is.
func ReadFramedRecord(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: partial record header", ErrTruncated)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxRecordBytes {
		return nil, fmt.Errorf("%w: record length %d exceeds limit", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: record payload short (want %d bytes)", ErrTruncated, n)
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, ErrChecksum
	}
	return payload, nil
}
