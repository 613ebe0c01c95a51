package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
)

// walHeaderSize is magic (8) + version (2) + generation (8).
const walHeaderSize = 18

// walWriter appends framed records to one WAL segment.
type walWriter struct {
	f   file
	buf []byte // reused framing buffer: one contiguous write per record
}

// createWAL creates a fresh segment with a synced header, so a segment
// observed by recovery always has a parsable preamble.
func createWAL(fs fsys, path string, gen uint64) (*walWriter, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr [walHeaderSize]byte
	copy(hdr[:8], walMagic)
	binary.LittleEndian.PutUint16(hdr[8:10], formatVersion)
	binary.LittleEndian.PutUint64(hdr[10:18], gen)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f}, nil
}

// openWALForAppend reopens an existing segment truncated to goodLen, the
// end of its last complete record, where subsequent appends land.
func openWALForAppend(fs fsys, path string, goodLen int64) (*walWriter, error) {
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(goodLen); err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f}, nil
}

// append frames and writes one record; durability is the caller's fsync
// policy.
func (w *walWriter) append(payload []byte) (int, error) {
	w.buf = appendRecord(w.buf[:0], payload)
	n, err := w.f.Write(w.buf)
	return n, err
}

func (w *walWriter) sync() error  { return w.f.Sync() }
func (w *walWriter) close() error { return w.f.Close() }

// replayWAL streams the records of one segment through fn, validating the
// header and every checksum. A torn tail — a record cut short or failing
// its checksum at the end of the file — stops replay and reports the
// offset of the last complete record and the segment's size (goodLen <
// size: torn); the caller truncates there before appending. Header-level
// failures surface as typed errors.
func replayWAL(fs fsys, path string, fn func(payload []byte) error) (records int, goodLen, size int64, err error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return 0, 0, 0, err
	}
	size = int64(len(data))
	if len(data) < walHeaderSize {
		return 0, 0, size, fmt.Errorf("%w: wal header of %s", ErrTruncated, path)
	}
	if string(data[:8]) != walMagic {
		return 0, 0, size, fmt.Errorf("%w: %s is not a wal segment", ErrBadMagic, path)
	}
	if v := binary.LittleEndian.Uint16(data[8:10]); v != formatVersion {
		return 0, 0, size, fmt.Errorf("%w: wal version %d, reader version %d", ErrVersion, v, formatVersion)
	}
	r := bytes.NewReader(data[walHeaderSize:])
	for goodLen = walHeaderSize; ; {
		// Any framing or checksum failure is treated as a torn tail: the
		// write that produced it never completed (records are appended with
		// a single contiguous write and the segment is synced before a
		// successor segment is created).
		payload, rerr := ReadFramedRecord(r)
		if rerr != nil {
			return records, goodLen, size, nil
		}
		if err := fn(payload); err != nil {
			return records, goodLen, size, err
		}
		records++
		goodLen += 8 + int64(len(payload))
	}
}
