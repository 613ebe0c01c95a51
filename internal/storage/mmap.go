package storage

import (
	"io"
	"os"

	"repro/internal/core"
)

// Mapped is a snapshot served directly out of a file mapping: the graph's
// existence words, edge endpoints and attribute code columns alias the
// mapped bytes. Close unmaps the file; the graph (and anything derived from
// it) must not be used afterwards, so long-lived servers keep the Mapped
// open for the process lifetime.
type Mapped struct {
	*Snapshot

	// Source records where the snapshot's bytes live: "mmap" (a read-only
	// file mapping) or "heap" (the file read into one buffer, on platforms
	// without mmap and on big-endian hosts).
	Source string

	data  []byte
	unmap func([]byte) error
}

// Close releases the mapping (or buffer). Safe to call more than once.
func (m *Mapped) Close() error {
	data, unmap := m.data, m.unmap
	m.data, m.unmap = nil, nil
	if data != nil && unmap != nil {
		return unmap(data)
	}
	return nil
}

// OpenMapped opens a snapshot file for zero-copy serving: the decoder Load
// runs, over a file mapping instead of a heap buffer, making boot time
// independent of how much of the graph is ever read.
//
// It validates structure — framed meta sections keep their checksums, blob
// regions are bounds- and shape-checked, and core.FromColumns range-checks
// every endpoint, existence word and code — but neither checksums the blob
// bytes (that would page the whole file in, defeating the point) nor runs
// Graph.Validate; use Load when full verification matters more than boot
// latency.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, source, err := mapOrRead(f, fi.Size())
	if err != nil {
		return nil, err
	}
	m := &Mapped{Source: source, data: data, unmap: unmap}
	if m.Snapshot, err = decode(data, false); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// mapOrRead picks the byte source: a mapping where the platform has mmap and
// the host reads the blobs' little-endian fields as they lie, otherwise the
// file read into an anonymous buffer (which hostOrder may then convert in
// place).
func mapOrRead(f *os.File, size int64) ([]byte, func([]byte) error, string, error) {
	if hostLittleEndian() {
		if data, unmap, err := mmapFile(f, size); err == nil {
			return data, unmap, "mmap", nil
		}
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, nil, "", err
	}
	return data, nil, "heap", nil
}

// MappedGraph opens path with OpenMapped and returns only the graph, the
// zero-copy counterpart of LoadGraph. The returned closer owns the
// mapping.
func MappedGraph(path string) (*core.Graph, *Mapped, error) {
	m, err := OpenMapped(path)
	if err != nil {
		return nil, nil, err
	}
	return m.Graph, m, nil
}
