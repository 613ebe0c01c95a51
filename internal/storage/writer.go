package storage

import (
	"bufio"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/materialize"
	"repro/internal/timeline"
)

// Snapshot section identifiers, in the order sections are written:
// timeline, schema and node labels are mandatory, stores, series and the
// txn watermark optional; the blob directory and reserved section 12 are
// declared beside the blob layout in writer_v2.go. Ids 4–8 framed the
// numeric columns in format version 1 and are never reused.
const (
	secTimeline byte = 1  // time point labels
	secSchema   byte = 2  // attribute specs + per-attribute dictionaries
	secNodes    byte = 3  // node label column
	secStores   byte = 9  // materialized per-point aggregate vectors
	secSeries   byte = 10 // raw stream ingest records (checkpoints only)
	secTxnMeta  byte = 13 // covered-txn watermark (bi-temporal checkpoints)
	secEnd      byte = 0xff
)

// seriesPoint is one raw ingest record carried inside a checkpoint
// snapshot so stream recovery reproduces the exact append sequence.
type seriesPoint struct {
	payload []byte // encoded as a WAL ingest record payload
}

// Save writes g, and optionally materialized stores over g, to w in the
// binary snapshot format.
func Save(w io.Writer, g *core.Graph, stores ...*materialize.Store) error {
	return writeSnapshotV2(w, g, stores, nil, 0)
}

// SaveFile writes the snapshot atomically: a .tmp file in the target
// directory is synced and renamed over path, so readers only ever observe
// a complete snapshot.
func SaveFile(path string, g *core.Graph, stores ...*materialize.Store) error {
	return saveFile(path, g, stores, nil, 0)
}

func saveFile(path string, g *core.Graph, stores []*materialize.Store, points []seriesPoint, coveredTxn int) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := writeSnapshotV2(bw, g, stores, points, coveredTxn); err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// writeStore serializes one materialized per-point store: its attribute
// ids, then for every time point the aggregate node and edge entries with
// decoded attribute values (so a reloaded store only depends on the value
// domain, not on internal code assignment).
func writeStore(e *enc, g *core.Graph, st *materialize.Store) {
	s := st.Schema()
	attrs := s.Attrs()
	e.uvarint(uint64(len(attrs)))
	for _, a := range attrs {
		e.uvarint(uint64(a))
	}
	T := g.Timeline().Len()
	for t := 0; t < T; t++ {
		ag := st.Point(timeline.Time(t))
		nodes := ag.SortedNodes()
		e.uvarint(uint64(len(nodes)))
		for _, tu := range nodes {
			for _, v := range s.Decode(tu) {
				e.str(v)
			}
			e.varint(ag.Nodes[tu])
		}
		edges := ag.SortedEdges()
		e.uvarint(uint64(len(edges)))
		for _, k := range edges {
			for _, v := range s.Decode(k.From) {
				e.str(v)
			}
			for _, v := range s.Decode(k.To) {
				e.str(v)
			}
			e.varint(ag.Edges[k])
		}
	}
}
