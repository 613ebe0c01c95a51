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

// Save writes g, and optionally materialized stores over g, to w in the
// binary snapshot format.
func Save(w io.Writer, g *core.Graph, stores ...*materialize.Store) error {
	return writeSnapshotV2(w, g, stores, nil, 0)
}

// SaveFile writes the snapshot atomically: a .tmp file in the target
// directory is synced and renamed over path, so readers only ever observe
// a complete snapshot.
func SaveFile(path string, g *core.Graph, stores ...*materialize.Store) error {
	return saveFile(osFS{}, path, g, stores, nil, 0)
}

// saveFile is SaveFile for checkpoints too: records are the raw ingest
// record payloads (the WAL encoding) a stream checkpoint embeds.
func saveFile(fs fsys, path string, g *core.Graph, stores []*materialize.Store, records [][]byte, coveredTxn int) error {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = writeSnapshotV2(bw, g, stores, records, coveredTxn)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp)
		return err
	}
	return syncDir(fs, filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
func syncDir(fs fsys, dir string) error {
	d, err := fs.OpenFile(dir, os.O_RDONLY, 0)
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
