package storage

import (
	"bufio"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// Snapshot section identifiers, in the order sections are written:
// timeline, schema and node labels are mandatory, series and the txn
// watermark optional; the blob directory and reserved sections 9 and 12 are
// declared beside the blob layout in writer_v2.go. Ids 4–8 framed the
// numeric columns in format version 1 and are never reused.
const (
	secTimeline byte = 1  // time point labels
	secSchema   byte = 2  // attribute specs + per-attribute dictionaries
	secNodes    byte = 3  // node label column
	secSeries   byte = 10 // raw stream ingest records (checkpoints only)
	secTxnMeta  byte = 13 // covered-txn watermark (bi-temporal checkpoints)
	secEnd      byte = 0xff
)

// Save writes g to w in the binary snapshot format.
func Save(w io.Writer, g *core.Graph) error {
	return writeSnapshotV2(w, g, nil, 0)
}

// SaveFile writes the snapshot atomically: a .tmp file in the target
// directory is synced and renamed over path, so readers only ever observe
// a complete snapshot.
func SaveFile(path string, g *core.Graph) error {
	return saveFile(osFS{}, path, g, nil, 0)
}

// saveFile is SaveFile for checkpoints too: records are the raw ingest
// record payloads (the WAL encoding) a stream checkpoint embeds.
func saveFile(fs fsys, path string, g *core.Graph, records [][]byte, coveredTxn int) error {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = writeSnapshotV2(bw, g, records, coveredTxn)
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
