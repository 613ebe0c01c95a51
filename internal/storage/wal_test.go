package storage

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
)

func testBatch(i int) (string, stream.Snapshot) {
	return fmt.Sprintf("t%d", i), stream.Snapshot{
		Nodes: []stream.NodeRecord{
			{Label: "a", Static: map[string]string{"gender": "f"}, Varying: map[string]string{"pubs": fmt.Sprint(i)}},
			{Label: fmt.Sprintf("b%d", i), Static: map[string]string{"gender": "m"}, Varying: map[string]string{"pubs": "1"}},
		},
		Edges: []stream.EdgeRecord{{U: "a", V: fmt.Sprintf("b%d", i)}},
	}
}

func writeTestWAL(t *testing.T, path string, n int) {
	t.Helper()
	w, err := createWAL(osFS{}, path, 0)
	if err != nil {
		t.Fatalf("createWAL: %v", err)
	}
	for i := 0; i < n; i++ {
		label, snap := testBatch(i)
		if _, err := w.append(stream.EncodeRecord(label, "", snap)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := w.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func replayLabels(t *testing.T, path string) (labels []string, goodLen int64, torn bool) {
	t.Helper()
	records, goodLen, size, err := replayWAL(osFS{}, path, func(payload []byte) error {
		e, err := stream.RecordEntry(payload)
		if err != nil {
			return err
		}
		var i int
		fmt.Sscanf(e.Label, "t%d", &i)
		if label, snap := testBatch(i); label != e.Label || !bytes.Equal(payload, stream.EncodeRecord(label, "", snap)) {
			return fmt.Errorf("record %s is not the batch written", e.Label)
		}
		labels = append(labels, e.Label)
		return nil
	})
	if err != nil {
		t.Fatalf("replayWAL: %v", err)
	}
	if records != len(labels) {
		t.Fatalf("replayWAL reported %d records, callback saw %d", records, len(labels))
	}
	return labels, goodLen, goodLen < size
}

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0.log")
	writeTestWAL(t, path, 5)
	labels, goodLen, torn := replayLabels(t, path)
	if torn {
		t.Fatal("clean segment reported torn")
	}
	if len(labels) != 5 || labels[0] != "t0" || labels[4] != "t4" {
		t.Fatalf("replayed %v", labels)
	}
	fi, _ := os.Stat(path)
	if goodLen != fi.Size() {
		t.Fatalf("goodLen %d ≠ file size %d", goodLen, fi.Size())
	}
}

// TestWALTornTail truncates the segment at every byte offset inside the
// last record: replay must recover exactly the complete records and report
// the same good length each time.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.log")
	writeTestWAL(t, full, 3)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the intact file once to learn the record boundaries.
	var bounds []int64
	_, _, _, err = replayWAL(osFS{}, full, func(p []byte) error {
		if len(bounds) == 0 {
			bounds = append(bounds, walHeaderSize)
		}
		bounds = append(bounds, bounds[len(bounds)-1]+8+int64(len(p)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	lastStart, end := bounds[len(bounds)-2], bounds[len(bounds)-1]
	for cut := lastStart + 1; cut < end; cut++ {
		torn := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		labels, goodLen, isTorn := replayLabels(t, torn)
		if !isTorn {
			t.Fatalf("cut at %d: not reported torn", cut)
		}
		if len(labels) != 2 || goodLen != lastStart {
			t.Fatalf("cut at %d: recovered %v, goodLen %d (want 2 records, %d)",
				cut, labels, goodLen, lastStart)
		}
	}
}

func TestWALReopenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0.log")
	writeTestWAL(t, path, 2)
	// Tear the tail, then reopen at the good length and append a new record:
	// the torn bytes must be gone and the new record readable.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, goodLen, torn := replayLabels(t, path)
	if !torn {
		t.Fatal("expected torn tail")
	}
	w, err := openWALForAppend(osFS{}, path, goodLen)
	if err != nil {
		t.Fatalf("openWALForAppend: %v", err)
	}
	label, snap := testBatch(9)
	if _, err := w.append(stream.EncodeRecord(label, "", snap)); err != nil {
		t.Fatal(err)
	}
	if err := w.sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	labels, _, torn2 := replayLabels(t, path)
	if torn2 || len(labels) != 2 || labels[1] != "t9" {
		t.Fatalf("after reopen-append: labels %v, torn %v", labels, torn2)
	}
}

func TestWALHeaderErrors(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"short", []byte("GTWAL0"), ErrTruncated},
		{"magic", append([]byte("NOTAWAL!"), make([]byte, 10)...), ErrBadMagic},
		{"version", func() []byte {
			b := append([]byte(walMagic), 0xff, 0xff)
			return append(b, make([]byte, 8)...)
		}(), ErrVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, tc.name)
			if err := os.WriteFile(p, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, _, err := replayWAL(osFS{}, p, func([]byte) error { return nil })
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestIngestCodecRejectsTrailingBytes(t *testing.T) {
	label, snap := testBatch(0)
	payload := append(stream.EncodeRecord(label, "", snap), 0x00)
	dir := t.TempDir()
	w, err := createWAL(osFS{}, filepath.Join(dir, walName(0)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.append(payload); err != nil {
		t.Fatal(err)
	}
	w.close()
	if _, err := Open(dir, testAttrs, Options{Logger: quiet}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: got %v, want ErrCorrupt", err)
	}
}

// TestIngestCodecGolden pins the record bytes against the two encoders the
// one codec replaced (encodeIngest for tail appends, encodeIngestAt for
// retroactive inserts): the batch encodes to the same bytes,
// and a series appending those bytes holds the graph one appending the
// batch does, so WAL segments, snapshot-embedded records and replication
// frames written before and after are interchangeable. Each attribute map
// holds one entry — the encoder then wrote maps in iteration order.
func TestIngestCodecGolden(t *testing.T) {
	snap := stream.Snapshot{
		Nodes: []stream.NodeRecord{
			{Label: "u1", Static: map[string]string{"gender": "m"}, Varying: map[string]string{"pubs": "3"}},
			{Label: "u2", Static: map[string]string{"gender": "f"}},
			{Label: "u3"},
		},
		Edges: []stream.EdgeRecord{{U: "u1", V: "u2"}, {U: "u3", V: "u1"}},
	}
	attrs := []core.AttrSpec{{Name: "gender", Kind: core.Static}, {Name: "pubs", Kind: core.TimeVarying}}
	for _, tc := range []struct {
		name, label, before, golden string
	}{
		{"tail", "t7", "", "0102743703027531010667656e646572016d0104707562730133027532010667656e646572016600027533000002027531027532027533027531"},
		{"retroactive", "t3b", "t4", "020374336202743403027531010667656e646572016d0104707562730133027532010667656e646572016600027533000002027531027532027533027531"},
	} {
		golden, err := hex.DecodeString(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := stream.EncodeRecord(tc.label, tc.before, snap); !bytes.Equal(got, golden) {
			t.Fatalf("%s: encoded to\n%x\nwant\n%x", tc.name, got, golden)
		}
		fromBytes, fromBatch := stream.New(attrs...), stream.New(attrs...)
		if tc.before != "" {
			for _, s := range []*stream.Series{fromBytes, fromBatch} {
				if err := s.Append(tc.before, stream.Snapshot{}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := fromBytes.AppendRecord(golden); err != nil {
			t.Fatalf("%s: append record: %v", tc.name, err)
		}
		if _, err := fromBatch.AppendAt(tc.label, snap, tc.before); err != nil {
			t.Fatalf("%s: append batch: %v", tc.name, err)
		}
		g1, _ := fromBytes.Graph()
		g2, _ := fromBatch.Graph()
		if !bytes.Equal(snapBytes(t, g1), snapBytes(t, g2)) {
			t.Fatalf("%s: the record and the batch build different graphs", tc.name)
		}
	}
}

// TestIngestRecordOneByteForm: a batch whose nodes carry two attributes of
// one kind encodes to one byte string, call after call, so the WAL, a
// checkpoint and /v1/wal/stream carry the same bytes for it.
func TestIngestRecordOneByteForm(t *testing.T) {
	snap := faultBatch(rand.New(rand.NewSource(1)))
	want := stream.EncodeRecord("t0", "", snap)
	for i := range 50 {
		if got := stream.EncodeRecord("t0", "", snap); !bytes.Equal(got, want) {
			t.Fatalf("encode %d: %x, want %x", i, got, want)
		}
	}
}
