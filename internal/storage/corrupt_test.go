package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gtest"
)

// validSnapshotBytes returns a small but fully featured snapshot: graph
// with static and time-varying attributes plus embedded series records.
func validSnapshotBytes(t testing.TB) []byte {
	g := dataset.DBLPScaled(9, 0.004)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

func isStorageError(err error) bool {
	return errorsIsAny(err, ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum, ErrCorrupt)
}

func TestLoadWrongMagic(t *testing.T) {
	data := validSnapshotBytes(t)
	bad := append([]byte("NOTASNAP"), data[8:]...)
	if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
	// A WAL file handed to the snapshot loader is also a magic mismatch.
	walish := append([]byte(walMagic), data[8:]...)
	if _, err := Load(bytes.NewReader(walish)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("wal-as-snapshot: got %v, want ErrBadMagic", err)
	}
}

func TestLoadWrongVersion(t *testing.T) {
	data := append([]byte(nil), validSnapshotBytes(t)...)
	data[8], data[9] = 0xff, 0xff
	if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}

// TestLoadTruncationSweep cuts a valid snapshot at a spread of lengths:
// every prefix must fail with a typed error and never panic.
func TestLoadTruncationSweep(t *testing.T) {
	data := validSnapshotBytes(t)
	step := len(data)/257 + 1
	for cut := 0; cut < len(data); cut += step {
		if _, err := Load(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded successfully", cut, len(data))
		} else if !isStorageError(err) {
			t.Fatalf("prefix of %d bytes: untyped error %v", cut, err)
		}
	}
}

// TestLoadBitFlips flips single bits across a valid snapshot: loading must
// either fail with a typed error or (for flips the checksum cannot see,
// e.g. inside the header lengths) still never panic.
func TestLoadBitFlips(t *testing.T) {
	data := validSnapshotBytes(t)
	step := len(data)/503 + 1
	for off := 0; off < len(data); off += step {
		for bit := 0; bit < 8; bit += 3 {
			mut := append([]byte(nil), data...)
			mut[off] ^= 1 << bit
			snap, err := Load(bytes.NewReader(mut))
			if err == nil {
				// A flip in section padding can in principle go unnoticed
				// only if the checksum still matches — which it cannot.
				t.Fatalf("bit flip at %d.%d produced a loadable snapshot %p", off, bit, snap)
			}
			if !isStorageError(err) {
				t.Fatalf("bit flip at %d.%d: untyped error %v", off, bit, err)
			}
		}
	}
}

// TestLoadV2CorruptionDetected: every blob is checksummed, so any byte flip
// anywhere in a file with time-varying rows must either fail or (for
// padding bytes) leave the content identical, and every truncation must
// fail with a typed error.
func TestLoadV2CorruptionDetected(t *testing.T) {
	g := gtest.LongLivedGraph(rand.New(rand.NewSource(7)), 320)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for off := 0; off < len(data); off += 31 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		snap, err := Load(bytes.NewReader(mut))
		if err == nil {
			graphsEqual(t, g, snap.Graph) // padding flip: content must be intact
		}
	}
	for cut := 0; cut < len(data); cut += 97 {
		if _, err := Load(bytes.NewReader(data[:cut])); !isStorageError(err) {
			t.Fatalf("truncation to %d bytes: %v, want a typed error", cut, err)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.gts")); !os.IsNotExist(err) {
		t.Fatalf("got %v, want not-exist", err)
	}
}

func FuzzLoadSnapshot(f *testing.F) {
	f.Add(validSnapshotBytes(f))
	// Time-varying rows frozen at each point's node count and padded on
	// save, and the node-major kind older writers emitted.
	var rows bytes.Buffer
	if err := Save(&rows, gtest.Accumulated(gtest.LongLivedGraph(rand.New(rand.NewSource(3)), 20))); err != nil {
		f.Fatal(err)
	}
	f.Add(rows.Bytes())
	legacy, err := os.ReadFile(filepath.Join(nodeMajorDir, "random.gts"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Load(bytes.NewReader(data)) // must never panic
		if err == nil && snap.Graph == nil {
			t.Fatal("nil graph without error")
		}
	})
}

func FuzzWALReplay(f *testing.F) {
	dir := f.TempDir()
	seed := filepath.Join(dir, "seed.log")
	w, err := createWAL(osFS{}, seed, 1)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		label, snap := testBatch(i)
		if _, err := w.append(EncodeIngestRecord(label, "", snap)); err != nil {
			f.Fatal(err)
		}
	}
	w.close()
	data, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:walHeaderSize])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "f.log")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		// Must never panic; decode failures inside records surface through
		// the callback error, framing damage as a torn tail.
		_, _, _, _ = replayWAL(osFS{}, p, func(payload []byte) error {
			_, _, _, err := DecodeIngestRecord(payload)
			return err
		})
	})
}
