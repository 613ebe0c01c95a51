package storage

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
)

// TestReopenedHeapIsRecordBytes ingests 1,000 days of the school-contact
// stream at bench/'s ingest_audit scale (240 students, ~330 contacts a day,
// every batch restating its nodes' static attributes; checkpoints every 256
// records, as that workload runs), reopens the directory, and bounds the
// live heap: the series keeps each batch as its record bytes (about 14 MB
// here) beside the graph's columns, not decoded into one map per node per
// point, which took 223 MB when the journal held both forms.
func TestReopenedHeapIsRecordBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 1,000 contact days")
	}
	const days = 1000
	dir := t.TempDir()
	g := dataset.SchoolContacts(1, dataset.ContactsParams{
		Days: days, Grades: 6, ClassesPerGrade: 4, StudentsPerClass: 10,
		ContactsPerDay: 330, Homophily: 0.7, MitigationDay: days / 2,
	})
	attrs, labels, snaps := graphBatches(g)
	e, err := Open(dir, attrs, Options{Fsync: FsyncNever, CheckpointRecords: 256, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	for i, snap := range snaps {
		if err := e.Append(labels[i], snap); err != nil {
			t.Fatalf("append %s: %v", labels[i], err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	g, labels, snaps = nil, nil, nil

	e, err = Open(dir, attrs, Options{Fsync: FsyncNever, CheckpointRecords: 256, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if n := e.Series().Len(); n != days {
		t.Fatalf("reopened %d points, want %d", n, days)
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const ceiling = 64 << 20
	t.Logf("live heap after reopen: %.1f MB", float64(ms.HeapAlloc)/(1<<20))
	if ms.HeapAlloc > ceiling {
		t.Fatalf("live heap after reopen is %.1f MB, want ≤ %d MB", float64(ms.HeapAlloc)/(1<<20), ceiling>>20)
	}
	runtime.KeepAlive(e)
}
