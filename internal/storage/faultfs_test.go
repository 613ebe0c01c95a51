package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
)

// memFS is an in-memory fsys that models what a crash keeps. A file has
// live contents (what reads see) and synced contents (what its last Sync
// made durable); the data directory has live entries and the entries its
// last sync made durable. Every operation is numbered, and the one numbered
// at can fail — a short write with ENOSPC, EIO otherwise — or be where the
// machine crashes: the images of the disk a crash there may leave are
// captured before it runs, and the run then goes on as if nothing happened.
type memFS struct {
	mu            sync.Mutex
	dir           string
	live, durable map[string]*memInode

	ops   int               // operations so far
	at    int               // the operation that fails or crashes (0: none)
	crash bool              // crash at op at, rather than fail it
	hit   string            // the kind of operation at was, once reached
	acked func() string     // the last acknowledged append, read at a crash
	image map[string]*memFS // crash images by name, captured at op at
	ackd  string            // acked() at the crash
}

type memInode struct{ data, synced []byte }

func newMemFS(dir string) *memFS {
	return &memFS{dir: dir, live: map[string]*memInode{}, durable: map[string]*memInode{}}
}

// step numbers one operation and applies the fault planned for it. Called
// with m.mu held.
func (m *memFS) step(kind string) error {
	m.ops++
	if m.ops != m.at {
		return nil
	}
	m.hit = kind
	if m.crash {
		m.image, m.ackd = m.crashImages(), m.acked()
		return nil
	}
	if kind == "write" {
		return syscall.ENOSPC
	}
	return syscall.EIO
}

// crashImages are the disks a crash right now may leave: "synced" keeps
// only what file and directory syncs made durable; "flushed" everything
// written; "torn" the live directory with each file's unsynced tail cut in
// half (a write the crash interrupted).
func (m *memFS) crashImages() map[string]*memFS {
	imgs := map[string]*memFS{"synced": newMemFS(m.dir), "flushed": newMemFS(m.dir), "torn": newMemFS(m.dir)}
	put := func(img *memFS, name string, data []byte) {
		data = bytes.Clone(data)
		img.live[name] = &memInode{data: data, synced: data}
		img.durable[name] = img.live[name]
	}
	for name, in := range m.durable {
		put(imgs["synced"], name, in.synced)
	}
	for name, in := range m.live {
		put(imgs["flushed"], name, in.data)
		torn := in.data
		if n := len(in.synced); len(torn) > n && bytes.Equal(torn[:n], in.synced) {
			torn = torn[:n+(len(torn)-n)/2]
		}
		put(imgs["torn"], name, torn)
	}
	return imgs
}

func (m *memFS) OpenFile(name string, flag int, _ os.FileMode) (file, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("open"); err != nil {
		return nil, err
	}
	if name == m.dir {
		return &memHandle{fs: m, dir: true}, nil
	}
	in := m.live[name]
	switch {
	case in != nil && flag&os.O_EXCL != 0:
		return nil, fs.ErrExist
	case in == nil && flag&os.O_CREATE == 0:
		return nil, fs.ErrNotExist
	case in == nil:
		in = &memInode{}
		m.live[name] = in
	case flag&os.O_TRUNC != 0:
		in.data = nil
	}
	return &memHandle{fs: m, in: in}, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("readfile"); err != nil {
		return nil, err
	}
	in := m.live[name]
	if in == nil {
		return nil, fs.ErrNotExist
	}
	return bytes.Clone(in.data), nil
}

func (m *memFS) ReadDir(string) ([]os.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("readdir"); err != nil {
		return nil, err
	}
	var ents []os.DirEntry
	for name := range m.live {
		ents = append(ents, memEntry(filepath.Base(name)))
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name() < ents[j].Name() })
	return ents, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("rename"); err != nil {
		return err
	}
	in := m.live[oldpath]
	if in == nil {
		return fs.ErrNotExist
	}
	m.live[newpath] = in
	delete(m.live, oldpath)
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("remove"); err != nil {
		return err
	}
	if m.live[name] == nil {
		return fs.ErrNotExist
	}
	delete(m.live, name)
	return nil
}

func (m *memFS) MkdirAll(string, os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.step("mkdir")
}

// files lists the live file names, for failure messages.
func (m *memFS) files() []string {
	var names []string
	for name, in := range m.live {
		names = append(names, fmt.Sprintf("%s(%d/%d)", filepath.Base(name), len(in.synced), len(in.data)))
	}
	slices.Sort(names)
	return names
}

// memHandle is an open file of a memFS. The engine writes a file only
// sequentially from its start or in append mode, so every write appends.
type memHandle struct {
	fs  *memFS
	in  *memInode // nil for the directory
	dir bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(p)
	err := m.step("write")
	if err != nil {
		n /= 2
	}
	h.in.data = append(h.in.data, p[:n]...)
	return n, err
}

func (h *memHandle) Truncate(size int64) error {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("truncate"); err != nil {
		return err
	}
	h.in.data = h.in.data[:size]
	return nil
}

func (h *memHandle) Sync() error {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if h.dir {
		if err := m.step("dirsync"); err != nil {
			return err
		}
		m.durable = cloneEntries(m.live)
		return nil
	}
	if err := m.step("sync"); err != nil {
		return err
	}
	h.in.synced = bytes.Clone(h.in.data)
	return nil
}

func (h *memHandle) Close() error { return nil }

func cloneEntries(m map[string]*memInode) map[string]*memInode {
	c := make(map[string]*memInode, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

type memEntry string

func (e memEntry) Name() string               { return string(e) }
func (e memEntry) IsDir() bool                { return false }
func (e memEntry) Type() fs.FileMode          { return 0 }
func (e memEntry) Info() (fs.FileInfo, error) { return nil, errors.ErrUnsupported }

// faultStep is one operation of a fault history: the append of label
// with snap, before the named point when before is set; a checkpoint; or a
// kill -9 and reopen, which recovers from the same files.
type faultStep struct {
	op     faultOp
	label  string
	before string
	snap   stream.Snapshot
}

type faultOp int

const (
	appendOp faultOp = iota
	checkpoint
	kill
)

// faultAttrs is the fault histories' schema. Two static attributes give a
// node's static map two keys, the case whose record bytes an unordered
// encoder would choose at random.
var faultAttrs = []core.AttrSpec{
	{Name: "grade", Kind: core.Static},
	{Name: "class", Kind: core.Static},
	{Name: "contacts", Kind: core.TimeVarying},
}

// faultBatch draws a batch over faultAttrs from r: two to six of eight
// nodes, each with static values fixed by its name and a drawn contact
// count, and up to six edges between distinct ones.
func faultBatch(r *rand.Rand) stream.Snapshot {
	var snap stream.Snapshot
	for _, j := range r.Perm(8)[:2+r.Intn(5)] {
		snap.Nodes = append(snap.Nodes, stream.NodeRecord{
			Label:   fmt.Sprintf("n%d", j),
			Static:  map[string]string{"grade": fmt.Sprint(j % 3), "class": fmt.Sprint(j % 2)},
			Varying: map[string]string{"contacts": fmt.Sprint(r.Intn(4))},
		})
	}
	for range r.Intn(7) {
		p := r.Perm(len(snap.Nodes))
		snap.Edges = append(snap.Edges, stream.EdgeRecord{U: snap.Nodes[p[0]].Label, V: snap.Nodes[p[1]].Label})
	}
	return snap
}

// randomHistory draws a fault history from seed: seven tail appends, two
// retroactive inserts before a point appended earlier, three checkpoints
// and one kill -9, in a random order that starts with a tail append.
func randomHistory(seed int64) []faultStep {
	r := rand.New(rand.NewSource(seed))
	rest := []faultStep{{op: checkpoint}, {op: checkpoint}, {op: checkpoint}, {op: kill},
		{op: appendOp, before: "?"}, {op: appendOp, before: "?"}}
	for range 6 {
		rest = append(rest, faultStep{op: appendOp})
	}
	r.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	h := append([]faultStep{{op: appendOp}}, rest...)
	var labels []string
	for i := range h {
		st := &h[i]
		if st.op != appendOp {
			continue
		}
		if st.before != "" {
			st.before = labels[r.Intn(len(labels))]
		}
		st.label = fmt.Sprintf("t%d", len(labels))
		st.snap = faultBatch(r)
		labels = append(labels, st.label)
	}
	return h
}

// faultRun is what one run of a fault history did.
type faultRun struct {
	attempted []string // labels, in the order their appends were issued
	acked     []string // labels whose append returned nil
	openErr   error
}

func (r *faultRun) lastAcked() string {
	if len(r.acked) == 0 {
		return ""
	}
	return r.acked[len(r.acked)-1]
}

// runFaultHistory opens an engine on m, drives history h through it and
// closes it, checking on the way that a failed append changed nothing
// readers see — unless it was a failed sync, which comes after the apply —
// that no append is acknowledged after one failed, and that a kill keeps
// every acknowledged append. A retroactive insert before a point an earlier
// failure lost is not attempted.
func runFaultHistory(t *testing.T, m *memFS, fsync FsyncPolicy, h []faultStep) faultRun {
	t.Helper()
	var r faultRun
	m.acked = r.lastAcked
	opts := Options{Fsync: fsync, CheckpointRecords: -1, Logger: quiet}
	e, err := open(m, m.dir, faultAttrs, opts)
	if err != nil {
		r.openErr = err
		return r
	}
	failed := false
	for _, st := range h {
		switch {
		case st.op == checkpoint:
			e.Checkpoint()
			continue
		case st.op == kill: // the abandoned engine runs no background work
			if e, err = open(m, m.dir, faultAttrs, opts); err != nil {
				r.openErr = err
				return r
			}
			// What the reopened engine recovered is the history later
			// appends extend.
			r.attempted = checkHistory(t, fmt.Sprintf("kill -9 and reopen (op %d, crash=%v, %s)", m.at, m.crash, m.hit), e, r, r.lastAcked(), m)
			failed = false
			continue
		case st.before != "" && !slices.Contains(e.Series().Labels(), st.before):
			continue
		}
		before := e.Series().Txn()
		r.attempted = append(r.attempted, st.label)
		_, err := e.AppendAt(st.label, st.snap, st.before)
		switch {
		case err == nil && failed:
			t.Fatalf("%s acknowledged after an earlier append failed", st.label)
		case err == nil:
			r.acked = append(r.acked, st.label)
		case !errors.Is(err, ErrWAL):
			t.Fatalf("append %s: %v, want ErrWAL", st.label, err)
		case e.Series().Txn() != before && m.hit != "sync":
			t.Fatalf("append %s failed at a %s but changed the series", st.label, m.hit)
		default:
			failed = true
		}
	}
	e.Close()
	return r
}

// checkHistory checks that e, just opened on img, recovered a prefix of
// the attempted appends that reaches the acknowledged one lastAcked, and
// returns the recovered labels.
func checkHistory(t *testing.T, what string, e *Engine, run faultRun, lastAcked string, img *memFS) []string {
	t.Helper()
	var got []string
	for _, j := range e.Series().Journal() {
		got = append(got, j.Label)
	}
	need := slices.Index(run.attempted, lastAcked) + 1
	if lastAcked != "" && need == 0 || len(got) < need || len(got) > len(run.attempted) || !slices.Equal(got, run.attempted[:len(got)]) {
		t.Fatalf("%s: recovered %v; attempted %v, acknowledged through %q\nfiles: %v",
			what, got, run.attempted, lastAcked, img.files())
	}
	return got
}

// checkRecovery opens img and checks the invariant every fault and crash
// point must keep: recovery succeeds; it recovers a prefix of the attempted
// appends that reaches the last acknowledged one; the recovered series is
// the one a replay of its records builds; and it takes writes and
// checkpoints again.
func checkRecovery(t *testing.T, what string, img *memFS, run faultRun, lastAcked string) {
	t.Helper()
	e, err := open(img, img.dir, faultAttrs, Options{CheckpointRecords: -1, Logger: quiet})
	if err != nil {
		t.Fatalf("%s: recovery failed: %v\nfiles: %v", what, err, img.files())
	}
	defer e.Close()
	if len(checkHistory(t, what, e, run, lastAcked, img)) > 0 {
		journal := e.Series().Journal()
		live, err := e.Series().Graph()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapBytes(t, live), snapBytes(t, oracleReplay(t, faultAttrs, journal, len(journal)))) {
			t.Fatalf("%s: recovered series diverges from the replay of its %d records", what, len(journal))
		}
	}
	if err := e.Append("t100", faultBatch(rand.New(rand.NewSource(0)))); err != nil {
		t.Fatalf("%s: append after recovery: %v", what, err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("%s: checkpoint after recovery: %v", what, err)
	}
}

// faultSeeds is the number of random histories one TestFaultEnumeration
// run enumerates. Each run takes the next faultSeeds seeds, so a single
// run enumerates the same fixed histories every time, and -count=N covers
// N·faultSeeds distinct ones.
const faultSeeds = 2

var faultRuns atomic.Int64

// TestFaultEnumeration runs random histories of appends, retroactive
// inserts, checkpoints (each a rotation, a snapshot write and a GC), a
// kill -9 with its recovery, and a close over memFS, once per file-system
// operation each performs. Each run either fails that operation or crashes
// just before it, and every disk image left behind must recover to a
// prefix of the attempted appends: under FsyncAlways one that holds every
// acknowledged append (ack ⇒ survives any crash); under FsyncNever, which
// promises nothing for the tail, recovery must still succeed and rotation
// must have synced every segment but the newest. A failed write never
// changes what readers see.
func TestFaultEnumeration(t *testing.T) {
	first := faultRuns.Add(1)*faultSeeds - faultSeeds + 1
	for _, fsync := range []FsyncPolicy{FsyncAlways, FsyncNever} {
		t.Run(fsync.String(), func(t *testing.T) {
			for seed := first; seed < first+faultSeeds; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { enumerateFaults(t, fsync, randomHistory(seed)) })
			}
		})
	}
}

// enumerateFaults is TestFaultEnumeration for one history.
func enumerateFaults(t *testing.T, fsync FsyncPolicy, h []faultStep) {
	const dir = "/data"
	promised := func(lastAcked string) string {
		if fsync == FsyncNever {
			return ""
		}
		return lastAcked
	}
	clean := newMemFS(dir)
	run := runFaultHistory(t, clean, fsync, h)
	appends := 0
	for _, st := range h {
		if st.op == appendOp {
			appends++
		}
	}
	if run.openErr != nil || len(run.acked) != appends {
		t.Fatalf("clean run: open %v, %d of %d appends acknowledged", run.openErr, len(run.acked), appends)
	}
	total := clean.ops
	for name, img := range clean.crashImages() {
		checkRecovery(t, "clean run, "+name+" image", img, run, promised(run.lastAcked()))
	}
	kinds := map[string]int{}
	for at := 1; at <= total; at++ {
		for _, crash := range []bool{true, false} {
			m := newMemFS(dir)
			m.at, m.crash = at, crash
			run := runFaultHistory(t, m, fsync, h)
			if m.hit == "" {
				t.Fatalf("op %d of %d never ran", at, total)
			}
			if crash {
				for name, img := range m.image {
					checkRecovery(t, fmt.Sprintf("crash before op %d (%s), %s image", at, m.hit, name), img, run, promised(m.ackd))
				}
				continue
			}
			kinds[m.hit]++
			// The failure, then a crash at the end.
			for name, img := range m.crashImages() {
				checkRecovery(t, fmt.Sprintf("%s %d failed, %s image", m.hit, at, name), img, run, promised(run.lastAcked()))
			}
		}
	}
	for _, k := range []string{"open", "write", "sync", "dirsync", "rename", "remove", "readfile", "readdir", "truncate", "mkdir"} {
		if kinds[k] == 0 {
			t.Errorf("no %s was injected (%v)", k, kinds)
		}
	}
	t.Logf("%d operations, each failed and crashed at; failures by kind: %v", total, kinds)
}

// TestSameHistorySameDirectory: two engines fed the same random history,
// with the same checkpoints and the same kill -9, leave byte-identical data
// directories — a record's bytes, and so a segment's and a snapshot's, are
// a function of the ingest history. Automatic checkpoints are part of the
// history too: each is cut at the append that triggered it, however far
// behind the writes of the earlier ones are.
func TestSameHistorySameDirectory(t *testing.T) {
	sameDir := func(a, b *memFS) bool {
		return maps.EqualFunc(a.live, b.live, func(x, y *memInode) bool { return bytes.Equal(x.data, y.data) })
	}
	for seed := int64(1); seed <= 3; seed++ {
		h := randomHistory(seed)
		a, b := newMemFS("/data"), newMemFS("/data")
		runFaultHistory(t, a, FsyncAlways, h)
		runFaultHistory(t, b, FsyncAlways, h)
		if !sameDir(a, b) || len(a.live) < 2 {
			t.Fatalf("seed %d: data directories differ or hold no checkpoint:\n%v\n%v", seed, a.files(), b.files())
		}
	}
	auto := func() *memFS {
		m := newMemFS("/data")
		e, err := open(m, m.dir, faultAttrs, Options{CheckpointRecords: 8, Logger: quiet})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(1))
		for i := range 30 {
			if err := e.Append(fmt.Sprintf("t%d", i), faultBatch(r)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	want := auto()
	var names []string
	for name := range want.live {
		names = append(names, filepath.Base(name))
	}
	if slices.Sort(names); !slices.Equal(names, []string{snapName(3), walName(3)}) {
		t.Fatalf("30 appends with a checkpoint every 8 left %v, want generation 3's snapshot and segment", want.files())
	}
	for trial := range 20 {
		if got := auto(); !sameDir(want, got) {
			t.Fatalf("trial %d: automatic checkpoints left different data directories:\n%v\n%v", trial, want.files(), got.files())
		}
	}
}

// TestWALFailureStopsEngine fails the write of the fifth append halfway —
// ENOSPC after half the record, so a torn record sits in the segment — and
// then tries more appends and a checkpoint. They must all be refused: an
// append acknowledged after the torn record would be cut off with it at the
// next recovery. A kill-style reopen then recovers the four acknowledged
// appends, and the reopened engine takes writes, checkpoints and survives
// another crash with everything it acknowledged.
func TestWALFailureStopsEngine(t *testing.T) {
	const dir = "/data"
	opts := Options{CheckpointRecords: -1, Logger: quiet}
	m := newMemFS(dir)
	e, err := open(m, dir, testAttrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, e, 0, 4)
	m.mu.Lock()
	m.at = m.ops + 1 // the fifth append's write
	m.mu.Unlock()
	label, snap := testBatch(4)
	if err := e.Append(label, snap); !errors.Is(err, ErrWAL) || m.hit != "write" {
		t.Fatalf("append over a full disk: %v at a %q, want ErrWAL at the write", err, m.hit)
	}
	if got := e.Series().Txn(); got != 4 {
		t.Fatalf("failed append left %d points visible, want 4", got)
	}
	for i := 5; i < 8; i++ {
		label, snap := testBatch(i)
		if err := e.Append(label, snap); !errors.Is(err, ErrWAL) {
			t.Fatalf("append %d after a failed write: %v, want ErrWAL", i, err)
		}
	}
	if err := e.Checkpoint(); !errors.Is(err, ErrWAL) {
		t.Fatalf("checkpoint after a failed write: %v, want ErrWAL", err)
	}
	// kill -9, with the page cache kept (flushed) or lost (synced).
	for _, name := range []string{"synced", "flushed"} {
		img := m.crashImages()[name]
		e2, err := open(img, dir, testAttrs, opts)
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		if got := e2.Series().Labels(); !slices.Equal(got, []string{"t0", "t1", "t2", "t3"}) {
			t.Fatalf("%s: recovered %v, want t0..t3", name, got)
		}
		appendN(t, e2, 4, 8)
		if err := e2.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		appendN(t, e2, 8, 10)
		e3, err := open(img.crashImages()["synced"], dir, testAttrs, opts)
		if err != nil {
			t.Fatalf("%s: second reopen: %v", name, err)
		}
		if got := e3.Series().Len(); got != 10 {
			t.Fatalf("%s: second reopen recovered %d points, want 10", name, got)
		}
		e3.Close()
	}
}

// TestSyncFailureStopsEngine fails the group-commit fsync of one append
// while a second append waits on it. Both must fail, and so must the next:
// no later sync may vouch for their records — a retry would succeed after
// the kernel dropped the pages the failed one could not write.
func TestSyncFailureStopsEngine(t *testing.T) {
	const dir = "/data"
	m := newMemFS(dir)
	e, err := open(m, dir, testAttrs, Options{CheckpointRecords: -1, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	appendN(t, e, 0, 2)
	m.mu.Lock()
	base := m.ops
	m.at = base + 3 // the leader's sync, after its write and the follower's
	m.mu.Unlock()
	var once sync.Once
	follower := make(chan error, 1)
	testHookSyncDelay = func() {
		once.Do(func() {
			go func() {
				label, snap := testBatch(3)
				follower <- e.Append(label, snap)
			}()
			for {
				m.mu.Lock()
				wrote := m.ops >= base+2
				m.mu.Unlock()
				if wrote {
					return
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
	defer func() { testHookSyncDelay = nil }()
	label, snap := testBatch(2)
	if err := e.Append(label, snap); !errors.Is(err, ErrWAL) || m.hit != "sync" {
		t.Fatalf("append whose sync fails: %v at a %q, want ErrWAL at the sync", err, m.hit)
	}
	if err := <-follower; !errors.Is(err, ErrWAL) {
		t.Fatalf("append waiting on the failed sync: %v, want ErrWAL", err)
	}
	label, snap = testBatch(4)
	if err := e.Append(label, snap); !errors.Is(err, ErrWAL) {
		t.Fatalf("append after a failed sync: %v, want ErrWAL", err)
	}
	if got := e.Stats().Fsyncs; got != 2 {
		t.Fatalf("%d successful fsyncs counted, want the 2 before the failure", got)
	}
}
