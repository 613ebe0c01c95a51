package storage

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
)

// FsyncPolicy selects when WAL appends are flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append, before the ingest is
	// acknowledged: no acknowledged record is ever lost.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background timer (Options.FsyncInterval):
	// a crash loses at most one interval of acknowledged records.
	FsyncInterval
	// FsyncNever leaves flushing to the OS page cache: fastest, loses the
	// unflushed tail on a crash. Rotation and Close still sync.
	FsyncNever
)

// String renders the policy as its flag spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	default:
		return "never"
	}
}

// ParseFsyncPolicy parses the -fsync flag spelling.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("storage: unknown fsync policy %q (want always, interval or never)", s)
}

// Options configures an Engine. The zero value selects the defaults noted
// on each field.
type Options struct {
	// Fsync is the WAL durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the background sync period under FsyncInterval
	// (<= 0 selects 100ms).
	FsyncInterval time.Duration
	// CheckpointRecords is the active segment's record count at which an
	// append cuts a checkpoint, written in the background (0 selects 1024;
	// negative disables automatic checkpointing — Checkpoint can still be
	// called explicitly).
	CheckpointRecords int
	// Logger receives recovery and checkpoint lifecycle logs; nil selects
	// slog.Default().
	Logger *slog.Logger
}

// Engine is the durable persistence layer behind a stream-mode daemon: it
// owns a stream.Series plus the data directory's snapshot and WAL files,
// and keeps them in sync — every Append lands in the WAL and then the series
// under one lock, checkpoints compact the WAL into a fresh snapshot
// generation while serving continues, and Open recovers the whole state
// after a crash. The first failed WAL write or sync stops it: from then on
// it refuses every append and checkpoint, so nothing is acknowledged behind
// a record the log may have lost, and reopening recovers. All methods are
// safe for concurrent use.
type Engine struct {
	dir   string
	opts  Options
	log   *slog.Logger
	attrs []core.AttrSpec
	fs    fsys

	series *stream.Series

	// The series journal, whose entries are the records the WAL framed, is
	// the engine's one transaction log; Series.Txn() counts them.
	mu         sync.Mutex // serializes appends, rotation, close
	wal        *walWriter
	gen        uint64
	segRecords int // records in the active segment
	closed     bool
	failed     error         // the ErrWAL every append returns after a WAL write or sync failed
	lastCut    chan struct{} // closed when the newest checkpoint's write is done; nil before the first

	// Group commit (FsyncAlways): concurrent appends coalesce into one
	// fsync. A leader syncs the WAL for every record appended so far;
	// followers wait until the durable watermark covers their record.
	gcMu      sync.Mutex
	gcCond    *sync.Cond
	syncedTxn int  // highest txn known durable (under gcMu)
	syncing   bool // a leader's fsync is in flight (under gcMu)

	stopc chan struct{}
	wg    sync.WaitGroup

	recovery RecoveryInfo
	ctr      counters
}

// Open recovers (or initializes) the data directory dir for a series with
// the given attribute schema: it loads the latest valid snapshot, replays
// every WAL segment at or after the snapshot's generation (truncating a
// torn tail to the last complete record), garbage-collects files older
// than the loaded snapshot's generation, and opens the active segment for
// append. It refuses with ErrUnrecoverable when what loads covers less than
// the damaged files show was acknowledged.
func Open(dir string, attrs []core.AttrSpec, opts Options) (*Engine, error) {
	return open(osFS{}, dir, attrs, opts)
}

func open(fs fsys, dir string, attrs []core.AttrSpec, opts Options) (*Engine, error) {
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = 100 * time.Millisecond
	}
	if opts.CheckpointRecords == 0 {
		opts.CheckpointRecords = 1024
	}
	log := opts.Logger
	if log == nil {
		log = slog.Default()
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &Engine{
		fs:    fs,
		dir:   dir,
		opts:  opts,
		log:   log,
		attrs: append([]core.AttrSpec(nil), attrs...),
		stopc: make(chan struct{}),
	}
	e.gcCond = sync.NewCond(&e.gcMu)
	if err := e.recover(attrs); err != nil {
		return nil, err
	}
	e.syncedTxn = e.series.Txn()
	if opts.Fsync == FsyncInterval {
		e.wg.Add(1)
		go e.syncLoop()
	}
	return e, nil
}

// Series returns the engine's recovered (and growing) series. Queries read
// it directly; all mutation must go through AppendAt or AppendRecord.
func (e *Engine) Series() *stream.Series { return e.series }

// Recovery returns what the boot recovered.
func (e *Engine) Recovery() RecoveryInfo { return e.recovery }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	gen := e.gen
	e.mu.Unlock()
	return Stats{
		Recovery:         e.recovery,
		Generation:       gen,
		WALRecords:       e.ctr.walRecords.Load(),
		WALBytes:         e.ctr.walBytes.Load(),
		Fsyncs:           e.ctr.fsyncs.Load(),
		CoalescedSyncs:   e.ctr.coalescedSyncs.Load(),
		Checkpoints:      e.ctr.checkpoints.Load(),
		CheckpointErrors: e.ctr.checkpointErrors.Load(),
		LastCheckpointMs: float64(e.ctr.lastCheckpointUs.Load()) / 1000,
	}
}

// testHookSyncDelay, when non-nil, runs after a group-commit leader claims
// the fsync slot and before it syncs — tests use it to widen the
// coalescing window deterministically.
var testHookSyncDelay func()

// Append durably ingests one time point at the valid-time tail: AppendAt
// with no position.
func (e *Engine) Append(label string, snap stream.Snapshot) error {
	_, err := e.AppendAt(label, snap, "")
	return err
}

// AppendAt durably ingests one time point (see stream.Series.AppendAt):
// AppendRecord of the batch's record, encoded once.
func (e *Engine) AppendAt(label string, snap stream.Snapshot, before string) (int, error) {
	return e.AppendRecord(stream.EncodeRecord(label, before, snap))
}

// AppendRecord durably ingests one record: it checks it, appends it to the
// WAL, applies the check's verdict to the series, and — under FsyncAlways —
// syncs before returning. The lock held from check to apply serializes
// every mutator, so the series applies the verdict without checking again. A
// replica appends the primary's records with it, so its WAL logs them
// verbatim. The append that fills the active segment to
// Options.CheckpointRecords cuts a checkpoint at its own txn.
//
// Concurrent appends group-commit: the write lock is released before the
// fsync, one leader syncs the segment for every record written so far, and
// the other appends ride the same flush instead of issuing their own.
// Check failures leave no state behind and are returned verbatim. A failed
// WAL write leaves the series as it was; a failed sync comes after the
// apply, so its record may stay visible and survive a restart, as any
// unacknowledged write may. Either stops the engine (see Engine) and returns
// an ErrWAL, which the caller should surface as a server-side error.
func (e *Engine) AppendRecord(rec []byte) (int, error) {
	e.mu.Lock()
	err := e.failed
	var v stream.Verdict
	if e.closed {
		err = fmt.Errorf("storage: engine closed")
	} else if err == nil {
		v, err = e.series.CheckRecord(rec)
	}
	if err != nil {
		e.mu.Unlock()
		return 0, err
	}
	n, err := e.wal.append(rec)
	at := 0
	if err == nil {
		at, err = e.series.Apply(v)
	}
	if err != nil {
		err = e.fail(err)
		e.mu.Unlock()
		return 0, err
	}
	txn := e.series.Txn()
	e.ctr.walRecords.Add(1)
	e.ctr.walBytes.Add(int64(n))
	e.segRecords++
	if e.opts.CheckpointRecords > 0 && e.segRecords >= e.opts.CheckpointRecords {
		cp, err := e.startCheckpoint()
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			if err := e.finishCheckpoint(cp, err); err != nil {
				e.log.Error("checkpoint failed", "dir", e.dir, "err", err)
			}
		}()
	}
	e.mu.Unlock()

	if e.opts.Fsync == FsyncAlways {
		if err := e.syncTo(txn); err != nil {
			return 0, err
		}
	}
	return at, nil
}

// syncTo blocks until transaction txn is durable. The first caller to find no
// flush in flight becomes the leader and fsyncs the WAL once for every
// record appended so far; callers whose record that flush (or a rotation's)
// already covered return without touching the disk and are counted as
// coalesced.
func (e *Engine) syncTo(txn int) error {
	e.gcMu.Lock()
	for {
		if e.syncedTxn >= txn {
			e.gcMu.Unlock()
			e.ctr.coalescedSyncs.Add(1)
			return nil
		}
		if !e.syncing {
			break
		}
		e.gcCond.Wait()
	}
	e.syncing = true
	e.gcMu.Unlock()

	if hook := testHookSyncDelay; hook != nil {
		hook()
	}

	e.mu.Lock()
	target := e.series.Txn()
	closed := e.closed
	// After a failed sync no later one may vouch for the records it covered:
	// the kernel may have dropped their pages and still report success.
	err := e.failed
	if err == nil && !closed {
		// Records in rotated-out segments were synced at rotation, so one
		// sync of the active segment covers everything up to target. When
		// the engine closed in the meantime, durability is Close's final
		// sync's job (it runs under e.mu and reports its own error).
		if err = e.wal.sync(); err != nil {
			err = e.fail(err)
		}
	}
	e.mu.Unlock()
	if err == nil && !closed {
		e.ctr.fsyncs.Add(1)
	}

	e.gcMu.Lock()
	e.syncing = false
	if err == nil && target > e.syncedTxn {
		e.syncedTxn = target
	}
	e.gcCond.Broadcast()
	e.gcMu.Unlock()
	return err
}

// fail stops the engine after a WAL write or sync failed and returns the
// error every later append gets. Called with e.mu held.
func (e *Engine) fail(err error) error {
	if e.failed == nil {
		e.failed = fmt.Errorf("%w: %v (the engine accepts no more writes; reopen the data directory to recover)", ErrWAL, err)
		e.log.Error("wal failed, refusing further writes", "dir", e.dir, "err", err)
	}
	return e.failed
}

// Checkpoint synchronously compacts the WAL into a new snapshot generation
// that covers every record appended so far. It cuts the checkpoint now and
// returns once it is written, after every checkpoint cut before it. It is
// safe to call concurrently with appends.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	cp, err := e.startCheckpoint()
	e.mu.Unlock()
	return e.finishCheckpoint(cp, err)
}

// finishCheckpoint writes the checkpoint startCheckpoint cut, or returns
// the error it failed with, and counts a failure.
func (e *Engine) finishCheckpoint(cp *cut, err error) error {
	if err == nil && cp != nil {
		err = e.writeCheckpoint(cp)
	}
	if err != nil {
		e.ctr.checkpointErrors.Add(1)
	}
	return err
}

// syncLoop is the FsyncInterval background flusher.
func (e *Engine) syncLoop() {
	defer e.wg.Done()
	t := time.NewTicker(e.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-e.stopc:
			return
		case <-t.C:
			e.mu.Lock()
			if !e.closed && e.failed == nil {
				if err := e.wal.sync(); err != nil {
					e.fail(err)
				} else {
					e.ctr.fsyncs.Add(1)
				}
			}
			e.mu.Unlock()
		}
	}
}

// Close stops background work, syncs the WAL a final time and closes it.
// The engine cannot be used afterwards; reopen with Open.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	close(e.stopc)
	e.wg.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	var err error
	if serr := e.wal.sync(); serr != nil {
		err = serr
	} else {
		e.ctr.fsyncs.Add(1)
	}
	if cerr := e.wal.close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

func snapName(gen uint64) string { return fmt.Sprintf("snapshot-%016x.gts", gen) }
func walName(gen uint64) string  { return fmt.Sprintf("wal-%016x.log", gen) }

func parseGen(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var gen uint64
	if _, err := fmt.Sscanf(name[len(prefix):len(prefix)+16], "%016x", &gen); err != nil {
		return 0, false
	}
	return gen, true
}
