package storage

import (
	"fmt"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
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
	// CheckpointRecords is the WAL record count that triggers a
	// background checkpoint (0 selects 1024; negative disables automatic
	// checkpointing — Checkpoint can still be called explicitly).
	CheckpointRecords int
	// Logger receives recovery and checkpoint lifecycle logs; nil selects
	// slog.Default().
	Logger *slog.Logger
}

// Engine is the durable persistence layer behind a stream-mode daemon: it
// owns a stream.Series plus the data directory's snapshot and WAL files,
// and keeps them in sync — every Append lands in the series and the WAL
// under one lock, checkpoints compact the WAL into a fresh snapshot
// generation while serving continues, and Open recovers the whole state
// after a crash. All methods are safe for concurrent use.
type Engine struct {
	dir   string
	opts  Options
	log   *slog.Logger
	attrs []core.AttrSpec

	series *stream.Series

	mu         sync.Mutex // serializes appends, rotation, close
	wal        *walWriter
	gen        uint64
	seq        uint64   // records appended since Open (durability watermark domain)
	raw        [][]byte // every ingest record payload, in transaction order (replication tail)
	segRecords int      // records in the active segment
	closed     bool

	// Transaction-time watermarks of the newest usable snapshot: its file
	// generation and the number of leading raw records it covers. ReplayTo
	// reconstructs txn >= snapTxn as snapshot + partial replay of
	// raw[snapTxn:txn] instead of a full replay.
	snapGen uint64
	snapTxn int

	// Group commit (FsyncAlways): concurrent appends coalesce into one
	// fsync. A leader syncs the WAL for every record appended so far;
	// followers wait until the durable watermark covers their record.
	gcMu      sync.Mutex
	gcCond    *sync.Cond
	syncedSeq uint64 // highest seq known durable (under gcMu)
	syncing   bool   // a leader's fsync is in flight (under gcMu)

	cpRunning atomic.Bool
	stopc     chan struct{}
	wg        sync.WaitGroup

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
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &Engine{
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
	if opts.Fsync == FsyncInterval {
		e.wg.Add(1)
		go e.syncLoop()
	}
	return e, nil
}

// Series returns the engine's recovered (and growing) series. Queries read
// it directly; all mutation must go through Append.
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

// AppendAt durably ingests one time point: it validates and applies the
// batch to the in-memory series, appends the record to the WAL, and — under
// FsyncAlways — syncs before returning. When before names an existing time
// point the new point is inserted immediately before it (retroactive
// ingest); an empty before appends at the valid-time tail. Either way the
// record takes the tail of transaction time — the WAL stays strictly
// append-only and crash recovery replays the insert deterministically. The
// returned index is the point's valid-time position.
//
// Concurrent appends group-commit: the write lock is released before the
// fsync, one leader syncs the segment for every record written so far, and
// the other appends ride the same flush instead of issuing their own.
// Validation failures leave no state behind and are returned verbatim; a
// WAL write failure is wrapped in ErrWAL (the in-memory state is then ahead
// of disk, which the caller should surface as a server-side error).
func (e *Engine) AppendAt(label string, snap stream.Snapshot, before string) (int, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, fmt.Errorf("storage: engine closed")
	}
	at, err := e.series.AppendAt(label, snap, before)
	if err != nil {
		e.mu.Unlock()
		return 0, err
	}
	payload := EncodeIngestRecord(label, before, snap)
	n, err := e.wal.append(payload)
	if err != nil {
		e.mu.Unlock()
		return 0, fmt.Errorf("%w: %v", ErrWAL, err)
	}
	e.raw = append(e.raw, payload)
	e.seq++
	seq := e.seq
	e.ctr.walRecords.Add(1)
	e.ctr.walBytes.Add(int64(n))
	e.segRecords++
	if e.opts.CheckpointRecords > 0 && e.segRecords >= e.opts.CheckpointRecords {
		e.triggerCheckpoint()
	}
	e.mu.Unlock()

	if e.opts.Fsync == FsyncAlways {
		if err := e.syncTo(seq); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrWAL, err)
		}
	}
	return at, nil
}

// TxnSeq returns the transaction high-water mark: the number of ingest
// records ever appended (across restarts). Record n is transaction n+1;
// an AS OF TxnSeq() query sees every acknowledged write.
func (e *Engine) TxnSeq() int { return e.RecordCount() }

// syncTo blocks until record seq is durable. The first caller to find no
// flush in flight becomes the leader and fsyncs the WAL once for every
// record appended so far; callers whose record that flush (or a rotation's)
// already covered return without touching the disk and are counted as
// coalesced.
func (e *Engine) syncTo(seq uint64) error {
	e.gcMu.Lock()
	for {
		if e.syncedSeq >= seq {
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
	target := e.seq
	closed := e.closed
	var err error
	if !closed {
		// Records in rotated-out segments were synced at rotation, so one
		// sync of the active segment covers everything up to target. When
		// the engine closed in the meantime, durability is Close's final
		// sync's job (it runs under e.mu and reports its own error).
		err = e.wal.sync()
	}
	e.mu.Unlock()
	if err == nil && !closed {
		e.ctr.fsyncs.Add(1)
	}

	e.gcMu.Lock()
	e.syncing = false
	if err == nil && target > e.syncedSeq {
		e.syncedSeq = target
	}
	e.gcCond.Broadcast()
	e.gcMu.Unlock()
	return err
}

// triggerCheckpoint starts a background checkpoint unless one is already
// running. Called with e.mu held.
func (e *Engine) triggerCheckpoint() {
	if !e.cpRunning.CompareAndSwap(false, true) {
		return
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer e.cpRunning.Store(false)
		if err := e.checkpoint(); err != nil {
			e.ctr.checkpointErrors.Add(1)
			e.log.Error("checkpoint failed", "dir", e.dir, "err", err)
		}
	}()
}

// Checkpoint synchronously compacts the WAL into a new snapshot
// generation. It is safe to call concurrently with appends and with the
// automatic background checkpointer.
func (e *Engine) Checkpoint() error {
	for !e.cpRunning.CompareAndSwap(false, true) {
		// An automatic checkpoint is in flight; brief spin-wait keeps the
		// rare explicit call simple (tests, admin tooling).
		time.Sleep(time.Millisecond)
	}
	defer e.cpRunning.Store(false)
	err := e.checkpoint()
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
			if !e.closed {
				if err := e.wal.sync(); err != nil {
					e.log.Error("interval fsync failed", "err", err)
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
