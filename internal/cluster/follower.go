package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/storage"
)

// Follower tails an upstream's WAL over GET /v1/wal/stream and applies
// each replicated ingest record in order. It is the one replication
// client in the system: replica daemons run it against their shard
// primary to stay hot, and the router runs one per shard to feed its
// mirror. State lives entirely in the callbacks — the follower itself is
// resumable from nothing but Len(), so a failed poll (including one that
// dies mid-stream after applying a prefix) is retried by simply polling
// again from the new applied count.
type Follower struct {
	// Pick returns the base URL to poll this round. Replicas pin it to
	// their primary; the router's mirror picks any live, caught-up member
	// of the shard so replication survives a primary failure.
	Pick func() (string, error)
	// Apply ingests one replicated record as it arrived — the local
	// AppendRecord (stream.Series' or storage.Engine's), so follower and
	// upstream converge on identical journals. An error stops the current
	// poll; the record is re-fetched on the next one.
	Apply func(rec []byte) (int, error)
	// Len returns the applied record count — the next sequence to request.
	Len func() int
	// WaitMs is the long-poll window passed to the upstream when caught
	// up; 0 polls return immediately.
	WaitMs int
	// Client is the HTTP client; nil selects a default without a global
	// timeout (polls are bounded per-request from WaitMs).
	Client *http.Client
	// Log receives replication lifecycle warnings; nil selects slog.Default.
	Log *slog.Logger
}

func (f *Follower) client() *http.Client {
	if f.Client != nil {
		return f.Client
	}
	return http.DefaultClient
}

func (f *Follower) log() *slog.Logger {
	if f.Log != nil {
		return f.Log
	}
	return slog.Default()
}

// Poll runs one replication round: fetch records from the upstream
// starting at Len() and apply them in order. It returns the number of
// records applied (possibly a non-zero prefix when an error is also
// returned; that prefix is durable progress, not a partial failure).
func (f *Follower) Poll(ctx context.Context) (int, error) {
	base, err := f.Pick()
	if err != nil {
		return 0, err
	}
	from := f.Len()
	url := fmt.Sprintf("%s/v1/wal/stream?from=%d&wait_ms=%d", base, from, f.WaitMs)
	rctx, cancel := context.WithTimeout(ctx, time.Duration(f.WaitMs)*time.Millisecond+10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return 0, fmt.Errorf("wal stream %s: %s: %s", base, resp.Status, bytes.TrimSpace(data))
	}
	applied := 0
	for {
		payload, err := storage.ReadFramedRecord(resp.Body)
		if err == io.EOF {
			return applied, nil
		}
		if err != nil {
			// A frame torn by a connection drop is retried from the new
			// applied count, exactly like a torn WAL tail on disk.
			return applied, fmt.Errorf("wal stream %s: %w", base, err)
		}
		if _, err := f.Apply(payload); err != nil {
			return applied, fmt.Errorf("apply replicated record %d: %w", from+applied, err)
		}
		applied++
	}
}

// Run polls until ctx is done, long-polling when caught up and backing
// off exponentially (to 2s) on errors so a dead upstream is not hammered.
func (f *Follower) Run(ctx context.Context) {
	backoff := 50 * time.Millisecond
	for ctx.Err() == nil {
		n, err := f.Poll(ctx)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return
			}
			f.log().Warn("replication poll failed", "applied", n, "err", err)
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
		case n == 0 && f.WaitMs == 0:
			// No long-poll window: pace the idle loop ourselves.
			select {
			case <-ctx.Done():
				return
			case <-time.After(20 * time.Millisecond):
			}
			backoff = 50 * time.Millisecond
		default:
			backoff = 50 * time.Millisecond
		}
	}
}
