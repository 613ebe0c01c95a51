// Command graphtempod is the GraphTempo query-serving daemon: it loads a
// dataset (or ingests snapshots live) and serves the JSON API of
// internal/server over HTTP.
//
// Usage:
//
//	graphtempod -dataset paper                       # running example
//	graphtempod -dataset dblp -scale 0.05 -seed 42   # synthetic DBLP
//	graphtempod -dataset /path/to/graph.gts          # binary snapshot (gtgen -format binary)
//	graphtempod -dataset /path/to/graphdir           # WriteGraphDir layout
//	graphtempod -stream gender:static,publications:varying   # live ingestion
//	graphtempod -stream ... -data-dir /var/lib/graphtempo    # durable ingestion
//	graphtempod -stream ... -shard a                         # cluster shard primary
//	graphtempod -stream ... -shard a -follow http://primary:8089  # read replica
//
// With -shard the process reports its shard name in /v1/status for the
// cluster router (cmd/graphtempo-router). With -follow it runs as a read
// replica: client ingestion is rejected with 409 and the timeline is
// driven by streaming the primary's WAL (/v1/wal/stream) instead; lag is
// observable as the Points gap in /v1/status.
//
// With -data-dir, ingested snapshots are appended to a write-ahead log
// (fsync policy selectable with -fsync) and compacted into binary
// snapshots in the background; on boot the daemon recovers the directory
// state — latest snapshot plus WAL replay, truncating a torn tail — and
// keeps serving exactly where the previous process stopped. See DESIGN.md
// §4 for the persistence design.
//
// Endpoints: POST /v1/aggregate, /v1/explore, /v1/tgql, /v1/explain,
// /v1/ingest; GET /healthz, /readyz, /metrics,
// /v1/status, /v1/labels, /v1/wal/stream. See DESIGN.md §3 for the serving
// architecture (admission control, deadlines, metrics taxonomy).
//
// SIGTERM/SIGINT starts a graceful drain: /readyz flips to 503 so load
// balancers stop routing here, in-flight requests finish (up to
// -drain-timeout), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/stream"
)

type options struct {
	addr         string
	dataset      string
	scale        float64
	seed         int64
	streamSpec   string
	dataDir      string
	fsync        string
	fsyncEvery   time.Duration
	cpRecords    int
	maxInflight  int64
	maxQueue     int
	timeout      time.Duration
	drainTimeout time.Duration
	cacheBytes   int64
	logFormat    string
	shard        string
	follow       string
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("graphtempod", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8089", "listen address")
	fs.StringVar(&o.dataset, "dataset", "", "dataset to serve: paper, dblp, movielens, a binary snapshot file (gtgen -format binary) or a graph directory path")
	fs.Float64Var(&o.scale, "scale", 1.0, "size factor for synthetic datasets")
	fs.Int64Var(&o.seed, "seed", 42, "generator seed for synthetic datasets")
	fs.StringVar(&o.streamSpec, "stream", "", "run in stream mode with this schema, e.g. gender:static,publications:varying")
	fs.StringVar(&o.dataDir, "data-dir", "", "stream mode: persist ingestion to this directory (WAL + snapshots) and recover it on boot")
	fs.StringVar(&o.fsync, "fsync", "always", "WAL durability: always, interval or never")
	fs.DurationVar(&o.fsyncEvery, "fsync-interval", 100*time.Millisecond, "background sync period under -fsync=interval")
	fs.IntVar(&o.cpRecords, "checkpoint-records", 0, "WAL records that trigger a background checkpoint (0 = default 1024, negative disables)")
	fs.Int64Var(&o.maxInflight, "max-inflight", 0, "admission capacity in weight units (0 = 2×GOMAXPROCS)")
	fs.IntVar(&o.maxQueue, "max-queue", -1, "admission wait-queue length (-1 = 2×capacity)")
	fs.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-request deadline cap")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 20*time.Second, "graceful shutdown budget")
	fs.Int64Var(&o.cacheBytes, "cache-bytes", 0, "materialization cache budget (0 = default)")
	fs.StringVar(&o.logFormat, "log", "text", "log format: text or json")
	fs.StringVar(&o.shard, "shard", "", "cluster shard name this process serves (reported in /v1/status)")
	fs.StringVar(&o.follow, "follow", "", "run as a read replica streaming the WAL from this primary URL (requires -stream)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if (o.dataset == "") == (o.streamSpec == "") {
		return nil, errors.New("exactly one of -dataset and -stream is required")
	}
	if err := dataset.CheckScale(o.scale); err != nil {
		return nil, err
	}
	if o.dataDir != "" && o.streamSpec == "" {
		return nil, errors.New("-data-dir requires -stream (static datasets are already durable)")
	}
	if o.follow != "" && o.streamSpec == "" {
		return nil, errors.New("-follow requires -stream (a replica replays the primary's ingest stream)")
	}
	if _, err := storage.ParseFsyncPolicy(o.fsync); err != nil {
		return nil, err
	}
	return o, nil
}

// parseStreamSpec compiles "name:kind,name:kind" into an attribute schema.
func parseStreamSpec(spec string) ([]core.AttrSpec, error) {
	var attrs []core.AttrSpec
	for _, field := range strings.Split(spec, ",") {
		name, kind, ok := strings.Cut(strings.TrimSpace(field), ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad attribute %q (want name:static or name:varying)", field)
		}
		var k core.AttrKind
		switch kind {
		case "static":
			k = core.Static
		case "varying", "time-varying":
			k = core.TimeVarying
		default:
			return nil, fmt.Errorf("bad attribute kind %q for %s (want static or varying)", kind, name)
		}
		if slices.ContainsFunc(attrs, func(a core.AttrSpec) bool { return a.Name == name }) {
			return nil, fmt.Errorf("attribute %q named twice", name)
		}
		attrs = append(attrs, core.AttrSpec{Name: name, Kind: k})
	}
	return attrs, nil
}

// loadGraph resolves the -dataset flag. A path naming a regular file is
// loaded as a binary snapshot (gtgen -format=binary), fully verified, and a
// directory uses the CSV labeled-array layout.
func loadGraph(o *options, log *slog.Logger) (*core.Graph, error) {
	start := time.Now()
	var g *core.Graph
	switch o.dataset {
	case "paper":
		g = core.PaperExample()
	case "dblp":
		g = dataset.DBLPScaled(o.seed, o.scale)
	case "movielens":
		g = dataset.MovieLensScaled(o.seed, o.scale)
	default:
		var err error
		if fi, serr := os.Stat(o.dataset); serr == nil && fi.Mode().IsRegular() {
			g, err = storage.LoadGraph(o.dataset)
		} else {
			g, err = core.ReadDir(o.dataset)
		}
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", o.dataset, err)
		}
	}
	// A built or loaded graph transposes its point index on first use, so
	// the size is normally 0 here; graphtempod_graph_index_bytes follows it
	// as scans build it.
	log.Info("dataset loaded", "dataset", o.dataset, "scale", o.scale,
		"nodes", g.NumNodes(), "edges", g.NumEdges(), "points", g.Timeline().Len(),
		"point_index_bytes", g.IndexBytes(),
		"elapsed", time.Since(start).Round(time.Millisecond).String())
	return g, nil
}

// serverConfig maps the serving flags onto server.Config; newServer adds
// the graph, series or storage engine it serves.
func serverConfig(o *options, log *slog.Logger) server.Config {
	cfg := server.Config{
		MaxInflight:    o.maxInflight,
		MaxQueue:       o.maxQueue,
		RequestTimeout: o.timeout,
		CacheBytes:     o.cacheBytes,
		Logger:         log,
		ShardName:      o.shard,
		// A -shard daemon holds one time-range slice: whole-timeline
		// analytics must come from the router's mirror, not from here.
		Partial: o.shard != "",
	}
	if o.follow != "" {
		cfg.Role = server.RoleReplica
	}
	return cfg
}

// storageOptions maps the durability flags onto storage.Options.
func storageOptions(o *options, log *slog.Logger) (storage.Options, error) {
	policy, err := storage.ParseFsyncPolicy(o.fsync)
	return storage.Options{
		Fsync:             policy,
		FsyncInterval:     o.fsyncEvery,
		CheckpointRecords: o.cpRecords,
		Logger:            log,
	}, err
}

// newServer builds the server for the parsed options. The returned engine
// is non-nil when -data-dir enabled durable storage; the caller must Close
// it after the HTTP server drains. The returned apply/applied pair drives
// the WAL follower loop under -follow: apply lands one replicated record
// (through the engine in durable mode, so replicated points hit the
// replica's own WAL too) and applied reports the local sequence.
func newServer(o *options, log *slog.Logger) (*server.Server, *storage.Engine, func(string, stream.Snapshot, string) (int, error), func() int, error) {
	cfg := serverConfig(o, log)
	var (
		eng     *storage.Engine
		apply   func(string, stream.Snapshot, string) (int, error)
		applied func() int
	)
	if o.streamSpec != "" {
		attrs, err := parseStreamSpec(o.streamSpec)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if o.dataDir != "" {
			opts, err := storageOptions(o, log)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			eng, err = storage.Open(o.dataDir, attrs, opts)
			if err != nil {
				return nil, nil, nil, nil, fmt.Errorf("open data dir %s: %w", o.dataDir, err)
			}
			cfg.Storage = eng
			apply, applied = eng.AppendAt, eng.Series().Len
			ri := eng.Recovery()
			log.Info("durable stream mode", "schema", o.streamSpec, "data-dir", o.dataDir,
				"fsync", o.fsync, "recovered_points", eng.Series().Len(),
				"recovered_wal_records", ri.WALRecords)
		} else {
			series := stream.New(attrs...)
			cfg.Series = series
			apply, applied = series.AppendAt, series.Len
			log.Info("stream mode", "schema", o.streamSpec)
		}
	} else {
		g, err := loadGraph(o, log)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		cfg.Graph = g
	}
	srv, err := server.New(cfg)
	if err != nil {
		if eng != nil {
			eng.Close()
		}
		return nil, nil, nil, nil, err
	}
	return srv, eng, apply, applied, nil
}

func newLogger(format string, w io.Writer) *slog.Logger {
	if format == "json" {
		return slog.New(slog.NewJSONHandler(w, nil))
	}
	return slog.New(slog.NewTextHandler(w, nil))
}

// usageError marks a malformed command line: main exits 2 on it and 1 on
// every other error.
type usageError struct{ error }

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return usageError{err}
	}
	log := newLogger(o.logFormat, os.Stderr)
	srv, eng, apply, applied, err := newServer(o, log)
	if err != nil {
		return err
	}

	hs := &http.Server{
		Addr:              o.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	if o.follow != "" {
		// Replica: continuously stream the primary's WAL into the local
		// series. Client ingestion is rejected (409) by Role=replica; the
		// follower is the only writer.
		f := &cluster.Follower{
			Pick:   func() (string, error) { return o.follow, nil },
			Apply:  apply,
			Len:    applied,
			WaitMs: 1000,
			Log:    log.With("component", "follower", "primary", o.follow),
		}
		go f.Run(ctx)
		log.Info("replica mode", "primary", o.follow)
	}

	errc := make(chan error, 1)
	go func() {
		log.Info("listening", "addr", o.addr)
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop advertising readiness, then let in-flight
	// requests finish within the drain budget.
	log.Info("signal received, draining", "budget", o.drainTimeout.String())
	srv.BeginDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if eng != nil {
		// After the drain no ingest is in flight: sync and close the WAL so
		// the final records are durable even under -fsync=interval/never.
		if err := eng.Close(); err != nil {
			return fmt.Errorf("close storage: %w", err)
		}
		log.Info("storage closed", "generation", eng.Stats().Generation)
	}
	log.Info("drained, exiting")
	return nil
}

func main() {
	err := run(os.Args[1:])
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "graphtempod:", err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}
