// Command graphtempo-router fronts a time-range sharded GraphTempo
// cluster: N graphtempod processes, each owning a contiguous range of the
// timeline (all but the last frozen, the last receiving ingest), with
// optional WAL-streaming read replicas per shard.
//
// Usage:
//
//	graphtempo-router -addr :8090 \
//	  -shards 'a=http://10.0.0.1:8089|http://10.0.0.2:8089;b=http://10.0.0.3:8089'
//
// The shard spec lists shards in time order as name=primaryURL with
// optional |replicaURL members. The router serves the same JSON API as a
// single graphtempod, and answers every read — aggregate, explore, tgql,
// explain — from its own WAL-replicated mirror of the full timeline, so
// every answer is byte-identical to a single-node deployment and frozen
// history stays readable with its shard down. The mirror replicates from
// the primary and fails over to a caught-up replica (-max-lag). Writes go
// to the tail shard's primary only, forwarded once; an unreachable
// primary answers 503 + Retry-After rather than risk a double apply.
//
// SIGTERM/SIGINT starts a graceful drain, mirroring graphtempod.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

type options struct {
	addr          string
	shards        string
	maxLag        int
	shardTimeout  time.Duration
	timeout       time.Duration
	probeInterval time.Duration
	drainTimeout  time.Duration
	cacheBytes    int64
	logFormat     string
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("graphtempo-router", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8090", "listen address")
	fs.StringVar(&o.shards, "shards", "", "shard map in time order: name=primaryURL[|replicaURL...][;name=...]")
	fs.IntVar(&o.maxLag, "max-lag", 0, "max replication lag (time points) a member may trail by and still feed the mirror")
	fs.DurationVar(&o.shardTimeout, "shard-timeout", 10*time.Second, "deadline of each shard call: a status probe or the ingest forward")
	fs.DurationVar(&o.timeout, "timeout", 30*time.Second, "end-to-end deadline cap of a routed request: a mirror read or an ingest")
	fs.DurationVar(&o.probeInterval, "probe-interval", 250*time.Millisecond, "member health/lag probe cadence")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 20*time.Second, "graceful shutdown budget")
	fs.Int64Var(&o.cacheBytes, "cache-bytes", 0, "byte budget of the mirror's head state's result cache and of its plan and answer memo (0 = default)")
	fs.StringVar(&o.logFormat, "log", "text", "log format: text or json")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.shards == "" {
		return nil, fmt.Errorf("-shards is required")
	}
	return o, nil
}

// routerConfig maps the parsed flags onto cluster.Config.
func routerConfig(o *options, m *cluster.ShardMap, log *slog.Logger) cluster.Config {
	return cluster.Config{
		Map:            m,
		MaxLag:         o.maxLag,
		ShardTimeout:   o.shardTimeout,
		RequestTimeout: o.timeout,
		ProbeInterval:  o.probeInterval,
		CacheBytes:     o.cacheBytes,
		Logger:         log,
	}
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	log := server.NewLogger(o.logFormat, os.Stderr)
	m, err := cluster.ParseShardMap(o.shards)
	if err != nil {
		return err
	}
	log.Info("shard map", "shards", m.String())

	// New replays every frozen shard's WAL into the mirror synchronously,
	// so a ready router serves the full timeline from the first request.
	start := time.Now()
	rt, err := cluster.New(routerConfig(o, m, log))
	if err != nil {
		return err
	}
	defer rt.Close()
	log.Info("mirror ready", "elapsed", time.Since(start).Round(time.Millisecond).String())

	hs := &http.Server{
		Addr:              o.addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

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

	log.Info("signal received, draining", "budget", o.drainTimeout.String())
	rt.BeginDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	log.Info("drained, exiting")
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "graphtempo-router:", err)
		os.Exit(1)
	}
}
