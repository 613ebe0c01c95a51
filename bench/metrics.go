package main

// The benchmark's vocabulary: workloads, end-to-end metrics and per-layer
// metrics. BENCHMARK.json restates these names for the driver; the smoke
// test fails when the two drift apart.

const (
	wDashHot     = "dash_hot"
	wAdhocScan   = "adhoc_scan"
	wIngestAudit = "ingest_audit"
	wRouterMix   = "router_mix"
)

// workloadDef names a workload and says in one line why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{wDashHot, "Zipf dashboard panels the plan cache and catalog answer, so the request pipeline, not the kernels, sets latency"},
	{wAdhocScan, "one-off DIST/intersection/difference scans, EXPLORE and analytics the catalog cannot answer, so the kernels set latency"},
	{wIngestAudit, "durable ingest with concurrent reads, cold and hot AS OF pins, then kill -9 and recovery: what reads cost writes and storage"},
	{wRouterMix, "scatterable and mirror-only queries through the router over two time-range shards: isolates the cluster tier's hop and merge"},
}

func workloadNames() []string {
	out := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		out[i] = w.Name
	}
	return out
}

// metricDef describes one reported number.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the reference median by which an end-to-end
	// metric may worsen before -compare (and the driver) call it a
	// regression; Abs makes it an absolute difference instead.
	Bound float64
	Abs   bool
	// On lists the workloads that report the metric; nil means all four.
	On []string
	// Gated end-to-end metrics are the ones every workload reports, so they
	// can sit in BENCHMARK.json's end_to_end list (the driver wants each of
	// those from every workload, never as a 0). The others keep their
	// bounds in -compare and appear in BENCHMARK.json under per_layer.
	Gated bool
}

func (m metricDef) on(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	readWorkloads  = []string{wDashHot, wAdhocScan, wRouterMix}
	scanWorkloads  = []string{wAdhocScan, wRouterMix}
	ingestWorkload = []string{wIngestAudit}
)

// e2eMetrics are what a user of the system sees. All lower-is-better except
// ops_per_s.
var e2eMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Gated: true},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "read_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "agg_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "explore_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: scanWorkloads},
	{Name: "stmt_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: readWorkloads},
	{Name: "pin_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: ingestWorkload},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: ingestWorkload},
	{Name: "write_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: ingestWorkload},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0.001, Abs: true},
	{Name: "server_cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "server_peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "wal_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.01, On: ingestWorkload},
}

// layerMetrics are single-layer numbers (layer = package under internal/).
// _us metrics are medians of spans recorded by the traced in-process run
// (T); counts and ratios come from /metrics deltas around the measured
// phase of the end-to-end run (M), from /proc or the filesystem (P), or
// from the client (C). They have no bound.
var layerMetrics = []metricDef{
	{Name: "server.handler_us", Unit: "us", Better: "lower"},                            // T Handler().ServeHTTP
	{Name: "server.overhead_us", Unit: "us", Better: "lower"},                           // T handler minus compile+execute+encode
	{Name: "server.encode_us", Unit: "us", Better: "lower"},                             // T json.Marshal of the answer
	{Name: "server.resp_bytes", Unit: "B", Better: "lower"},                             // T median answer size
	{Name: "server.shed", Unit: "count", Better: "lower"},                               // M shed_total
	{Name: "server.wire_us", Unit: "us", Better: "lower"},                               // C-T spawned client minus in-process handler
	{Name: "tgql.plan_us", Unit: "us", Better: "lower", On: readWorkloads},              // T tgql.PlanEnv
	{Name: "plan.compile_us", Unit: "us", Better: "lower"},                              // T plan.Compile
	{Name: "plan.execute_us", Unit: "us", Better: "lower"},                              // T Plan.Execute
	{Name: "plan.cache_hit_ratio", Unit: "ratio", Better: "higher"},                     // M plan_cache_total
	{Name: "ops.view_us", Unit: "us", Better: "lower"},                                  // T ops.Project/Union/...
	{Name: "ops.view_entities", Unit: "count", Better: "lower"},                         // T nodes+edges selected
	{Name: "agg.aggregate_us", Unit: "us", Better: "lower"},                             // T agg.AggregateParallelCtx
	{Name: "agg.groups", Unit: "count", Better: "lower"},                                // T aggregate nodes+edges
	{Name: "agg.kernel_dense_ratio", Unit: "ratio", Better: "higher"},                   // M kernel_selections_total
	{Name: "materialize.union_all_us", Unit: "us", Better: "lower"},                     // T Catalog.UnionAll
	{Name: "materialize.hit_ratio", Unit: "ratio", Better: "higher"},                    // M catalog_answers_total
	{Name: "materialize.cache_evictions", Unit: "count", Better: "lower"},               // M catalog_cache_evictions_total
	{Name: "materialize.advance_us", Unit: "us", Better: "lower", On: ingestWorkload},   // T Catalog.Advance
	{Name: "explore.explore_us", Unit: "us", Better: "lower", On: scanWorkloads},        // T Explorer.ExploreCtx
	{Name: "explore.evaluations", Unit: "count", Better: "lower", On: scanWorkloads},    // M explorer_evaluations_total
	{Name: "analytics.events_us", Unit: "us", Better: "lower", On: scanWorkloads},       // T EventsSweep
	{Name: "analytics.paths_us", Unit: "us", Better: "lower", On: []string{wAdhocScan}}, // T PathsEngine.Run
	{Name: "analytics.trend_us", Unit: "us", Better: "lower", On: []string{wDashHot, wRouterMix}},
	{Name: "evolution.aggregate_us", Unit: "us", Better: "lower", On: []string{wAdhocScan}},
	{Name: "stream.append_us", Unit: "us", Better: "lower", On: ingestWorkload},            // T Series.Append
	{Name: "stream.graph_us", Unit: "us", Better: "lower", On: ingestWorkload},             // T Series.Graph
	{Name: "storage.append_us", Unit: "us", Better: "lower", On: ingestWorkload},           // T Engine.Append
	{Name: "storage.fsyncs_per_write", Unit: "ratio", Better: "lower", On: ingestWorkload}, // M fsyncs / wal_records
	{Name: "storage.wal_bytes", Unit: "B", Better: "lower", On: ingestWorkload},            // M wal_bytes_total
	{Name: "storage.checkpoints", Unit: "count", Better: "higher", On: ingestWorkload},     // M checkpoints_total
	{Name: "storage.checkpoint_ms", Unit: "ms", Better: "lower", On: ingestWorkload},       // M last_checkpoint_ms
	{Name: "storage.dir_bytes_per_user_byte", Unit: "ratio", Better: "lower", On: ingestWorkload},
	{Name: "storage.replay_to_us", Unit: "us", Better: "lower", On: ingestWorkload},         // T Engine.ReplayTo
	{Name: "server.history_cache_bytes", Unit: "B", Better: "lower", On: ingestWorkload},    // M history_cache_bytes
	{Name: "storage.recover_ms", Unit: "ms", Better: "lower", On: ingestWorkload},           // restart -> /readyz
	{Name: "storage.recovered_points", Unit: "count", Better: "higher", On: ingestWorkload}, // /v1/status after restart
	{Name: "storage.acked_lost", Unit: "count", Better: "lower", On: ingestWorkload},        // acked txns missing after kill -9
	{Name: "storage.snapshots_unloadable", Unit: "count", Better: "lower", On: ingestWorkload},
	{Name: "cluster.partial_us", Unit: "us", Better: "lower", On: []string{wRouterMix}}, // T slowest shard partial per op
	{Name: "cluster.partial_bytes", Unit: "B", Better: "lower", On: []string{wRouterMix}},
	{Name: "cluster.merge_us", Unit: "us", Better: "lower", On: []string{wRouterMix}},          // T plan.MergePartials
	{Name: "cluster.hop_us", Unit: "us", Better: "lower", On: []string{wRouterMix}},            // T router root-span self time
	{Name: "cluster.scatter_ratio", Unit: "ratio", Better: "higher", On: []string{wRouterMix}}, // C X-Gt-Route
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},                             // T traced / untraced handler
	{Name: "trace.kernel_share", Unit: "ratio", Better: "lower"},                               // T kernel spans / handler spans
}

// contractLayerMetrics is BENCHMARK.json's per_layer list: the layer metrics
// plus the end-to-end metrics only some workloads can report.
func contractLayerMetrics() []metricDef {
	out := append([]metricDef(nil), layerMetrics...)
	for _, m := range e2eMetrics {
		if !m.Gated {
			out = append(out, m)
		}
	}
	return out
}

// gatedMetrics is BENCHMARK.json's end_to_end list.
func gatedMetrics() []metricDef {
	var out []metricDef
	for _, m := range e2eMetrics {
		if m.Gated {
			out = append(out, m)
		}
	}
	return out
}
