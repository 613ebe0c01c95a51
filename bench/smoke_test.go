package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestManifestMatchesCode keeps BENCHMARK.json and the tables in metrics.go
// from drifting apart: the committed file must be what -manifest prints.
func TestManifestMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed, fromCode any
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	out, err := json.Marshal(newManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out, &fromCode); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, fromCode) {
		t.Errorf("BENCHMARK.json differs from the code's manifest; regenerate it with\n  bash bench/run.sh -manifest > BENCHMARK.json")
	}
}

func smokeConfig(t *testing.T) *config {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	return &config{
		root: root, out: out, binDir: filepath.Join(out, "bin"),
		seed: 1, seconds: 1, scale: 0.05, conns: 2, setups: 1,
		opsOverride: map[string]int{wDashHot: 80, wAdhocScan: 30, wIngestAudit: 12, wRouterMix: 40},
	}
}

// checkNames fails on any reported metric the vocabulary does not list for
// the workload, so a result can always be read against BENCHMARK.json.
func checkNames(t *testing.T, res *result) {
	t.Helper()
	known := func(defs []metricDef, name string) bool {
		for _, m := range defs {
			if m.Name == name {
				return m.on(res.Workload)
			}
		}
		return false
	}
	for name := range res.E2E {
		if !known(e2eMetrics, name) {
			t.Errorf("%s reports end-to-end metric %q, which metrics.go does not list for it", res.Workload, name)
		}
	}
	for name := range res.Layer {
		if !known(layerMetrics, name) {
			t.Errorf("%s reports layer metric %q, which metrics.go does not list for it", res.Workload, name)
		}
	}
	if res.Failed != 0 {
		t.Errorf("%s: %d failed checks: %v", res.Workload, res.Failed, res.Checks)
	}
}

// TestSmokeTraced runs the in-process traced path of all four workloads on
// a tiny dataset.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	for _, name := range workloadNames() {
		cfg := smokeConfig(t)
		cfg.traced = true
		res, err := runners[name](cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkNames(t, res)
		for _, must := range []string{"server.handler_us", "plan.execute_us", "trace.overhead_ratio"} {
			if res.Layer[must] <= 0 {
				t.Errorf("%s: traced run produced no %s", name, must)
			}
		}
		if _, err := os.Stat(res.TraceFile); err != nil {
			t.Errorf("%s: no span file: %v", name, err)
		}
		if _, err := newContractLine(res, true); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestSmokeSpawned builds the daemons from the working tree, spawns a
// static graphtempod and drives dash_hot against it over loopback HTTP.
func TestSmokeSpawned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the daemons")
	}
	cfg := smokeConfig(t)
	cfg.e2e = true
	if err := buildDaemons(cfg.root, cfg.binDir); err != nil {
		t.Fatal(err)
	}
	res, err := runDashHot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkNames(t, res)
	line, err := newContractLine(res, false)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, want := range m.EndToEnd {
		got, ok := line.Metrics[want.Name]
		if !ok || got.Unit != want.Unit || got.Value <= 0 {
			t.Errorf("end-to-end metric %s: got %+v, want a positive value in %s", want.Name, got, want.Unit)
		}
	}
	if len(line.Metrics) != len(m.EndToEnd) {
		t.Errorf("%d metrics in the result line, %d in BENCHMARK.json", len(line.Metrics), len(m.EndToEnd))
	}
}
