package main

import (
	"encoding/json"
	"io"
)

// manifest is BENCHMARK.json: what the driver reads to run the benchmark.
// `-manifest` prints it from the tables in metrics.go, and the smoke test
// compares the committed file with it, so file and code cannot drift.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadDef    `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// contractSeconds is the measured-phase length the driver passes as
// --seconds; the op rates in opsPerSecond were calibrated against it.
const contractSeconds = 10

func newManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: contractSeconds,
		Workloads:  workloadDefs,
	}
	for _, d := range gatedMetrics() {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &bound})
	}
	for _, d := range contractLayerMetrics() {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(newManifest())
}
