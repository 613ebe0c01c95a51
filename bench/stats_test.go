package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %g, want 0", got)
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {39, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestP99RefusesSmallSamples(t *testing.T) {
	small := make([]float64, 999)
	if _, err := p99(small); err == nil {
		t.Error("p99 of 999 samples: want an error")
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i)
	}
	if got, err := p99(big); err != nil || got != 989 {
		t.Errorf("p99 of 0..999 = %g, %v; want 989", got, err)
	}
}

const promBefore = `# HELP graphtempod_plan_cache_total Plan cache lookups by result.
# TYPE graphtempod_plan_cache_total counter
graphtempod_plan_cache_total{result="hit"} 10
graphtempod_plan_cache_total{result="miss"} 4
graphtempod_storage_wal_bytes_total 1000
graphtempod_request_seconds_bucket{endpoint="aggregate",le="0.005"} 7
graphtempod_uptime_seconds 1.5e+00
`

const promAfter = `graphtempod_plan_cache_total{result="hit"} 110
graphtempod_plan_cache_total{result="miss"} 5
graphtempod_storage_wal_bytes_total 4000
graphtempod_shed_total{endpoint="aggregate"} 3
graphtempod_uptime_seconds 9.5e+00
`

func TestPromDelta(t *testing.T) {
	before, after := parseProm(promBefore), parseProm(promAfter)
	if len(before) != 5 {
		t.Fatalf("parsed %d samples, want 5: %+v", len(before), before)
	}
	for _, c := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"graphtempod_plan_cache_total", []string{`result="hit"`}, 100},
		{"graphtempod_plan_cache_total", []string{`result="miss"`}, 1},
		{"graphtempod_plan_cache_total", nil, 101},
		{"graphtempod_storage_wal_bytes_total", nil, 3000},
		{"graphtempod_shed_total", nil, 3}, // absent before: counts from zero
		{"graphtempod_uptime_seconds", nil, 8},
		{"graphtempod_nope", nil, 0},
	} {
		if got := promDelta(before, after, c.name, c.labels...); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("promDelta(%s %v) = %g, want %g", c.name, c.labels, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},   // root
		{ID: 1, Parent: 0, Start: 10, End: 40},    // child
		{ID: 2, Parent: 0, Start: 30, End: 60},    // overlaps child 1: covered once
		{ID: 3, Parent: 0, Start: 90, End: 120},   // runs past its parent: clipped
		{ID: 4, Parent: 1, Start: 15, End: 20},    // grandchild: counts against 1 only
		{ID: 5, Parent: -1, Start: 200, End: 250}, // childless root
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestPayloadHashIgnoresRunFields(t *testing.T) {
	agg := &template{Path: "/v1/aggregate"}
	a := []byte(`{"source":"scratch","elapsed_ms":56.94,"graph":{"nodes":[1]}}`)
	b := []byte(`{"source":"cached","elapsed_ms":0.01,"graph":{"nodes":[1]}}`)
	c := []byte(`{"source":"cached","elapsed_ms":0.01,"graph":{"nodes":[2]}}`)
	if payloadHash(agg, a) != payloadHash(agg, b) {
		t.Error("hash depends on source or elapsed_ms")
	}
	if payloadHash(agg, b) == payloadHash(agg, c) {
		t.Error("hash does not see the graph")
	}
	ex := &template{Path: "/v1/explore"}
	d := []byte(`{"k":3,"pairs":[],"evaluations":9,"elapsed_ms":1.5}`)
	e := []byte(`{"k":3,"pairs":[],"evaluations":9,"elapsed_ms":0.25}`)
	if payloadHash(ex, d) != payloadHash(ex, e) {
		t.Error("hash depends on a trailing elapsed_ms")
	}
}
