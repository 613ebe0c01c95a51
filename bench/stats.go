package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(p/100*float64(n)+0.999999999) - 1 // ceil(p/100*n) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// tailPercentiles are the tail candidates, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// highestPercentile names the highest tail percentile that still has at
// least ten samples beyond it (so the reported value is not a single
// outlier); 50 when even p75 has fewer.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// p99 refuses to name a 99th percentile from fewer than 1000 samples: with
// fewer than ten samples beyond it the number is one outlier's latency.
func p99(sorted []float64) (float64, error) {
	if len(sorted) < 1000 {
		return 0, fmt.Errorf("p99 needs >= 1000 samples, have %d (highest supported: p%g)",
			len(sorted), highestPercentile(len(sorted)))
	}
	return percentile(sorted, 99), nil
}

// median sorts a copy and returns its 50th percentile.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// promSample is one parsed Prometheus text-exposition series.
type promSample struct {
	name   string
	labels string // the raw {...} content, "" when unlabeled
	value  float64
}

// parseProm parses the text exposition format (the subset the daemons
// write: no timestamps, no escaped quotes in label values). Histogram
// bucket/sum/count series come through as ordinary samples.
func parseProm(text string) []promSample {
	var out []promSample
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		s := promSample{name: series, value: v}
		if open := strings.IndexByte(series, '{'); open >= 0 && strings.HasSuffix(series, "}") {
			s.name, s.labels = series[:open], series[open+1:len(series)-1]
		}
		out = append(out, s)
	}
	return out
}

// promSum adds up every series called name whose label set contains each
// of the given `key="value"` fragments; no fragments sums all of them.
func promSum(samples []promSample, name string, labels ...string) float64 {
	var sum float64
next:
	for _, s := range samples {
		if s.name != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(s.labels, l) {
				continue next
			}
		}
		sum += s.value
	}
	return sum
}

// promDelta is promSum(after) - promSum(before): the counter's growth
// across the measured phase. A series absent before counts from zero.
func promDelta(before, after []promSample, name string, labels ...string) float64 {
	return promSum(after, name, labels...) - promSum(before, name, labels...)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
