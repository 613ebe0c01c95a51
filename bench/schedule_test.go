package main

import (
	"math/rand"
	"testing"
)

func testLabels() []string {
	return []string{"2000", "2001", "2002", "2003", "2004", "2005", "2006", "2007", "2008", "2009", "2010",
		"2011", "2012", "2013", "2014", "2015", "2016", "2017", "2018", "2019", "2020"}
}

func testKRange(string) (int64, int64) { return 100, 900 }

// build returns every schedule builder's output for a seed.
func buildSchedules(seed int64) map[string]*schedule {
	labels := testLabels()
	nodes := []string{"a1", "a2", "a3", "a4", "a5", "a6", "a7"}
	return map[string]*schedule{
		wDashHot:   dashHotSchedule(labels, 500, rand.New(rand.NewSource(seed))),
		wAdhocScan: adhocSchedule(labels, nodes, testKRange, 500, rand.New(rand.NewSource(seed))),
		wRouterMix: routerMixSchedule(labels, 10, testKRange, routerHeavyPct, 500, rand.New(rand.NewSource(seed))),
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	a, b, c := buildSchedules(7), buildSchedules(7), buildSchedules(8)
	for name := range a {
		if a[name].hash() != b[name].hash() {
			t.Errorf("%s: the same seed gave two different schedules", name)
		}
		if a[name].hash() == c[name].hash() {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
		if len(a[name].ops) != 500 {
			t.Errorf("%s: %d ops, want 500", name, len(a[name].ops))
		}
	}
}

func TestDashHotIsZipfOverFixedPanels(t *testing.T) {
	s := dashHotSchedule(testLabels(), 10000, rand.New(rand.NewSource(1)))
	counts := make([]int, len(s.templates))
	for _, op := range s.ops {
		counts[op]++
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Errorf("rank %d asked %d times, more than rank %d (%d)", i+1, counts[i], i, counts[i-1])
		}
	}
	for _, tp := range s.templates {
		if tp.Agg != nil && tp.Agg.Kind != "all" {
			t.Errorf("%s: dash_hot asks no DIST (the catalog never answers it)", tp.Name)
		}
	}
}

func TestAdhocScansAreOneOffAndNeverCatalogAnswerable(t *testing.T) {
	s := adhocSchedule(testLabels(), []string{"n1", "n2", "n3"}, testKRange, 2000, rand.New(rand.NewSource(3)))
	seen := map[string]bool{}
	unchecked := 0
	for _, tp := range s.templates {
		if seen[tp.Name] {
			t.Fatalf("template %s built twice", tp.Name)
		}
		seen[tp.Name] = true
		if tp.Agg != nil && tp.Agg.Op == "union" && tp.Agg.Kind == "all" {
			t.Errorf("%s is union-ALL: the catalog would answer it", tp.Name)
		}
		if !tp.Checked {
			unchecked++
		}
	}
	if unchecked < 1000 {
		t.Errorf("only %d one-off scans among 2000 ops", unchecked)
	}
}

func TestScanDrawsCoverEveryRangeEqually(t *testing.T) {
	labels := testLabels()
	d := newScanDraws(labels, rand.New(rand.NewSource(5)))
	n := len(d.ranges)
	if want := len(labels) * (len(labels) + 1) / 2; n != want {
		t.Fatalf("%d ranges, want %d", n, want)
	}
	asA := map[string]int{}
	for i := 0; i < 2*n; i++ {
		tp := d.next(false)
		asA[tp.Agg.Interval.From+".."+tp.Agg.Interval.To]++
	}
	if len(asA) != n {
		t.Errorf("%d distinct first operands over two passes, want all %d", len(asA), n)
	}
	for r, c := range asA {
		if c != 2 {
			t.Errorf("range %s was the first operand %d times in two passes, want 2", r, c)
		}
	}
}

func TestApportionCountsFollowWeights(t *testing.T) {
	ops := apportion([]float64{6, 3, 1}, 1000, rand.New(rand.NewSource(1)))
	counts := [3]int{}
	for _, op := range ops {
		counts[op]++
	}
	if counts != [3]int{600, 300, 100} {
		t.Errorf("counts %v, want [600 300 100]", counts)
	}
}
