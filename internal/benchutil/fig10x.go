package benchutil

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/materialize"
	"repro/internal/timeline"
)

// This file holds the concurrent-client catalog sweep, a variant of the
// Fig. 10 materialization experiment.

// Fig10Concurrent sweeps concurrent clients over a shared
// materialize.Catalog: every worker issues union-ALL queries drawn from
// all contiguous intervals of the timeline (so requests collide on the
// cache and on in-flight computations), and the experiment reports
// aggregate throughput and its scaling versus one client.
func Fig10Concurrent(id, title string, g *core.Graph, attr string, clients []int) *Experiment {
	e := &Experiment{
		ID: id, Title: title, XLabel: "clients",
		Series: []string{"queries/s", "scaling"},
	}
	a := schemaFor(g, attr).Attrs()[0]
	tl := g.Timeline()
	var ivs []timeline.Interval
	for i := 0; i < tl.Len(); i++ {
		for j := i; j < tl.Len(); j++ {
			ivs = append(ivs, tl.Range(timeline.Time(i), timeline.Time(j)))
		}
	}
	const perClient = 400
	var base float64
	for _, n := range clients {
		// A fresh catalog per sweep point: every client mix pays the same
		// cold-start, so scaling reflects contention, not warm caches.
		cat := materialize.NewCatalog(g)
		if _, err := cat.Materialize(a); err != nil {
			panic(err)
		}
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for q := 0; q < perClient; q++ {
					if _, _, err := cat.UnionAll(ivs[(w*13+q)%len(ivs)], a); err != nil {
						panic(err)
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		qps := float64(n*perClient) / elapsed
		if base == 0 {
			base = qps
		}
		e.Add(strconv.Itoa(n), qps, ratio(qps, base))
	}
	return e
}
