package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
)

// MemberHealth is the router's current view of one shard member, built
// from its GET /v1/status probe. Lag is the member's distance behind the
// shard's high-water mark (the max Points observed across the shard's
// members); the primary is normally at 0.
type MemberHealth struct {
	URL      string `json:"url"`
	Role     string `json:"role"`
	Alive    bool   `json:"alive"`
	Draining bool   `json:"draining,omitempty"`
	Points   int    `json:"points"`
	Visible  int    `json:"visible"`
	Txn      int    `json:"txn"`
	Lag      int    `json:"lag"`
	Err      string `json:"err,omitempty"`
}

// health polls every member's /v1/status and maintains the liveness and
// replication-lag view the mirror's followers pick a member by.
type health struct {
	m       *ShardMap
	client  *http.Client
	timeout time.Duration

	mu     sync.Mutex
	states map[string]MemberHealth
}

func newHealth(m *ShardMap, client *http.Client, timeout time.Duration) *health {
	return &health{m: m, client: client, timeout: timeout, states: make(map[string]MemberHealth)}
}

// probe refreshes every member in parallel, then recomputes per-shard lag
// against the shard high-water mark.
func (h *health) probe(ctx context.Context) {
	type res struct {
		url string
		st  MemberHealth
	}
	var wg sync.WaitGroup
	out := make(chan res, 16)
	for _, sh := range h.m.Shards {
		for _, mem := range sh.Members {
			wg.Add(1)
			go func(mem Member) {
				defer wg.Done()
				out <- res{mem.URL, h.probeMember(ctx, mem)}
			}(mem)
		}
	}
	go func() { wg.Wait(); close(out) }()
	fresh := make(map[string]MemberHealth)
	for r := range out {
		fresh[r.url] = r.st
	}
	// Lag is relative to the highest watermark any member of the shard
	// reports; a dead member keeps its last-known points for that purpose.
	for _, sh := range h.m.Shards {
		high := 0
		for _, mem := range sh.Members {
			if st := fresh[mem.URL]; st.Points > high {
				high = st.Points
			}
		}
		for _, mem := range sh.Members {
			st := fresh[mem.URL]
			st.Lag = high - st.Points
			fresh[mem.URL] = st
		}
	}
	h.mu.Lock()
	h.states = fresh
	h.mu.Unlock()
}

func (h *health) probeMember(ctx context.Context, mem Member) MemberHealth {
	st := MemberHealth{URL: mem.URL, Role: mem.Role}
	rctx, cancel := context.WithTimeout(ctx, h.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, mem.URL+"/v1/status", nil)
	if err != nil {
		st.Err = err.Error()
		return st
	}
	resp, err := h.client.Do(req)
	if err != nil {
		st.Err = err.Error()
		return st
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		st.Err = fmt.Sprintf("status %d: %s", resp.StatusCode, data)
		return st
	}
	var sr server.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		st.Err = err.Error()
		return st
	}
	st.Alive = true
	st.Draining = sr.Draining
	st.Points = sr.Points
	st.Visible = sr.Visible
	st.Txn = sr.Txn
	return st
}

// run probes on a fixed cadence until ctx is done.
func (h *health) run(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			h.probe(ctx)
		}
	}
}

// member returns the current view of one member URL.
func (h *health) member(url string) MemberHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.states[url]
}

// candidates orders a shard's members for replication: the primary first,
// then replicas, keeping only live, non-draining members within maxLag. When
// nothing qualifies the full member list is returned — the health view
// may be stale, and an actual request is the authoritative probe.
func (h *health) candidates(sh Shard, maxLag int) []Member {
	h.mu.Lock()
	defer h.mu.Unlock()
	var good []Member
	for _, mem := range sh.Members {
		st := h.states[mem.URL]
		if st.Alive && !st.Draining && st.Lag <= maxLag {
			good = append(good, mem)
		}
	}
	if len(good) == 0 {
		return sh.Members
	}
	return good
}
