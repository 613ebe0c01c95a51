package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// client is one closed-loop caller: one keep-alive connection, one request
// in flight, the next sent only after the previous reply was read in full.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body and returns the status, the reply (valid until the next
// call), its headers and the client-observed latency: request written to
// reply fully read.
func (c *client) post(url string, body []byte) (int, []byte, http.Header, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.buf.Reset()
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, time.Since(start), err
	}
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return resp.StatusCode, nil, resp.Header, d, err
	}
	return resp.StatusCode, c.buf.Bytes(), resp.Header, d, nil
}

// sample is one completed, correct op.
type sample struct {
	tmpl int32
	ns   int64
}

// checks collects correctness failures; each prints one CHECK line (the
// first maxCheckLines of them) and counts into fail_ratio.
type checks struct {
	mu       sync.Mutex
	workload string
	failed   int
	lines    []string
}

const maxCheckLines = 20

func (c *checks) fail(name, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.lines) < maxCheckLines {
		line := fmt.Sprintf("CHECK %s/%s: FAIL %s", c.workload, name, fmt.Sprintf(format, args...))
		c.lines = append(c.lines, line)
		fmt.Println(line)
	}
}

// loadResult is what one measured phase observed from the client side.
type loadResult struct {
	samples   []sample
	attempted int
	wall      time.Duration
	routes    map[string]int // X-Gt-Route header values (router only)
}

// merge pools another phase's observations into lr.
func (lr *loadResult) merge(o *loadResult) {
	lr.samples = append(lr.samples, o.samples...)
	lr.attempted += o.attempted
	lr.wall += o.wall
	for k, v := range o.routes {
		lr.routes[k] += v
	}
}

// runLoad drives ops against base from the closed-loop clients, which share
// one cursor, so the op count is fixed whatever the servers' speed. hashes
// holds, per checked template, the payload hash its answer must keep
// (recorded at warm-up after the oracle comparison).
func runLoad(base string, s *schedule, ops []int32, clients []*client, hashes []uint64, ck *checks) *loadResult {
	var cursor atomic.Int64
	var mu sync.Mutex
	res := &loadResult{routes: map[string]int{}, attempted: len(ops)}
	var wg sync.WaitGroup
	start := time.Now()
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]sample, 0, len(ops)/len(clients)+1)
			routes := map[string]int{}
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(ops) {
					break
				}
				ti := ops[i]
				t := &s.templates[ti]
				status, body, hdr, d, err := cl.post(base+t.Path, t.Body)
				switch {
				case err != nil:
					ck.fail(t.Name, "transport: %v", err)
					continue
				case status != http.StatusOK:
					ck.fail(t.Name, "status %d: %.160s", status, body)
					continue
				}
				if r := hdr.Get("X-Gt-Route"); r != "" {
					routes[r]++
				}
				if t.Checked {
					if got := payloadHash(t, body); got != hashes[ti] {
						ck.fail(t.Name, "payload changed during the measured phase (hash %x, warm-up %x)", got, hashes[ti])
						continue
					}
				} else if !bytes.Contains(body, []byte(`"graph":{`)) {
					ck.fail(t.Name, "answer carries no graph: %.160s", body)
					continue
				}
				local = append(local, sample{tmpl: ti, ns: int64(d)})
			}
			mu.Lock()
			res.samples = append(res.samples, local...)
			for k, v := range routes {
				res.routes[k] += v
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// warmUp asks every checked template once, byte-compares the answer's
// payload with the oracle's and records the payload hash the measured phase
// must keep seeing. It is the last step of set-up: afterwards the plan
// cache and the catalog hold what a long-running daemon would hold.
func warmUp(base string, s *schedule, want [][]byte, ck *checks) ([]uint64, int) {
	cl := newClient()
	defer cl.close()
	hashes := make([]uint64, len(s.templates))
	asked := 0
	for i := range s.templates {
		t := &s.templates[i]
		if !t.Checked {
			continue
		}
		asked++
		status, body, _, _, err := cl.post(base+t.Path, t.Body)
		if err != nil {
			ck.fail(t.Name, "warm-up transport: %v", err)
			continue
		}
		if status != http.StatusOK {
			ck.fail(t.Name, "warm-up status %d: %.160s", status, body)
			continue
		}
		hashes[i] = payloadHash(t, body)
		got, err := payload(t, body)
		if err != nil {
			ck.fail(t.Name, "%v", err)
		} else if !bytes.Equal(got, want[i]) {
			ck.fail(t.Name, "answer differs from the oracle: got %d bytes %.80s… want %d bytes %.80s…",
				len(got), got, len(want[i]), want[i])
		}
	}
	return hashes, asked
}

// latencies splits samples into ascending per-class latency lists in ms,
// plus the pooled list of all of them.
func latencies(s *schedule, samples []sample) (byClass [numClasses][]float64, all []float64) {
	for _, sm := range samples {
		ms := float64(sm.ns) / 1e6
		c := s.templates[sm.tmpl].Class
		byClass[c] = append(byClass[c], ms)
		all = append(all, ms)
	}
	for c := range byClass {
		sort.Float64s(byClass[c])
	}
	sort.Float64s(all)
	return byClass, all
}
