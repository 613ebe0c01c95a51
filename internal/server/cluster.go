package server

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/plan"
	"repro/internal/storage"
)

// This file is the shard-side control plane of the cluster tier: the
// status/labels probes the router builds its shard map and lag view from,
// and the WAL stream that feeds read replicas and the router's mirror.

// Cluster roles, as reported by /v1/status and configured via Config.Role.
const (
	RoleSingle  = "single"
	RolePrimary = "primary"
	RoleReplica = "replica"
)

// BuildVersion, when set by the binary's main (e.g. from -ldflags), is
// reported verbatim in /v1/status; otherwise the module's VCS stamp is
// used.
var BuildVersion string

// role resolves the effective cluster role.
func (s *Server) role() string {
	if s.cfg.Role != "" {
		return s.cfg.Role
	}
	if s.cfg.ShardName != "" {
		return RolePrimary
	}
	return RoleSingle
}

// BuildString renders the build identity: BuildVersion if stamped, else
// the VCS revision baked into the binary, else "dev". Exported for the
// router, which reports the same identity from its own /v1/status.
func BuildString() string {
	if BuildVersion != "" {
		return BuildVersion
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			return rev + dirty
		}
	}
	return "dev"
}

// StatusAttr is one schema attribute in the status report; the router's
// mirror reconstructs its series schema from these.
type StatusAttr struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // static or time-varying
}

// StatusResponse is the GET /v1/status body: build identity, mode and
// cluster role, and the replication watermarks the router's health and lag
// probes consume. Points is the WAL high-water sequence (time points ever
// appended — the exclusive upper bound of /v1/wal/stream); Visible is the
// serving generation queries currently answer at (Visible < Points only in
// the short window between an append and the next lazy advance).
type StatusResponse struct {
	Build             string       `json:"build"`
	GoVersion         string       `json:"go_version"`
	FormatVersion     int          `json:"format_version"`
	Mode              string       `json:"mode"` // static, stream or durable
	Role              string       `json:"role"`
	Shard             string       `json:"shard,omitempty"`
	Points            int          `json:"points"`
	Visible           int          `json:"visible"`
	Txn               int          `json:"txn"`
	StorageGeneration uint64       `json:"storage_generation,omitempty"`
	Attrs             []StatusAttr `json:"attrs"`
	Draining          bool         `json:"draining"`
}

// timelinePoints returns the number of time points and a label fetch for
// the serving timeline, whichever mode backs it.
func (s *Server) timelinePoints() (int, func() []string) {
	if s.series != nil {
		return s.series.Len(), s.series.Labels
	}
	tl := s.cfg.Graph.Timeline()
	return tl.Len(), tl.Labels
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	mode := "static"
	if s.storage != nil {
		mode = "durable"
	} else if s.series != nil {
		mode = "stream"
	}
	points, _ := s.timelinePoints()
	resp := StatusResponse{
		Build:         BuildString(),
		GoVersion:     runtime.Version(),
		FormatVersion: int(storage.FormatVersion),
		Mode:          mode,
		Role:          s.role(),
		Shard:         s.cfg.ShardName,
		Points:        points,
		Visible:       points, // static mode serves its whole timeline
		Txn:           s.headTxn(),
		Draining:      s.draining.Load(),
	}
	if s.series != nil {
		resp.Visible = 0
		if st := s.cur.Load(); st != nil {
			resp.Visible = st.gen
		}
		for _, a := range s.series.Attrs() {
			resp.Attrs = append(resp.Attrs, StatusAttr{Name: a.Name, Kind: a.Kind.String()})
		}
	} else {
		for _, a := range s.cfg.Graph.Attrs() {
			resp.Attrs = append(resp.Attrs, StatusAttr{Name: a.Name, Kind: a.Kind.String()})
		}
	}
	if s.storage != nil {
		resp.StorageGeneration = s.storage.Stats().Generation
	}
	writeJSON(w, resp)
}

// LabelsResponse is the GET /v1/labels body: the total point count and the
// time-point labels from the requested index on. The router pins shard
// boundaries from these at startup and maps global labels to shards.
type LabelsResponse struct {
	Points int      `json:"points"`
	Labels []string `json:"labels"`
}

func (s *Server) handleLabels(w http.ResponseWriter, r *http.Request) {
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("from must be a non-negative integer"))
			return
		}
		from = n
	}
	points, fetch := s.timelinePoints()
	if from > points {
		writeError(w, http.StatusBadRequest, fmt.Errorf("from %d is beyond the timeline end %d", from, points))
		return
	}
	labels := fetch()
	writeJSON(w, LabelsResponse{Points: points, Labels: labels[from:]})
}

// PartialAggregateResponse is the retired partial-aggregate reply: a
// shard-local partial with AggregateResponse's source/elapsed reporting.
// bench/traced.go is its last caller.
type PartialAggregateResponse struct {
	Source    string              `json:"source,omitempty"`
	ElapsedMs float64             `json:"elapsed_ms"`
	Partial   *plan.PartialResult `json:"partial"`
}

// handleWALStream serves GET /v1/wal/stream?from=N[&wait_ms=W]: the ingest
// records with global sequence >= N, each framed [len][crc32c][payload]
// (storage.ReadFramedRecord decodes). X-Wal-From/X-Wal-Next bracket the
// returned range; wait_ms long-polls for new records when the follower is
// caught up, so replication stays tight without hammering the primary.
func (s *Server) handleWALStream(w http.ResponseWriter, r *http.Request) {
	if s.series == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("server runs in static mode; there is no WAL to stream"))
		return
	}
	q := r.URL.Query()
	from := 0
	if v := q.Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("from must be a non-negative integer"))
			return
		}
		from = n
	}
	waitMs := 0
	if v := q.Get("wait_ms"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("wait_ms must be a non-negative integer"))
			return
		}
		waitMs = n
	}
	deadline := time.Now().Add(time.Duration(waitMs) * time.Millisecond)
	for {
		n := s.series.Len()
		if from > n {
			writeError(w, http.StatusBadRequest, fmt.Errorf("wal stream: from %d is beyond the log end %d", from, n))
			return
		}
		if n > from || waitMs == 0 || !time.Now().Before(deadline) {
			break
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	records := s.tailRecords(from)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Wal-From", strconv.Itoa(from))
	w.Header().Set("X-Wal-Next", strconv.Itoa(from+len(records)))
	w.WriteHeader(http.StatusOK)
	for _, rec := range records {
		if err := storage.WriteFramedRecord(w, rec); err != nil {
			return // client went away mid-stream; it will re-request from its applied seq
		}
	}
}

// tailRecords returns the encoded ingest records from global sequence
// `from`. Durable mode serves the engine's retained raw log (the bytes the
// WAL framed on disk); non-durable stream mode re-encodes from the series
// journal — transaction order, not valid order, so retroactive inserts
// replay at the position they arrived and the follower converges on an
// identical series.
func (s *Server) tailRecords(from int) [][]byte {
	if s.storage != nil {
		if recs, err := s.storage.TailRecords(from); err == nil {
			return recs
		}
	}
	journal := s.series.Journal()
	if from >= len(journal) {
		return nil
	}
	out := make([][]byte, 0, len(journal)-from)
	for _, e := range journal[from:] {
		out = append(out, storage.EncodeIngestRecord(e.Label, e.Before, e.Snap))
	}
	return out
}
