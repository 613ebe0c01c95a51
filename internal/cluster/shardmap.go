// Package cluster is GraphTempo's horizontal serving tier: a router that
// fronts N graphtempod processes, each owning a contiguous time-range
// shard of the temporal graph, with WAL-streamed replicas.
//
// The router answers every read from its mirror: a full replica of every
// shard's stream, rebuilt through the same WAL replication path replicas
// use, and served by an embedded single-node server — so answers and error
// messages are byte-identical to a single-node deployment by construction,
// and the paper's T-distributive reuse (§4.3) runs inside the mirror's
// catalog instead of across HTTP. Frozen history lives in the mirror, so
// reads do not depend on shard liveness.
//
// Topology contract: shards are listed in time order; every shard except
// the last is frozen (its time range no longer grows) and the last (tail)
// shard receives all new ingests. Writes go to the tail shard's primary
// only; replicas follow their primary's WAL over HTTP, and the mirror's
// tail follower fails over to a caught-up replica. Ingest batches are
// self-contained: every appearance restates its static attribute values,
// so a shard never depends on an appearance that lives in an earlier
// shard's range (DESIGN.md §5).
package cluster

import (
	"fmt"
	"net/url"
	"strings"
)

// Member is one process of a shard: the primary (first in spec order) or
// a read replica.
type Member struct {
	URL  string // base URL, e.g. http://127.0.0.1:7101
	Role string // primary or replica
}

// Shard is one contiguous time-range shard: a name and its members,
// primary first.
type Shard struct {
	Name    string
	Members []Member
}

// Primary returns the shard's primary member.
func (s Shard) Primary() Member { return s.Members[0] }

// ShardMap is the cluster topology, shards in time order (the last shard
// is the tail that receives ingests).
type ShardMap struct {
	Shards []Shard
}

// ParseShardMap parses the -shards flag spelling:
//
//	name=primaryURL[|replicaURL...][;name=...]
//
// e.g. "a=http://127.0.0.1:7101|http://127.0.0.1:7102;b=http://127.0.0.1:7201".
// Shards must be listed in time order; the last one is the ingest tail.
// Each member URL may be named once: two members at one address are one
// process, which the router's mirror would replay once per shard.
func ParseShardMap(spec string) (*ShardMap, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("cluster: empty shard map")
	}
	m := &ShardMap{}
	seen := make(map[string]bool)
	members := make(map[string]string) // member URL -> its shard
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, urls, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("cluster: shard %q: want name=url[|url...]", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", name)
		}
		seen[name] = true
		sh := Shard{Name: name}
		for i, u := range strings.Split(urls, "|") {
			u = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(u), "/"))
			parsed, err := url.Parse(u)
			if err != nil || parsed.Scheme == "" || parsed.Host == "" {
				return nil, fmt.Errorf("cluster: shard %q: bad member URL %q", name, u)
			}
			if other, dup := members[u]; dup {
				return nil, fmt.Errorf("cluster: member URL %q named twice (shards %q and %q)", u, other, name)
			}
			members[u] = name
			role := "replica"
			if i == 0 {
				role = "primary"
			}
			sh.Members = append(sh.Members, Member{URL: u, Role: role})
		}
		if len(sh.Members) == 0 {
			return nil, fmt.Errorf("cluster: shard %q has no members", name)
		}
		m.Shards = append(m.Shards, sh)
	}
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("cluster: shard map has no shards")
	}
	return m, nil
}

// Tail returns the index of the tail (ingest) shard.
func (m *ShardMap) Tail() int { return len(m.Shards) - 1 }

// String renders the map in the flag spelling.
func (m *ShardMap) String() string {
	var b strings.Builder
	for i, sh := range m.Shards {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(sh.Name)
		b.WriteByte('=')
		for j, mem := range sh.Members {
			if j > 0 {
				b.WriteByte('|')
			}
			b.WriteString(mem.URL)
		}
	}
	return b.String()
}
