package tier

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sort"
	"strconv"
)

// The consistent-hash ring maps loop content hashes to replicas. Each
// replica owns vnodes points on a uint64 ring; a key routes to the first
// point clockwise from its own position. The properties the tier needs:
//
//   - Stability: adding or removing one replica moves only the keys that
//     replica's arcs cover (~1/N of the keyspace), so the other replicas'
//     LRU and verdict caches stay hot through fleet changes.
//   - Affinity: the routing key is the same sha-256 canonical-print hash
//     the scan cache uses (scan.HashSnippet), so every request for one
//     loop lands on one replica and its caches answer repeats.
//
// The walk order additionally gives each key a deterministic fallback
// sequence: when the owner is unhealthy or saturated (bounded-load
// check in Router.pick), the key spills to the next distinct replica
// clockwise — still deterministic, still cache-friendly.

// ring is an immutable consistent-hash ring. Routers rebuild it only at
// construction; health is overlaid at lookup time via the walk order.
type ring struct {
	points []ringPoint // sorted by h
	names  []string    // distinct replica names
}

type ringPoint struct {
	h    uint64
	name string
}

// vnodes is the number of points each replica owns on the ring.
const vnodes = 64

// newRing places vnodes points per name. Placement hashes are sha-256 of
// "name#i" — stable across processes, so every router instance agrees on
// the mapping.
func newRing(names []string) *ring {
	r := &ring{names: append([]string(nil), names...)}
	for _, name := range r.names {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{h: hashString(name + "#" + strconv.Itoa(i)), name: name})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].name < r.points[j].name
	})
	return r
}

// hashString is the ring's placement hash.
func hashString(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// keyPoint positions a routing key on the ring. Keys are normally 64-char
// hex sha-256 digests (scan.HashSnippet), whose leading 16 hex digits ARE
// a uniform uint64 — no second hash needed; anything else is hashed.
func keyPoint(key string) uint64 {
	if len(key) >= 16 {
		if v, err := strconv.ParseUint(key[:16], 16, 64); err == nil {
			return v
		}
	}
	return hashString(key)
}

// walk appends to dst every replica name in ring order starting at the
// key's position, each exactly once: the primary first, then the
// bounded-load and failure spill sequence. A fleet is a handful of
// replicas, so a linear scan of what is already appended dedupes.
func (r *ring) walk(dst []string, key string) []string {
	if len(r.points) == 0 {
		return dst
	}
	h := keyPoint(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	base := len(dst)
	for i := 0; i < len(r.points) && len(dst)-base < len(r.names); i++ {
		if name := r.points[(start+i)%len(r.points)].name; !slices.Contains(dst[base:], name) {
			dst = append(dst, name)
		}
	}
	return dst
}
