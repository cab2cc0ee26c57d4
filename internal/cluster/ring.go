package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// defaultVNodes is the virtual-node count per member. 128 points per node
// keeps the max/min key share under 1.6x from 3 through 16 nodes (see
// ring_test.go) while a membership change still only rebuilds a few KB of
// sorted points.
const defaultVNodes = 128

// ringPoint is one virtual node: a position on the 64-bit hash circle owned
// by a member.
type ringPoint struct {
	hash uint64
	node string
}

// ring is an immutable consistent-hash ring over a member set. Build one
// with buildRing; lookups walk clockwise from the key's hash.
type ring struct {
	points []ringPoint
}

// hashKey positions a key (a model name, or a node#vnode label) on the
// circle: FNV-64a followed by a 64-bit avalanche finalizer (murmur3's
// fmix64). FNV alone leaves short sequential labels like "node#0".."node#127"
// correlated in the high bits, which skews vnode placement badly; the
// finalizer restores uniform dispersion.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// buildRing places vnodes points per node on the circle. Ties (vanishingly
// rare with 64-bit hashes) break by node id so the ring is deterministic
// across processes given the same member set.
func buildRing(nodes []string, vnodes int) *ring {
	points := make([]ringPoint, 0, len(nodes)*vnodes)
	for _, n := range nodes {
		for v := 0; v < vnodes; v++ {
			points = append(points, ringPoint{hash: hashKey(n + "#" + strconv.Itoa(v)), node: n})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].node < points[j].node
	})
	return &ring{points: points}
}

// owners returns up to max distinct nodes in ring order starting at the
// key's position — the key's primary owner first, then its replica
// candidates. An empty ring returns nil.
func (r *ring) owners(key string, max int) []string {
	if r == nil || len(r.points) == 0 || max <= 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]struct{}, max)
	out := make([]string, 0, max)
	for i := 0; i < len(r.points) && len(out) < max; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, ok := seen[p.node]; ok {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}

// owner returns the key's primary owner ("" on an empty ring).
func (r *ring) owner(key string) string {
	o := r.owners(key, 1)
	if len(o) == 0 {
		return ""
	}
	return o[0]
}
