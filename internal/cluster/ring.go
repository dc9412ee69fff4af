package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a static-membership consistent-hash ring: each member
// contributes vnodes points (hashes of "id#i"), and a key belongs to
// the member owning the first point clockwise of the key's hash.
// Membership is fixed at construction — the cluster layer is static —
// so lookups are lock-free binary searches.
type Ring struct {
	points []ringPoint // sorted by (hash, node)
	nodes  []string    // member ids, sorted
}

// NewRing builds the ring for the given member ids with vnodes
// virtual nodes per member. Duplicate ids are collapsed.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = 1
	}
	seen := make(map[string]bool, len(nodes))
	var uniq []string
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	r := &Ring{
		nodes:  uniq,
		points: make([]ringPoint, 0, len(uniq)*vnodes),
	}
	for _, n := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(n + "#" + strconv.Itoa(i)), node: n})
		}
	}
	// Ties (identical hashes) are broken by node id so the ring is a
	// pure function of membership, never of insertion order.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// hash64 is FNV-1a over the key bytes followed by a splitmix64-style
// finalizer. Plain FNV-1a is stable across processes and Go versions
// (unlike maphash) but mixes the short, similar vnode labels ("n1#0",
// "n1#1", ...) poorly — adjacent labels land on adjacent ring points
// and the load imbalance blows past 2x; the finalizer restores
// avalanche without giving up stability.
func hash64(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key)) //lint:allow errcheck fnv.Write never fails
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Nodes returns the member ids, sorted.
func (r *Ring) Nodes() []string { return r.nodes }

// search returns the index of the first ring point at or clockwise of
// the key's hash (wrapping past the top of the circle).
func (r *Ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the member owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].node
}
