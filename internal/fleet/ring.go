package fleet

import (
	"slices"
	"sort"
)

// ringVnodes is how many points each member contributes to the hash ring.
// 64 keeps the per-member load spread within a few percent of uniform for
// the fleet sizes this tier targets (single digits to tens of replicas).
const ringVnodes = 64

// Ring is a consistent-hash ring over member names. Routing a key walks the
// ring clockwise from the key's position and collects distinct members in
// ring order — the natural failover sequence: when the primary for a key
// dies, its traffic lands on the next member, and every other key's
// placement is undisturbed.
type Ring struct {
	points []ringPoint // sorted by hash, ringVnodes per member
}

type ringPoint struct {
	hash   uint64
	member string
}

func NewRing() *Ring { return &Ring{} }

// mix64 is SplitMix64's finalizer — a cheap, well-distributed 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashString is FNV-1a, inlined to keep the ring dependency-free.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Add inserts a member's vnodes; re-adding is a no-op.
func (r *Ring) Add(member string) {
	if slices.ContainsFunc(r.points, func(p ringPoint) bool { return p.member == member }) {
		return
	}
	base := hashString(member)
	for v := 0; v < ringVnodes; v++ {
		r.points = append(r.points, ringPoint{hash: mix64(base + uint64(v)*0x9e3779b97f4a7c15), member: member})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.points) / ringVnodes }

// Route returns up to n distinct members in ring order starting at key's
// position — the preference list for a request: index 0 is the primary,
// the rest are failover targets.
func (r *Ring) Route(key uint64, n int) []string {
	if len(r.points) == 0 || n < 1 {
		return nil
	}
	n = min(n, r.Len())
	h := mix64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		if p := r.points[(start+i)%len(r.points)]; !slices.Contains(out, p.member) {
			out = append(out, p.member)
		}
	}
	return out
}
