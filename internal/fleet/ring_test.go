package fleet

import "testing"

func TestRingRouteDistinctAndStable(t *testing.T) {
	r := NewRing()
	for _, m := range []string{"a", "b", "c", "d"} {
		r.Add(m)
	}
	for key := uint64(0); key < 100; key++ {
		got := r.Route(key, 3)
		if len(got) != 3 {
			t.Fatalf("key %d: %d members, want 3", key, len(got))
		}
		seen := map[string]bool{}
		for _, m := range got {
			if seen[m] {
				t.Fatalf("key %d: duplicate member %s", key, m)
			}
			seen[m] = true
		}
		// Same key, same preference list.
		again := r.Route(key, 3)
		for i := range got {
			if got[i] != again[i] {
				t.Fatalf("key %d: routing not deterministic", key)
			}
		}
	}
}

func TestRingBalance(t *testing.T) {
	// With 64 vnodes per member the primary load should be roughly uniform:
	// no member owns more than 2.5x its fair share over many keys.
	r := NewRing()
	members := []string{"r1", "r2", "r3", "r4", "r5"}
	for _, m := range members {
		r.Add(m)
	}
	counts := map[string]int{}
	const keys = 5000
	for key := uint64(0); key < keys; key++ {
		counts[r.Route(key, 1)[0]]++
	}
	fair := float64(keys) / float64(len(members))
	for _, m := range members {
		if c := float64(counts[m]); c > 2.5*fair || c < fair/2.5 {
			t.Fatalf("member %s owns %d of %d keys (fair %.0f)", m, counts[m], keys, fair)
		}
	}
}

func TestRingEmptyAndDoubleAdd(t *testing.T) {
	r := NewRing()
	if got := r.Route(1, 3); got != nil {
		t.Fatalf("empty ring routed to %v", got)
	}
	r.Add("a")
	r.Add("a") // idempotent
	if r.Len() != 1 {
		t.Fatalf("double add inflated the ring to %d members", r.Len())
	}
	if got := r.Route(42, 5); len(got) != 1 || got[0] != "a" {
		t.Fatalf("single-member ring routed to %v", got)
	}
}
