package tier

import (
	"fmt"
	"testing"

	"pragformer/internal/scan"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Real routing keys are sha-256 hex digests; generate them the same
		// way production does.
		keys[i] = scan.HashSnippet(fmt.Sprintf("for (i = 0; i < %d; i++) a[i] = i;\n", i))
	}
	return keys
}

// Removing a replica must move ONLY the keys that replica owned: everyone
// else's caches stay hot.
func TestRingRemovalMovesOnlyRemovedKeys(t *testing.T) {
	names := []string{"http://a", "http://b", "http://c", "http://d"}
	before := newRing(names)
	after := newRing([]string{"http://a", "http://b", "http://d"})
	keys := ringKeys(2000)
	moved := 0
	for _, k := range keys {
		was, is := before.walk(nil, k)[0], after.walk(nil, k)[0]
		if was == "http://c" {
			moved++
			continue // must move somewhere — c is gone
		}
		if was != is {
			t.Fatalf("key not owned by removed replica moved: %s -> %s", was, is)
		}
	}
	if moved == 0 {
		t.Fatal("no key was owned by the removed replica; test vacuous")
	}
}

// Adding a replica moves keys only TO the new replica, roughly 1/N of
// them.
func TestRingAdditionBounded(t *testing.T) {
	before := newRing([]string{"http://a", "http://b", "http://c"})
	after := newRing([]string{"http://a", "http://b", "http://c", "http://d"})
	keys := ringKeys(4000)
	moved := 0
	for _, k := range keys {
		was, is := before.walk(nil, k)[0], after.walk(nil, k)[0]
		if was == is {
			continue
		}
		if is != "http://d" {
			t.Fatalf("key moved between surviving replicas: %s -> %s", was, is)
		}
		moved++
	}
	// Expect ~1/4 of keys on the new replica; allow generous slack for
	// vnode placement variance.
	if lo, hi := len(keys)/8, len(keys)/2; moved < lo || moved > hi {
		t.Fatalf("moved %d of %d keys to the new replica, want within [%d, %d]", moved, len(keys), lo, hi)
	}
}

// The walk starts at the owner and visits every replica exactly once —
// the spill order the bounded-load fallback relies on.
func TestRingWalk(t *testing.T) {
	names := []string{"http://a", "http://b", "http://c"}
	r := newRing(names)
	for _, k := range ringKeys(100) {
		w := r.walk(nil, k)
		if len(w) != len(names) {
			t.Fatalf("walk returned %d names, want %d", len(w), len(names))
		}
		if owner := firstClockwise(r, k); w[0] != owner {
			t.Fatalf("walk starts at %s, owner is %s", w[0], owner)
		}
		seen := map[string]bool{}
		for _, n := range w {
			if seen[n] {
				t.Fatalf("walk visits %s twice", n)
			}
			seen[n] = true
		}
	}
}

// firstClockwise is the name of the first point at or after the key's
// position, wrapping to the lowest, found by a linear scan.
func firstClockwise(r *ring, key string) string {
	h := keyPoint(key)
	for _, p := range r.points {
		if p.h >= h {
			return p.name
		}
	}
	return r.points[0].name
}

// Ring placement is deterministic across instances (routers must agree).
func TestRingDeterministic(t *testing.T) {
	names := []string{"http://a", "http://b", "http://c"}
	r1, r2 := newRing(names), newRing(names)
	for _, k := range ringKeys(500) {
		if r1.walk(nil, k)[0] != r2.walk(nil, k)[0] {
			t.Fatalf("rings disagree on %s", k)
		}
	}
}

// Keys spread over all replicas (no vnode-count pathology leaving a
// replica empty).
func TestRingBalance(t *testing.T) {
	names := []string{"http://a", "http://b", "http://c", "http://d"}
	r := newRing(names)
	counts := map[string]int{}
	keys := ringKeys(4000)
	for _, k := range keys {
		counts[r.walk(nil, k)[0]]++
	}
	for _, n := range names {
		if counts[n] == 0 {
			t.Fatalf("replica %s owns no keys", n)
		}
		// Each replica should hold a sane share: between 1/4x and 2.5x fair.
		fair := len(keys) / len(names)
		if counts[n] < fair/4 || counts[n] > fair*5/2 {
			t.Fatalf("replica %s owns %d keys, fair share %d", n, counts[n], fair)
		}
	}
}

func TestKeyPointHexFastPath(t *testing.T) {
	// A 64-hex-char key must position by its leading 16 digits directly.
	key := "00000000000000ffabcdef0123456789abcdef0123456789abcdef0123456789"
	if got := keyPoint(key); got != 0xff {
		t.Fatalf("keyPoint = %#x, want 0xff", got)
	}
	// Non-hex keys fall back to hashing, and must not collide with the
	// zero position systematically.
	if keyPoint("not hex at all....") == 0 {
		t.Fatal("fallback hash returned 0 for a typical string")
	}
}
