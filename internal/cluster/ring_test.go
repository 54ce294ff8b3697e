package cluster

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asv/internal/testkit"
)

// goldenShards/goldenKeys define the pinned routing corpus. The golden file
// locks the ring's placement function: FNV-64a with the fmix64 finalizer,
// the "name#replica" vnode key scheme, and the clockwise-successor rule. If any of those change,
// every deployed cluster's sessions move — so the change must show up as a
// deliberate golden-file update in review, not slip through silently.
var goldenShards = []string{"shard-a", "shard-b", "shard-c", "shard-d"}

func goldenKeys() []string {
	keys := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		keys = append(keys, fmt.Sprintf("s%013x", i*0x9e3779b9))
	}
	return keys
}

func TestRingGolden(t *testing.T) {
	ring := NewRing(goldenShards, DefaultReplicas)
	path := filepath.Join("testdata", "ring_golden.txt")

	if testkit.Update() {
		var sb strings.Builder
		sb.WriteString("# key -> owner, ring over shard-a..shard-d, 64 replicas, FNV-64a+fmix64\n")
		for _, k := range goldenKeys() {
			fmt.Fprintf(&sb, "%s %s\n", k, ring.Owner(k))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to generate): %v", err)
	}
	defer f.Close()

	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		lines++
		if got := ring.Owner(parts[0]); got != parts[1] {
			t.Errorf("Owner(%q) = %q, golden says %q — the placement function changed", parts[0], got, parts[1])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != len(goldenKeys()) {
		t.Fatalf("golden file has %d entries, corpus has %d", lines, len(goldenKeys()))
	}
}

func TestRingDeterministicAndOrderIndependent(t *testing.T) {
	a := NewRing([]string{"x", "y", "z"}, 32)
	b := NewRing([]string{"z", "x", "y", "x"}, 32) // shuffled + duplicate
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%d", i)
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("shard order changed placement for %q: %q vs %q", k, a.Owner(k), b.Owner(k))
		}
	}
	if got := fmt.Sprint(b.Shards()); got != "[x y z]" {
		t.Fatalf("Shards() = %s", got)
	}
}

func TestRingEmptyAndAllDown(t *testing.T) {
	if got := NewRing(nil, 8).Owner("k"); got != "" {
		t.Fatalf("empty ring owned %q", got)
	}
	r := NewRing([]string{"only"}, 8)
	if got := r.OwnerAvoiding("k", map[string]bool{"only": true}); got != "" {
		t.Fatalf("fully-down ring owned %q", got)
	}
}

// TestRingMinimalRemapping is the consistent-hashing contract: removing one
// of N shards moves ONLY the keys that shard owned (≈1/N of them), and
// adding a shard moves keys only onto the newcomer.
func TestRingMinimalRemapping(t *testing.T) {
	const nKeys = 4000
	shards := []string{"n0", "n1", "n2", "n3", "n4"}
	full := NewRing(shards, DefaultReplicas)

	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("sess-%06d", i)
	}

	t.Run("remove", func(t *testing.T) {
		const removed = "n2"
		reduced := NewRing([]string{"n0", "n1", "n3", "n4"}, DefaultReplicas)
		moved, ownedByRemoved := 0, 0
		for _, k := range keys {
			before, after := full.Owner(k), reduced.Owner(k)
			if before == removed {
				ownedByRemoved++
				if after == removed {
					t.Fatalf("%q still routed to the removed shard", k)
				}
				continue
			}
			if before != after {
				moved++
				t.Errorf("%q moved %q→%q though its owner did not leave", k, before, after)
			}
		}
		if moved > 0 {
			t.Fatalf("%d keys moved whose owner survived; consistent hashing promises 0", moved)
		}
		// The departed shard's share should be roughly 1/N.
		frac := float64(ownedByRemoved) / nKeys
		if frac < 0.5/float64(len(shards)) || frac > 2.0/float64(len(shards)) {
			t.Fatalf("removed shard owned %.1f%% of keys; expected ≈%.1f%%", 100*frac, 100.0/float64(len(shards)))
		}

		// OwnerAvoiding must agree with a rebuilt ring: marking a shard
		// down routes identically to removing it.
		down := map[string]bool{removed: true}
		for _, k := range keys {
			if got, want := full.OwnerAvoiding(k, down), reduced.Owner(k); got != want {
				t.Fatalf("OwnerAvoiding(%q) = %q, rebuilt ring says %q", k, got, want)
			}
		}
	})

	t.Run("add", func(t *testing.T) {
		grown := NewRing(append(append([]string{}, shards...), "n5"), DefaultReplicas)
		moved := 0
		for _, k := range keys {
			before, after := full.Owner(k), grown.Owner(k)
			if before == after {
				continue
			}
			if after != "n5" {
				t.Fatalf("%q moved %q→%q; growth may only move keys onto the new shard", k, before, after)
			}
			moved++
		}
		frac := float64(moved) / nKeys
		want := 1.0 / float64(len(shards)+1)
		if frac > 2*want {
			t.Fatalf("adding one shard moved %.1f%% of keys; expected ≈%.1f%%", 100*frac, 100*want)
		}
		if moved == 0 {
			t.Fatal("adding a shard moved no keys at all")
		}
	})
}

// TestRingBalance bounds the load skew: with DefaultReplicas vnodes no
// shard should own more than ~2× its fair share of a large key set. This
// is the regression gate for the hash's avalanche finalizer — raw FNV over
// the near-identical vnode keys clusters a shard's points into arcs and
// fails this test with a 6× skew.
func TestRingBalance(t *testing.T) {
	shards := []string{"shard-0", "shard-1", "shard-2", "shard-3", "shard-4"}
	ring := NewRing(shards, DefaultReplicas)
	counts := make(map[string]int)
	const nKeys = 10000
	for i := 0; i < nKeys; i++ {
		counts[ring.Owner(fmt.Sprintf("sess-%06d", i))]++
	}
	fair := float64(nKeys) / float64(len(shards))
	for s, n := range counts {
		if float64(n) > 2*fair || float64(n) < fair/3 {
			t.Errorf("shard %s owns %d keys (fair share %.0f)", s, n, fair)
		}
	}
	if len(counts) != len(shards) {
		t.Fatalf("only %d of %d shards own any keys", len(counts), len(shards))
	}
}
