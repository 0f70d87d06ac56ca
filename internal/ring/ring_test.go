package ring

import (
	"fmt"
	"testing"
)

func mkRing(t *testing.T, slots ...string) *Ring {
	t.Helper()
	members := make([]Member, len(slots))
	for i, s := range slots {
		members[i] = Member{Slot: s, Addr: "http://" + s}
	}
	r, err := NewRing(members)
	if err != nil {
		t.Fatalf("NewRing(%v): %v", slots, err)
	}
	return r
}

// TestRingGoldenPlacements pins the exact owner of a fixed key corpus on a
// 3-slot and a 5-slot ring. These placements are part of the replication
// contract: every node and every client must route a key to the same slot,
// and a code change that silently moves keys would strand data on its old
// owner. If this test fails, the change reshuffles the cluster — that needs
// a migration story, not an updated expectation.
func TestRingGoldenPlacements(t *testing.T) {
	r3 := mkRing(t, "alpha", "beta", "gamma")
	r5 := mkRing(t, "alpha", "beta", "gamma", "delta", "epsilon")
	cases := []struct {
		key  string
		own3 string
		own5 string
	}{
		{"proj-000001", "beta", "beta"},
		{"proj-000002", "beta", "beta"},
		{"proj-000017", "beta", "epsilon"},
		{"proj-000001/proj-000001-task-00001", "beta", "beta"},
		{"proj-000002/proj-000002-task-00042", "beta", "beta"},
		{"res-0000", "beta", "beta"},
		{"res-0041", "beta", "beta"},
		{"res-0000/000001", "beta", "beta"},
		{"res-0041/000123", "beta", "beta"},
		{"prov-000001", "gamma", "gamma"},
		{"tag-000007", "gamma", "gamma"},
		{"tag-000032", "alpha", "alpha"},
		{"a", "beta", "delta"},
		{"", "alpha", "alpha"},
		{"key/with/many/segments", "alpha", "alpha"},
		{"Ünïcode-キー", "gamma", "delta"},
	}
	for _, tc := range cases {
		if got := r3.Owner(tc.key); got != tc.own3 {
			t.Errorf("3-slot Owner(%q) = %q, want %q", tc.key, got, tc.own3)
		}
		if got := r5.Owner(tc.key); got != tc.own5 {
			t.Errorf("5-slot Owner(%q) = %q, want %q", tc.key, got, tc.own5)
		}
	}
}

// TestKeyHashGolden pins the raw 32-bit routing hashes (FNV-1a of the first
// path segment) under the placements above: a placement change on any ring
// is a change in one of these.
func TestKeyHashGolden(t *testing.T) {
	hashes := map[string]uint32{
		"proj-000001": 2253394182,
		"proj-000002": 2236616563,
		"proj-000017": 2286802325,
		"res-0000":    2442905308,
		"res-0041":    2593212331,
		"prov-000001": 2527334346,
		"tag-000007":  966378539,
		"tag-000032":  915898587,
		"a":           3826002220,
		"":            2166136261, // FNV-1a offset basis: empty first segment
	}
	for key, want := range hashes {
		if got := KeyHash(key); got != want {
			t.Errorf("KeyHash(%q) = %d, golden %d", key, got, want)
		}
		if got := KeyHash(key + "/suffix/x"); got != want {
			t.Errorf("KeyHash(%q) = %d, want its first segment's %d", key+"/suffix/x", got, want)
		}
	}
}

// TestRingFirstSegmentInvariant pins that a key routes with its first path
// segment — a project's tasks, posts and resources stay on the project's
// owner.
func TestRingFirstSegmentInvariant(t *testing.T) {
	r := mkRing(t, "alpha", "beta", "gamma", "delta", "epsilon")
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("proj-%06d", i)
		owner := r.Owner(id)
		for _, suffix := range []string{"/x", "/" + id + "-task-00042", "/a/b/c"} {
			if got := r.Owner(id + suffix); got != owner {
				t.Fatalf("Owner(%q) = %q, but Owner(%q) = %q", id+suffix, got, id, owner)
			}
		}
	}
}

// TestRingPlacementIgnoresAddresses pins the promotion property: swapping a
// slot's address (what Promote does) must not move any key.
func TestRingPlacementIgnoresAddresses(t *testing.T) {
	before := mkRing(t, "alpha", "beta", "gamma")
	after := before.Clone()
	after.Version++
	for i := range after.Members {
		if after.Members[i].Slot == "beta" {
			after.Members[i].Addr = "http://alpha" // beta's keys now served by node alpha
		}
	}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("proj-%06d", i)
		if before.Owner(key) != after.Owner(key) {
			t.Fatalf("address swap moved key %q: %q -> %q", key, before.Owner(key), after.Owner(key))
		}
	}
	if got := after.Addr("beta"); got != "http://alpha" {
		t.Fatalf("Addr(beta) = %q after swap", got)
	}
}

// TestRingDistribution bounds the skew over minted-style IDs: with 64
// vnodes per slot no slot of a 3-ring may own less than a fifth or more
// than half of 10k sequential project IDs.
func TestRingDistribution(t *testing.T) {
	r := mkRing(t, "alpha", "beta", "gamma")
	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("proj-%06d", i))]++
	}
	for _, slot := range []string{"alpha", "beta", "gamma"} {
		if counts[slot] < n/5 || counts[slot] > n/2 {
			t.Fatalf("slot %s owns %d of %d keys (counts %v)", slot, counts[slot], n, counts)
		}
	}
}

// TestRingFollowers pins the replica sets: successor slots in hash order,
// never the slot itself, deduplicated, clamped to ring size.
func TestRingFollowers(t *testing.T) {
	r5 := mkRing(t, "alpha", "beta", "gamma", "delta", "epsilon")
	want := map[string][2]string{
		"alpha":   {"beta", "delta"},
		"beta":    {"delta", "epsilon"},
		"gamma":   {"alpha", "beta"},
		"delta":   {"epsilon", "gamma"},
		"epsilon": {"gamma", "alpha"},
	}
	for slot, w := range want {
		got := r5.Followers(slot, 2)
		if len(got) != 2 || got[0] != w[0] || got[1] != w[1] {
			t.Errorf("Followers(%s, 2) = %v, want %v", slot, got, w)
		}
	}

	r3 := mkRing(t, "alpha", "beta", "gamma")
	if got := r3.Followers("alpha", 5); len(got) != 2 {
		t.Errorf("Followers clamped = %v, want 2 distinct slots", got)
	}
	for _, f := range r3.Followers("alpha", 2) {
		if f == "alpha" {
			t.Error("a slot must not follow itself")
		}
	}
	if got := r3.Followers("nope", 2); got != nil {
		t.Errorf("Followers(unknown) = %v, want nil", got)
	}
}

// TestRingValidate pins the rejection cases.
func TestRingValidate(t *testing.T) {
	bad := []Ring{
		{Members: nil},
		{Members: []Member{{Slot: "", Addr: "x"}}},
		{Members: []Member{{Slot: "a/b", Addr: "x"}}},
		{Members: []Member{{Slot: "a", Addr: ""}}},
		{Members: []Member{{Slot: "a", Addr: "x"}, {Slot: "a", Addr: "y"}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, bad[i].Members)
		}
	}
}
