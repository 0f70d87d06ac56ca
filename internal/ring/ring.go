// Package ring answers the two routing questions every layer above the
// store asks: which node owns this key, and is that node reachable. It holds
// the one implementation of each mechanism — the consistent-hash ring over
// named slots (this file) and the per-peer circuit breaker with its retry
// backoff curve (breaker.go) — shared by the server side (internal/cluster)
// and the client SDK (client), so the two can never route or back off
// differently. It imports only the standard library; a dependency test
// keeps it that way, since the SDK must not pull server internals in.
//
// Data placement follows the entity-group model: a key routes by the
// FNV-1a hash of its first path segment, so "proj-000001/…-task-00001"
// lives with its project.
package ring

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// DefaultVNodes is the virtual-node count per slot. 64 vnodes keep the
// largest/smallest slot share within ~2x of each other for small clusters,
// which is enough for a handful of slots; the value is part of the ring's
// wire form so all nodes and clients agree.
const DefaultVNodes = 64

// Member is one slot of the ring and the address of the node currently
// leading it. The slot name — not the address — determines placement, so
// promoting a follower (swapping Addr) moves zero keys.
type Member struct {
	Slot string `json:"slot"`
	Addr string `json:"addr"`
}

// Ring is the cluster's routing table. It is immutable once built (Install
// swaps whole rings); the vnode circle is derived lazily and cached.
type Ring struct {
	// Version orders rings: a node or client replaces its ring only with a
	// strictly newer one, so a stale push can never roll back a promotion.
	Version uint64   `json:"version"`
	VNodes  int      `json:"vnodes"`
	Members []Member `json:"members"`

	once   sync.Once
	circle []vnode // sorted by hash
	addrs  map[string]string
}

type vnode struct {
	hash uint32
	slot string
}

// NewRing builds a version-1 ring over the members, normalizing VNodes to
// the default. Member order does not matter; placement depends only on the
// slot names.
func NewRing(members []Member) (*Ring, error) {
	r := &Ring{Version: 1, VNodes: DefaultVNodes, Members: append([]Member(nil), members...)}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// Validate checks the ring is routable: at least one member, no duplicate
// or empty slots, no empty addresses.
func (r *Ring) Validate() error {
	if len(r.Members) == 0 {
		return fmt.Errorf("ring has no members")
	}
	if r.VNodes <= 0 {
		r.VNodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(r.Members))
	for _, m := range r.Members {
		if m.Slot == "" || strings.ContainsAny(m.Slot, "/# ") {
			return fmt.Errorf("invalid slot name %q", m.Slot)
		}
		if m.Addr == "" {
			return fmt.Errorf("slot %q has no address", m.Slot)
		}
		if seen[m.Slot] {
			return fmt.Errorf("duplicate slot %q", m.Slot)
		}
		seen[m.Slot] = true
	}
	return nil
}

// fnv32 is FNV-1a; the golden placement tests pin its placements.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// KeyHash reports the routing hash of a key: FNV-1a of its first path
// segment, so "proj-000001/…-task-00001" routes with its project.
func KeyHash(key string) uint32 {
	if i := strings.IndexByte(key, '/'); i >= 0 {
		key = key[:i]
	}
	return fnv32(key)
}

// mix32 is the murmur3 finalizer. FNV-1a alone has weak avalanche on short,
// similar strings (sequential IDs land in narrow bands and one slot ends up
// owning most of the circle), so both key hashes and vnode positions pass
// through this mix before being placed. The golden tests pin both the raw
// hashes and the final placements.
func mix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

func (r *Ring) build() {
	r.circle = make([]vnode, 0, len(r.Members)*r.VNodes)
	r.addrs = make(map[string]string, len(r.Members))
	for _, m := range r.Members {
		r.addrs[m.Slot] = m.Addr
		for i := 0; i < r.VNodes; i++ {
			// Vnode identity is slot#index, never the address: replacing a
			// dead node's address must not reshuffle a single key.
			r.circle = append(r.circle, vnode{hash: mix32(fnv32(m.Slot + "#" + strconv.Itoa(i))), slot: m.Slot})
		}
	}
	sort.Slice(r.circle, func(i, j int) bool {
		if r.circle[i].hash != r.circle[j].hash {
			return r.circle[i].hash < r.circle[j].hash
		}
		return r.circle[i].slot < r.circle[j].slot // deterministic on hash ties
	})
}

// Owner reports the slot that leads key: the first vnode clockwise from the
// key's hash.
func (r *Ring) Owner(key string) string {
	r.once.Do(r.build)
	h := mix32(KeyHash(key))
	i := sort.Search(len(r.circle), func(i int) bool { return r.circle[i].hash >= h })
	if i == len(r.circle) {
		i = 0
	}
	return r.circle[i].slot
}

// Addr reports the address of the node currently leading slot ("" when the
// slot is not in the ring).
func (r *Ring) Addr(slot string) string {
	r.once.Do(r.build)
	return r.addrs[slot]
}

// OwnerAddr is Addr(Owner(key)).
func (r *Ring) OwnerAddr(key string) string { return r.Addr(r.Owner(key)) }

// Slots returns the slot names ordered by their hash — the successor order
// Followers walks. The order is a pure function of the slot names, so every
// node computes the same replica sets without coordination.
func (r *Ring) Slots() []string {
	slots := make([]string, len(r.Members))
	for i, m := range r.Members {
		slots[i] = m.Slot
	}
	sort.Slice(slots, func(i, j int) bool {
		hi, hj := mix32(fnv32(slots[i])), mix32(fnv32(slots[j]))
		if hi != hj {
			return hi < hj
		}
		return slots[i] < slots[j]
	})
	return slots
}

// Followers reports the slots that replicate slot's WAL: walking the
// successors in slot-hash order, the first n slots hosted on addresses
// distinct from the leader's and from each other. Skipping same-address
// successors matters when one node leads several slots — a replica on the
// node that already holds the primary WAL protects nothing. Fewer than n
// are returned when the ring spans fewer than n+1 distinct addresses; an
// unknown slot has no followers.
func (r *Ring) Followers(slot string, n int) []string {
	r.once.Do(r.build)
	slots := r.Slots()
	at := -1
	for i, s := range slots {
		if s == slot {
			at = i
			break
		}
	}
	if at < 0 || n <= 0 {
		return nil
	}
	used := map[string]bool{r.addrs[slot]: true}
	out := make([]string, 0, n)
	for i := 1; i < len(slots) && len(out) < n; i++ {
		s := slots[(at+i)%len(slots)]
		if a := r.addrs[s]; !used[a] {
			used[a] = true
			out = append(out, s)
		}
	}
	return out
}

// ContentKey returns a canonical serialization of the ring's routing
// content — vnode count plus slot→addr assignments sorted by slot,
// independent of member order and version. Rings with equal keys route
// identically; the node's installRing uses the key to detect and deterministically
// resolve same-version rings with diverging content.
func (r *Ring) ContentKey() string {
	ms := append([]Member(nil), r.Members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Slot < ms[j].Slot })
	var b strings.Builder
	b.WriteString(strconv.Itoa(r.VNodes))
	for _, m := range ms {
		b.WriteByte('|')
		b.WriteString(m.Slot)
		b.WriteByte('=')
		b.WriteString(m.Addr)
	}
	return b.String()
}

// Clone returns a deep copy safe to mutate (Promote bumps the version and
// swaps an address on a clone, then installs it).
func (r *Ring) Clone() *Ring {
	return &Ring{Version: r.Version, VNodes: r.VNodes, Members: append([]Member(nil), r.Members...)}
}
