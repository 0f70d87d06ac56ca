// Package cluster turns a set of itagd processes into one hash-partitioned
// service: a consistent-hash ring over named slots (internal/ring — the
// same routing the client SDK uses), each led by one node. Leaders
// replicate their WAL to followers by shipping the same CRC-framed segment
// bytes the store writes to disk (internal/store's
// ReplTail/ApplyReplicated/InstallSnapshot), and followers serve opt-in
// stale reads from their replica stores. Slots are also the only
// partitioning there is: a node opens one WAL-backed store per slot it
// leads, and the store itself is a single atomic DB.
//
// Data placement follows the entity-group model: a node only mints IDs
// (projects, providers, taggers) that hash back to itself, so every record
// a request can reach through an ID in its URL lives on the node that owns
// that ID. Participants of a project must be registered through the
// project's owner node — the client SDK's ClusterClient routes that way.
package cluster

import "itag/internal/ring"

// The ring types live in internal/ring so the SDK shares them; these
// aliases keep the cluster package's API where its callers expect it.
type (
	Ring   = ring.Ring
	Member = ring.Member
)

// NewRing builds a version-1 ring over the members (see ring.NewRing).
func NewRing(members []Member) (*Ring, error) { return ring.NewRing(members) }
