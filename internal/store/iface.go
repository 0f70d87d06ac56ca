package store

// Store is the storage contract the typed Catalog — and therefore the whole
// manager layer (core.Service, the HTTP server, the CLIs) — is written
// against. DB, the WAL-backed embedded table store, is the only backend;
// the interface stays so tests and the benchmark harness can decorate or
// fake the store. Implementations must be safe for concurrent use.
type Store interface {
	// Put stores value (JSON-marshaled) under (table, key).
	Put(table, key string, value any) error
	// Get unmarshals the value at (table, key) into out; ErrNotFound if
	// absent.
	Get(table, key string, out any) error
	// Has reports whether (table, key) exists.
	Has(table, key string) bool
	// Delete removes (table, key); deleting a missing key is not an error.
	Delete(table, key string) error
	// Apply executes mutations as one atomic group, across tables and keys:
	// after a crash either every mutation of the group is recovered or none
	// is, a follower receives all of them or none, and a reader sees all of
	// them or none. They take effect in order (a key written twice keeps
	// the later value) and cost one commit — one WAL record, one fsync
	// wait — however many they are. It is the Catalog's only write call.
	// Each put's Value is already encoded JSON. Apply takes ownership of
	// the value bytes: the store may keep them as they are, so the caller
	// must not modify or reuse them afterwards. It keeps no reference to
	// the slice once it returns, on any outcome: the caller may clear and
	// reuse the list (the Catalog's write sets recycle theirs).
	Apply(muts []Mutation) error
	// Scan visits every (key, raw JSON value) of a table in ascending key
	// order; fn returning false stops the scan. The raw slices handed to
	// fn are shared with the store's immutable tree versions and must not
	// be modified.
	Scan(table string, fn func(key string, raw []byte) bool)
	// ScanPrefix visits keys with the given prefix in ascending order.
	ScanPrefix(table, prefix string, fn func(key string, raw []byte) bool)
	// ScanRange visits keys in [start, end) in ascending order (end "" =
	// unbounded), calling fn for at most limit keys (limit <= 0 =
	// unbounded) or until fn returns false; it reports how many keys fn
	// visited.
	ScanRange(table, start, end string, limit int, fn func(key string, raw []byte) bool) int
	// Count returns the number of keys in a table.
	Count(table string) int
	// CountPrefix returns the number of keys with the given prefix.
	CountPrefix(table, prefix string) int
	// Tables returns the table names in sorted order.
	Tables() []string
	// Sync forces buffered state to stable storage (no-op in memory).
	Sync() error
	// Close releases the store; further operations return ErrClosed.
	Close() error
}

var _ Store = (*DB)(nil)
