package client

// ValidatorCacheBytes is the retention bound, for the tests that fill it.
const ValidatorCacheBytes = validatorCacheBytes

// RetainedBytes reports what the client's validator cache holds, in the
// unit the bound is in.
func (c *Client) RetainedBytes() int64 { return c.cache.retained() }

// RetainedBytes reports what the cluster client's one validator cache holds,
// across every node it has talked to.
func (cc *ClusterClient) RetainedBytes() int64 { return cc.cache.retained() }

func (c *validatorCache) retained() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// CopyResponse is the copy a 304 hands out.
var CopyResponse = copyResponse

// DecodeDirect is the reflection-free decode of the hot response types, and
// Decode the decode of every 200 (DecodeDirect, else encoding/json).
var (
	DecodeDirect = decodeDirect
	Decode       = decode
)

// The request bodies the SDK encodes without reflection.
func TaggerBody(taggerID string) []byte      { return taggerBody(taggerID) }
func TagsBody(tags []string) []byte          { return tagsBody(tags) }
func ItemsBody(items []BatchTaskItem) []byte { return itemsBody(items) }
