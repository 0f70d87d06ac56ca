package client

// ValidatorCacheBytes is the retention bound, for the tests that fill it.
const ValidatorCacheBytes = validatorCacheBytes

// RetainedBytes reports what the client's validator cache holds, in the
// unit the bound is in.
func (c *Client) RetainedBytes() int64 {
	c.cache.mu.Lock()
	defer c.cache.mu.Unlock()
	return c.cache.bytes
}

// CopyResponse is the copy a 304 hands out.
var CopyResponse = copyResponse
