package controller

import "netcache/internal/netproto"

// EvictKey force-evicts a key for the external tests; it reports whether
// the key was cached. The controller itself evicts only through its cycle.
func (c *Controller) EvictKey(key netproto.Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	c.evictLocked(e)
	return true
}
