// cache.go — committed-object cache fixture: the cache mutex is its own
// lock class (objectstore.objCache.mu), ordered after versionTable.mu,
// because a snapshot checks for a chain and reads the cache under one
// table read lock. An eviction callback runs under the cache mutex and
// must take no lock; one that re-checks the table inverts the order.
package objectstore

import "sync"

type objCache struct {
	mu   sync.Mutex
	objs map[uint64][]byte
}

// resolveCached consults the cache only for an oid with no chain, under
// the table's read lock: the sanctioned order versionTable.mu →
// objCache.mu.
func (vt *versionTable) resolveCached(c *objCache, oid uint64) []byte {
	vt.mu.RLock()
	defer vt.mu.RUnlock()
	if data := vt.chains[oid]; data != nil {
		return data
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.objs[oid]
}

// chained reads the table for the inversion below.
func (vt *versionTable) chained(oid uint64) bool {
	vt.mu.RLock()
	defer vt.mu.RUnlock()
	return vt.chains[oid] != nil
}

// evictUnlessChained is an eviction callback that takes a lock: under the
// cache mutex it re-checks the table through chained, inverting the order:
// positive (both cycle edges are reported, this one with its call chain).
func (c *objCache) evictUnlessChained(vt *versionTable, oid uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if vt.chained(oid) {
		return false
	}
	delete(c.objs, oid)
	return true
}
