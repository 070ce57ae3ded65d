package objectstore

import (
	"sync"
	"sync/atomic"

	"tdb/internal/lru"
)

// objCache is the one cache of committed, unpickled objects (paper §4.2.2)
// for 2PL opens, snapshot opens and Txn.Prefetch, on the pool shared with
// the location map. Nobody mutates a cached object: writers work on private
// copies, which versionTable.publish installs. Prefetched objects are kept
// for one use, so a scan does not flush what other readers reuse.
//
// Lock order: versionTable.mu → objCache.mu → lru.Pool.mu. mu is never held
// across chunk-store I/O; the eviction callbacks run under it.
type objCache struct {
	mu   sync.Mutex
	lru  *lru.Owner
	objs map[ObjectID]*cachedObj

	hits   atomic.Uint64 // opens served
	misses atomic.Uint64 // opens that read the chunk store
}

type cachedObj struct {
	obj        Object
	ent        *lru.Entry
	prefetched bool // cached by Txn.Prefetch, not yet opened
}

// cacheEntryOverhead approximates the per-object bookkeeping charged to the
// pool on top of the object's pickled size.
const cacheEntryOverhead = 64

func newObjCache(pool *lru.Pool) *objCache {
	return &objCache{lru: pool.NewOwner(), objs: make(map[ObjectID]*cachedObj)}
}

// get returns the cached instance of oid. A prefetched entry leaves the
// cache with the open it served.
func (c *objCache) get(oid ObjectID) (Object, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.objs[oid]
	if !ok {
		return nil, false
	}
	c.hits.Add(1)
	if e.prefetched {
		c.dropLocked(oid)
	} else {
		e.ent.Touch()
	}
	return e.obj, true
}

// add caches obj, decoded from size pickled bytes, as oid's committed state
// and returns the instance to use: one cached meanwhile by another reader
// wins, so concurrent readers converge on one.
func (c *objCache) add(oid ObjectID, obj Object, size int64, prefetched bool) Object {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.objs[oid]; ok {
		return e.obj
	}
	c.insertLocked(oid, obj, size, prefetched)
	return obj
}

// install replaces oid's cached instance with a committed writer's object.
func (c *objCache) install(oid ObjectID, obj Object, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked(oid)
	c.insertLocked(oid, obj, size, false)
}

func (c *objCache) drop(oid ObjectID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked(oid)
}

func (c *objCache) insertLocked(oid ObjectID, obj Object, size int64, prefetched bool) {
	e := &cachedObj{obj: obj, prefetched: prefetched}
	e.ent = c.lru.Add(size+cacheEntryOverhead, func() bool {
		delete(c.objs, oid)
		return true
	})
	c.objs[oid] = e
}

func (c *objCache) dropLocked(oid ObjectID) {
	if e, ok := c.objs[oid]; ok {
		e.ent.Remove()
		delete(c.objs, oid)
	}
}
