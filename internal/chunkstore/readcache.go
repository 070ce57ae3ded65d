package chunkstore

import (
	"sync"
	"sync/atomic"

	"tdb/internal/lru"
)

// readCache caches validated plaintext chunk contents so repeated reads of
// hot chunks skip the store mutex, the log I/O, the hash validation, and
// the decryption entirely. The cache is split into independent shards keyed
// by a mix of the chunk id, so concurrent hits on distinct chunks do not
// serialize on one RWMutex; within a shard, entries are keyed by the
// chunk's validated ciphertext hash (the same hash the Merkle tree
// authenticates), with a chunk-id index on top, so ids whose current
// records share a hash share one entry. (Lookups only know the chunk id,
// which is why sharding follows the id rather than the content hash; the
// cost is that identical contents stored under ids of different shards are
// cached twice.)
//
// Concurrency model: each shard has its own RWMutex, independent of
// Store.mu, so cache hits proceed concurrently with an in-flight commit and
// with hits on other shards. Coherence is maintained by the commit path,
// which — while still holding Store.mu, before Commit returns — updates the
// mapping for every chunk the batch wrote and drops the mapping for every
// chunk it deallocated. A reader that hits the cache while a commit is in
// flight observes the pre-commit value, which is correct: that read
// linearizes before the commit's completion. The lock order is always
// Store.mu → rcShard.mu (taken for one shard at a time; no operation holds
// two shard locks); the cache never calls back into the store.
//
// Each shard owns a dedicated lru.Pool with an equal slice of the byte
// budget, rather than sharing the store's pool of map nodes and objects:
// entries in a shared pool are evicted only under their owner's lock, and a
// shard is its pool's only owner, so its evictions run under sh.mu alone.
// Keeping the plaintext cache off the shared pool also keeps its budget
// (Config.ReadCacheBytes) separate from the object and map node budget.
type readCache struct {
	shards []*rcShard
	mask   uint64

	hits   atomic.Int64
	misses atomic.Int64
	// prefetchHits counts first consumptions of entries the batch prefetch
	// path published; prefetchWasted counts prefetched entries that were
	// evicted or invalidated before anything read them. Together they tell
	// whether a prefetch window is doing useful work or churning the cache.
	prefetchHits   atomic.Int64
	prefetchWasted atomic.Int64
}

// rcShard is one independently locked slice of the cache.
type rcShard struct {
	mu     sync.RWMutex
	rc     *readCache
	pool   *lru.Pool
	lru    *lru.Owner // pool's only owner; called under mu
	byHash map[string]*rcEntry
	byCID  map[ChunkID]*rcEntry
}

// rcEntry is one cached plaintext, shared by every chunk id of the shard
// whose current content hash matches. The data slice is immutable after
// construction; lookups copy out under the read lock.
type rcEntry struct {
	hash string
	data []byte
	cids map[ChunkID]struct{}
	ent  *lru.Entry
	// prefetched is set when the entry was published by the batch prefetch
	// path and nothing has read it yet; the first get clears it (a prefetch
	// hit), and eviction or invalidation of a still-set entry counts as
	// wasted prefetch work. Atomic so a hit under the shard read lock can
	// claim it without upgrading.
	prefetched atomic.Bool
}

// rcEntryOverhead approximates the per-entry bookkeeping cost charged to
// the pool on top of the plaintext bytes.
const rcEntryOverhead = 128

// rcMaxShards caps the shard count; rcShardBudget is the minimum byte
// budget that justifies another shard, so tiny caches (tests, constrained
// configurations) stay single-sharded instead of splintering into pools too
// small to hold one entry.
const (
	rcMaxShards   = 16
	rcShardBudget = 128 << 10
)

// rcShardCount returns the power-of-two shard count for a byte budget.
func rcShardCount(budget int64) int {
	n := 1
	for int64(n*2)*rcShardBudget <= budget && n*2 <= rcMaxShards {
		n *= 2
	}
	return n
}

// newReadCache returns a cache bounded by budget bytes, or nil (all methods
// are nil-safe no-ops) when budget is negative.
func newReadCache(budget int64) *readCache {
	if budget < 0 {
		return nil
	}
	n := rcShardCount(budget)
	rc := &readCache{shards: make([]*rcShard, n), mask: uint64(n - 1)}
	for i := range rc.shards {
		pool := lru.NewPool(budget / int64(n))
		rc.shards[i] = &rcShard{
			rc:     rc,
			pool:   pool,
			lru:    pool.NewOwner(),
			byHash: make(map[string]*rcEntry),
			byCID:  make(map[ChunkID]*rcEntry),
		}
	}
	return rc
}

// shard returns the shard owning cid.
func (rc *readCache) shard(cid ChunkID) *rcShard {
	return rc.shards[mix64(uint64(cid))&rc.mask]
}

// get returns a copy of the cached plaintext for cid. Hits touch the LRU
// entry only when the shard's write lock is immediately available, trading
// strict recency order for reader concurrency.
func (rc *readCache) get(cid ChunkID) ([]byte, bool) {
	if rc == nil {
		return nil, false
	}
	sh := rc.shard(cid)
	sh.mu.RLock()
	e, ok := sh.byCID[cid]
	var out []byte
	if ok {
		out = append([]byte(nil), e.data...)
	}
	sh.mu.RUnlock()
	if !ok {
		rc.misses.Add(1)
		return nil, false
	}
	rc.hits.Add(1)
	if e.prefetched.CompareAndSwap(true, false) {
		rc.prefetchHits.Add(1)
	}
	if sh.mu.TryLock() {
		if e.ent != nil {
			e.ent.Touch() // no-op if the entry was evicted meanwhile
		}
		sh.mu.Unlock()
	}
	return out, true
}

// put records plain as the current validated content of cid. The slice is
// copied; callers keep ownership of their buffer. prefetched marks entries
// the batch prefetch path published, for the hit/wasted telemetry (see
// rcEntry.prefetched); publishing content that is already resident leaves
// any existing flag alone — the upcoming consumption will claim it.
func (rc *readCache) put(cid ChunkID, hash []byte, plain []byte, prefetched bool) {
	if rc == nil {
		return
	}
	h := string(hash)
	sh := rc.shard(cid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if old := sh.byCID[cid]; old != nil {
		if old.hash == h {
			old.ent.Touch()
			return
		}
		sh.detachLocked(cid, old)
	}
	e := sh.byHash[h]
	if e == nil {
		e = &rcEntry{hash: h, data: append([]byte(nil), plain...), cids: make(map[ChunkID]struct{}, 1)}
		e.prefetched.Store(prefetched)
		sh.byHash[h] = e
		e.ent = sh.lru.Add(int64(len(e.data))+rcEntryOverhead, func() bool {
			if e.prefetched.Swap(false) {
				rc.prefetchWasted.Add(1)
			}
			delete(sh.byHash, e.hash)
			for c := range e.cids {
				delete(sh.byCID, c)
			}
			return true
		})
	} else {
		e.ent.Touch()
	}
	e.cids[cid] = struct{}{}
	sh.byCID[cid] = e
}

// invalidate drops the mapping for cid (deallocated or rewritten).
func (rc *readCache) invalidate(cid ChunkID) {
	if rc == nil {
		return
	}
	sh := rc.shard(cid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.byCID[cid]; e != nil {
		sh.detachLocked(cid, e)
	}
}

// detachLocked unlinks cid from its entry, freeing the entry once no id
// references it. Caller holds sh.mu.
func (sh *rcShard) detachLocked(cid ChunkID, e *rcEntry) {
	delete(e.cids, cid)
	delete(sh.byCID, cid)
	if len(e.cids) == 0 {
		if e.prefetched.Swap(false) {
			sh.rc.prefetchWasted.Add(1)
		}
		e.ent.Remove()
		delete(sh.byHash, e.hash)
	}
}

// purge empties the cache (store close).
func (rc *readCache) purge() {
	if rc == nil {
		return
	}
	for _, sh := range rc.shards {
		sh.mu.Lock()
		for h, e := range sh.byHash {
			e.ent.Remove()
			delete(sh.byHash, h)
		}
		sh.byCID = make(map[ChunkID]*rcEntry)
		sh.mu.Unlock()
	}
}

// stats reports resident bytes, hit/miss counters, and the shard count.
func (rc *readCache) stats() (bytes, hits, misses int64, shards int) {
	if rc == nil {
		return 0, 0, 0, 0
	}
	for _, sh := range rc.shards {
		sh.mu.RLock()
		bytes += sh.pool.Used()
		sh.mu.RUnlock()
	}
	return bytes, rc.hits.Load(), rc.misses.Load(), len(rc.shards)
}

// prefetchStats reports the prefetch hit/wasted counters.
func (rc *readCache) prefetchStats() (hits, wasted int64) {
	if rc == nil {
		return 0, 0
	}
	return rc.prefetchHits.Load(), rc.prefetchWasted.Load()
}
