package objectstore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tdb/internal/chunkstore"
	"tdb/internal/lru"
)

// Config configures an object store.
type Config struct {
	// Chunks is the underlying chunk store. The object store assumes
	// ownership: no other component may allocate or write chunks in it.
	Chunks *chunkstore.Store
	// Registry resolves class ids during unpickling. Required.
	Registry *Registry
	// CachePool is the LRU pool of the store's one cache of committed
	// objects, which serves 2PL reads, snapshot reads and prefetch alike.
	// Pass the chunk store's pool so the objects and the location map nodes
	// share one budget and one LRU order (paper §4.2.2). If nil a private
	// 4 MiB pool is created.
	CachePool *lru.Pool
	// LockTimeout bounds lock waits; expiry breaks deadlocks (paper §4.1,
	// "the timeout interval can be tuned by the application"). Default
	// 250 ms.
	LockTimeout time.Duration
	// DisableLocking turns transactional locking off entirely "to avoid the
	// locking overhead in the absence of concurrent transactions" (§4.2.3).
	DisableLocking bool
	// ReadonlyChecks enables a debug validation that objects opened
	// read-only were not mutated (Go cannot enforce const statically the
	// way the paper's C++ Refs do).
	ReadonlyChecks bool
	// ScanPrefetch is the default sliding-window depth iterators prefetch
	// ahead of their cursor through Txn.Prefetch. 0 selects
	// defaultScanPrefetch; a negative value disables scan prefetching.
	ScanPrefetch int
}

// defaultScanPrefetch is the iterator prefetch window when Config leaves it
// zero. Refills claim half the window at a time, so the window bounds how
// many records one ReadBatch sees: records an update relocated near each
// other in the log tail can only share a coalesced segment read if they land
// in the same refill (DESIGN.md §7.8).
const defaultScanPrefetch = 256

// Store is the object store. Its single state mutex serializes operations;
// the mutex is released while a transaction waits on an object lock
// (paper §4.2.3).
type Store struct {
	mu  sync.Mutex
	cfg Config

	chunks *chunkstore.Store
	locks  *lockTable
	cache  *objCache
	// versions is the multi-version table backing read-only snapshot
	// transactions (BeginReadOnly); read-write transactions stage and
	// publish committed versions through it.
	versions *versionTable

	// rootChunk holds the persistent root object pointer (paper §4.1: "the
	// application can register a 'root' object id with the object store").
	rootChunk chunkstore.ChunkID
	rootOID   ObjectID

	// txnSeq numbers transactions (diagnostics only). Atomic so
	// BeginReadOnly never queues behind a writer's store-mutex critical
	// section just to draw an id.
	txnSeq atomic.Uint64
	closed bool
}

// Open initializes the object store over a chunk store. A fresh chunk store
// is formatted with a root-pointer chunk; an existing one must have been
// created by an object store with the same layout.
func Open(cfg Config) (*Store, error) {
	if cfg.Chunks == nil {
		return nil, errors.New("objectstore: config requires a chunk store")
	}
	if cfg.Registry == nil {
		return nil, errors.New("objectstore: config requires a class registry")
	}
	if cfg.CachePool == nil {
		cfg.CachePool = lru.NewPool(4 << 20)
	}
	if cfg.LockTimeout == 0 {
		cfg.LockTimeout = 250 * time.Millisecond
	}
	if cfg.ScanPrefetch == 0 {
		cfg.ScanPrefetch = defaultScanPrefetch
	}
	cache := newObjCache(cfg.CachePool)
	s := &Store{
		cfg:      cfg,
		chunks:   cfg.Chunks,
		locks:    newLockTable(),
		cache:    cache,
		versions: newVersionTable(cache),
	}
	if err := s.initRoot(); err != nil {
		return nil, err
	}
	s.versions.rootOID = s.rootOID
	return s, nil
}

// rootChunkID is the well-known chunk holding the root object pointer. It
// is the first chunk the object store allocates in a fresh database.
const rootChunkID = chunkstore.ChunkID(1)

func (s *Store) initRoot() error {
	data, err := s.chunks.Read(rootChunkID)
	if err == nil {
		u := NewUnpickler(data)
		s.rootOID = u.ObjectID()
		if uerr := u.Err(); uerr != nil {
			return fmt.Errorf("objectstore: corrupt root pointer: %w", uerr)
		}
		s.rootChunk = rootChunkID
		return nil
	}
	if errors.Is(err, chunkstore.ErrNotAllocated) {
		// Fresh database: claim chunk 1 for the root pointer.
		cid, aerr := s.chunks.AllocateChunkID()
		if aerr != nil {
			return aerr
		}
		if cid != rootChunkID {
			return fmt.Errorf("objectstore: chunk store is not fresh (first id %d); refusing to share it", cid)
		}
		p := NewPickler()
		p.ObjectID(NilObject)
		b := s.chunks.NewBatch()
		b.Write(cid, p.Bytes())
		if cerr := s.chunks.Commit(b, true); cerr != nil {
			return cerr
		}
		s.rootChunk = cid
		s.rootOID = NilObject
		return nil
	}
	return err
}

// Close flushes and closes the underlying chunk store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

// closeLocked tears the store down with the mutex held by design: closing
// must exclude every other store operation. Caller holds s.mu.
func (s *Store) closeLocked() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.chunks.Close()
}

// Chunks exposes the underlying chunk store (for backups and stats).
func (s *Store) Chunks() *chunkstore.Store { return s.chunks }

// ScanPrefetch returns the resolved default scan-prefetch window: 0 when
// prefetching is disabled, otherwise the window depth iterators should keep
// in flight ahead of their cursor.
func (s *Store) ScanPrefetch() int {
	if s.cfg.ScanPrefetch < 0 {
		return 0
	}
	return s.cfg.ScanPrefetch
}

// Root returns the registered root object id (NilObject if none).
func (s *Store) Root() ObjectID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rootOID
}

// Begin starts a read-write transaction.
func (s *Store) Begin() *Txn {
	return &Txn{
		s:      s,
		id:     s.txnSeq.Add(1),
		active: true,
		locks:  make(map[ObjectID]lockMode),
		opened: make(map[ObjectID]*txnObject),
	}
}

// BeginReadOnly starts a snapshot transaction: it observes the committed
// state as of the latest published commit and keeps observing exactly that
// state no matter what commits afterwards. Snapshot transactions take no
// object locks and no lock-table entries, never block on writers, and can
// never fail with ErrLockTimeout; mutating operations return
// ErrReadOnlyTxn. End one with Commit or Abort (equivalent) so the pinned
// versions become reclaimable.
func (s *Store) BeginReadOnly() *Txn {
	pin, root := s.versions.pin()
	return &Txn{
		s:        s,
		id:       s.txnSeq.Add(1),
		readOnly: true,
		roActive: true,
		pin:      pin,
		roRoot:   root,
		snapObjs: make(map[ObjectID]Object),
	}
}

// lookupLocked returns the committed object oid, from the cache or faulted
// in from the chunk store with the store mutex held by design: strict 2PL
// reads serialize on the store mutex (§4.2.2). The caller's object lock
// excludes writers, so what it reads may be cached without a chain check.
// Caller holds s.mu.
func (s *Store) lookupLocked(oid ObjectID) (Object, error) {
	if obj, ok := s.cache.get(oid); ok {
		return obj, nil
	}
	s.cache.misses.Add(1)
	data, err := s.chunks.Read(chunkstore.ChunkID(oid))
	if err != nil {
		if errors.Is(err, chunkstore.ErrNotAllocated) || errors.Is(err, chunkstore.ErrNotWritten) {
			return nil, fmt.Errorf("%w: %d", ErrNotFound, oid)
		}
		return nil, err
	}
	obj, err := unpickleObject(s.cfg.Registry, data)
	if err != nil {
		return nil, err
	}
	return s.cache.add(oid, obj, int64(len(data)), false), nil
}

// Stats reports cache occupancy and concurrency-control state.
type Stats struct {
	// CachedObjects counts the objects cached for every kind of reader;
	// CacheBytes is the shared pool's occupancy, map nodes included.
	CachedObjects int
	CacheBytes    int64
	// CacheHits counts opens the object cache served, CacheMisses opens
	// that read the chunk store instead.
	CacheHits   uint64
	CacheMisses uint64
	// LockEntries is the number of live lock-table entries (snapshot
	// transactions contribute zero).
	LockEntries int
	// VersionChains is the number of objects with live version history
	// retained for snapshot readers.
	VersionChains int
}

// Stats returns object cache statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache.mu.Lock()
	cached := len(s.cache.objs)
	s.cache.mu.Unlock()
	return Stats{
		CachedObjects: cached,
		CacheBytes:    s.cfg.CachePool.Used(),
		CacheHits:     s.cache.hits.Load(),
		CacheMisses:   s.cache.misses.Load(),
		LockEntries:   s.locks.entryCount(),
		VersionChains: s.versions.chainCount(),
	}
}
