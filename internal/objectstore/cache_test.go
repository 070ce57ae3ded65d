package objectstore

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tdb/internal/chunkstore"
	"tdb/internal/lru"
)

// commitMeters inserts n meters numbered from 0 in one committed
// transaction and returns their ids.
func commitMeters(t *testing.T, s *Store, n int) []ObjectID {
	t.Helper()
	tx := s.Begin()
	ids := make([]ObjectID, n)
	for i := range ids {
		oid, err := tx.Insert(&Meter{ID: int32(i)})
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		ids[i] = oid
	}
	if err := tx.Commit(true); err != nil {
		t.Fatalf("commit: %v", err)
	}
	return ids
}

// TestAbortedWriterLeavesCachedInstance pins the private-copy rule on
// abort: a writer never mutates the cached committed instance, so after it
// aborts the instance is byte-identical and 2PL and snapshot readers are
// still served it.
func TestAbortedWriterLeavesCachedInstance(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()
	oid := commitMeters(t, s, 1)[0]

	r := s.Begin()
	ref, err := OpenReadonly[*Meter](r, oid)
	if err != nil {
		t.Fatalf("2PL read: %v", err)
	}
	cached := ref.Deref()
	r.Abort()
	before := pickleObject(cached)

	w := s.Begin()
	wref, err := OpenWritable[*Meter](w, oid)
	if err != nil {
		t.Fatalf("OpenWritable: %v", err)
	}
	if wref.Deref() == cached {
		t.Fatal("writable open returned the shared cached instance")
	}
	wref.Deref().ViewCount = 99
	w.Abort()

	if after := pickleObject(cached); string(after) != string(before) {
		t.Fatalf("aborted writer changed the cached instance: %x → %x", before, after)
	}
	r = s.Begin()
	ref, err = OpenReadonly[*Meter](r, oid)
	if err != nil || ref.Deref() != cached {
		t.Fatalf("2PL read after abort: %v; served the cached instance: %v", err, err == nil && ref.Deref() == cached)
	}
	r.Abort()
	ro := s.BeginReadOnly()
	sref, err := OpenReadonly[*Meter](ro, oid)
	if err != nil || sref.Deref() != cached {
		t.Fatalf("snapshot read after abort: %v; served the cached instance: %v", err, err == nil && sref.Deref() == cached)
	}
	ro.Abort()
}

// TestReadThenWriteOpensPrivateCopy pins upgrades inside one transaction:
// after a read-only open handed out the shared instance, the writable open
// returns a private copy, every later open returns that copy, the commit
// persists it, and the instance a concurrent snapshot already holds never
// changes.
func TestReadThenWriteOpensPrivateCopy(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()
	oid := commitMeters(t, s, 1)[0]

	snap := s.BeginReadOnly()
	sref, err := OpenReadonly[*Meter](snap, oid)
	if err != nil {
		t.Fatalf("snapshot read: %v", err)
	}
	shared := sref.Deref()

	tx := s.Begin()
	rref, err := OpenReadonly[*Meter](tx, oid)
	if err != nil {
		t.Fatalf("OpenReadonly: %v", err)
	}
	if rref.Deref() != shared {
		t.Fatal("read-only open not served the cached instance")
	}
	wref, err := OpenWritable[*Meter](tx, oid)
	if err != nil {
		t.Fatalf("OpenWritable: %v", err)
	}
	private := wref.Deref()
	if private == shared {
		t.Fatal("writable open returned the shared instance")
	}
	private.ViewCount = 42
	for _, open := range []func() (*Meter, error){
		func() (*Meter, error) { r, err := OpenReadonly[*Meter](tx, oid); return r.Deref(), err },
		func() (*Meter, error) { r, err := OpenWritable[*Meter](tx, oid); return r.Deref(), err },
	} {
		if got, err := open(); err != nil || got != private {
			t.Fatalf("later open in the writing transaction: %v; returned the private copy: %v", err, got == private)
		}
	}
	if err := tx.Commit(true); err != nil {
		t.Fatalf("commit: %v", err)
	}

	if shared.ViewCount != 0 {
		t.Fatalf("instance held by a concurrent snapshot changed: ViewCount = %d", shared.ViewCount)
	}
	if again, err := OpenReadonly[*Meter](snap, oid); err != nil || again.Deref() != shared {
		t.Fatalf("pinned snapshot reopen: %v", err)
	}
	snap.Abort()
	after := s.BeginReadOnly()
	aref, err := OpenReadonly[*Meter](after, oid)
	if err != nil || aref.Deref().ViewCount != 42 {
		t.Fatalf("snapshot after commit: %v; want the committed ViewCount 42", err)
	}
	after.Abort()

	// The commit reached the chunk store, not just the cache.
	s.Close()
	s = e.open(t)
	r := s.BeginReadOnly()
	pref, err := OpenReadonly[*Meter](r, oid)
	if err != nil || pref.Deref().ViewCount != 42 {
		t.Fatalf("reopened store: %v; want the committed ViewCount 42", err)
	}
	r.Abort()
}

// TestPrefetchWarms2PLOpens checks that Prefetch from a read-write
// transaction lands decoded objects where its own 2PL opens look: after
// the prefetch, opening every object reads nothing from the chunk store,
// not even from its plaintext read cache. Each open consumes its entry.
func TestPrefetchWarms2PLOpens(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	ids := commitMeters(t, s, 50)
	s.Close()
	s = e.open(t) // a fresh store: nothing decoded yet
	defer s.Close()

	tx := s.Begin()
	defer tx.Abort()
	if n := tx.Prefetch(ids); n != len(ids) {
		t.Fatalf("Prefetch warmed %d of %d objects", n, len(ids))
	}
	before, hitsBefore := s.Chunks().Stats(), s.Stats().CacheHits
	for i, oid := range ids {
		ref, err := OpenReadonly[*Meter](tx, oid)
		if err != nil || ref.Deref().ID != int32(i) {
			t.Fatalf("open %d: %v", oid, err)
		}
	}
	after := s.Chunks().Stats()
	if after.ReadCacheHits != before.ReadCacheHits || after.ReadCacheMisses != before.ReadCacheMisses {
		t.Fatalf("2PL opens after Prefetch read the chunk store: read cache hits %d → %d, misses %d → %d",
			before.ReadCacheHits, after.ReadCacheHits, before.ReadCacheMisses, after.ReadCacheMisses)
	}
	if got := s.Stats().CacheHits - hitsBefore; got != uint64(len(ids)) {
		t.Fatalf("object cache served %d of %d opens", got, len(ids))
	}
	// Prefetched objects are cached for one use: the scan that asked for
	// them does not keep them at the head of the LRU.
	if n := s.Stats().CachedObjects; n != 0 {
		t.Fatalf("%d prefetched objects still cached after their opens", n)
	}
}

// TestCrossLayerEvictionRace shares a pool small enough that every fault-in
// evicts, between an object store and a chunk store whose location map
// pages constantly (fanout 4, no plaintext read cache), and races 2PL
// readers against snapshot readers and one-object writers. Each layer's
// eviction callbacks must run under that layer's own lock; run under -race
// this catches a callback running under the other layer's.
func TestCrossLayerEvictionRace(t *testing.T) {
	e := newOSEnv(t)
	e.pool = lru.NewPool(16 << 10)
	cs, err := chunkstore.Open(chunkstore.Config{
		Store:          e.mem,
		Counter:        e.counter,
		Suite:          e.suite,
		UseCounter:     true,
		CachePool:      e.pool,
		Fanout:         4,
		ReadCacheBytes: -1,
	})
	if err != nil {
		t.Fatalf("chunkstore.Open: %v", err)
	}
	cfg := e.cfg
	cfg.Chunks, cfg.CachePool = cs, e.pool
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("objectstore.Open: %v", err)
	}
	defer s.Close()
	var ids []ObjectID
	for len(ids) < 2000 {
		ids = append(ids, commitMeters(t, s, 100)...)
	}
	if err := cs.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	run := func(seed int64, body func(*rand.Rand) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := body(rng); err != nil && !errors.Is(err, ErrLockTimeout) {
					t.Error(err)
					return
				}
			}
		}()
	}
	pick := func(rng *rand.Rand) ObjectID { return ids[rng.Intn(len(ids))] }
	for i := int64(0); i < 2; i++ {
		run(i, func(rng *rand.Rand) error { // 2PL read-only opens
			tx := s.Begin()
			defer tx.Abort()
			_, err := tx.OpenReadonly(pick(rng))
			return err
		})
		run(10+i, func(rng *rand.Rand) error { // snapshot open + one-object write
			ro := s.BeginReadOnly()
			_, err := ro.OpenReadonly(pick(rng))
			ro.Abort()
			if err != nil {
				return err
			}
			tx := s.Begin()
			ref, err := OpenWritable[*Meter](tx, pick(rng))
			if err != nil {
				tx.Abort()
				return err
			}
			ref.Deref().ViewCount++
			return tx.Commit(false)
		})
	}
	time.Sleep(2 * time.Second)
	close(stop)
	wg.Wait()
}
