package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"tdb/internal/lru"
)

// TestReadMissOffMutexHappyPath checks the acceptance contract of the
// off-mutex read path: cache-miss reads of chunks with resident map entries
// never fall back to the exclusive lock. The shared-lock claim is asserted
// directly by performing a cold read while the test itself holds the store
// lock in shared mode — any exclusive acquisition would deadlock.
func TestReadMissOffMutexHappyPath(t *testing.T) {
	env := newTestEnv(t, "aes-sha256")
	s := env.open(t)
	defer s.Close()

	const n = 32
	var ids []ChunkID
	var payloads [][]byte
	for i := 0; i < n; i++ {
		p := bytes.Repeat([]byte{byte(i + 1)}, 512)
		ids = append(ids, allocWrite(t, s, p))
		payloads = append(payloads, p)
	}
	s.rcache.purge()

	s.mu.RLock()
	got, err := s.Read(ids[0])
	s.mu.RUnlock()
	if err != nil || !bytes.Equal(got, payloads[0]) {
		t.Fatalf("cold Read under shared lock: %q, %v", got, err)
	}

	for i, cid := range ids {
		got, err := s.Read(cid)
		if err != nil || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("cold Read(%d): %v", cid, err)
		}
	}
	st := s.Stats()
	if st.ReadSlowPaths != 0 {
		t.Fatalf("ReadSlowPaths = %d after warm-map cache misses, want 0", st.ReadSlowPaths)
	}
	if st.ReadCacheMisses < n {
		t.Fatalf("ReadCacheMisses = %d, want >= %d", st.ReadCacheMisses, n)
	}
	if st.ReadCacheShards < 1 {
		t.Fatalf("ReadCacheShards = %d, want >= 1", st.ReadCacheShards)
	}
	// The misses republished every chunk; the second pass must hit.
	hitsBefore := st.ReadCacheHits
	for i, cid := range ids {
		got, err := s.Read(cid)
		if err != nil || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("warm Read(%d): %v", cid, err)
		}
	}
	if st := s.Stats(); st.ReadCacheHits < hitsBefore+n {
		t.Fatalf("hits %d -> %d, want +%d", hitsBefore, st.ReadCacheHits, n)
	}
}

// TestReadRetryOnCleanerRelocation drives the relocation race by hand: a
// read plans its snapshot, the cleaner then evacuates the chunk's segment,
// and the completed off-lock read must fail revalidation (stale epoch and
// moved entry) rather than publish a result computed from the old record.
func TestReadRetryOnCleanerRelocation(t *testing.T) {
	env := newTestEnv(t, "aes-sha256")
	env.cfg.SegmentSize = 4 << 10
	env.cfg.DisableAutoClean = true
	s := env.open(t)
	defer s.Close()

	// The victim chunk shares its early segment with filler chunks; the
	// filler is then rewritten so the segment accumulates garbage and more
	// segments open, making it cleanable (non-tail, garbage present).
	victim := allocWrite(t, s, bytes.Repeat([]byte("V"), 256))
	var filler []ChunkID
	for i := 0; i < 24; i++ {
		filler = append(filler, allocWrite(t, s, bytes.Repeat([]byte{byte(i)}, 512)))
	}
	for _, cid := range filler {
		writeChunk(t, s, cid, bytes.Repeat([]byte("x"), 512))
	}

	locBefore := func() Location {
		s.mu.Lock()
		defer s.mu.Unlock()
		e, err := s.lm.get(victim)
		if err != nil {
			t.Fatalf("lm.get: %v", err)
		}
		return e.loc
	}()

	s.rcache.purge()
	p, _ := s.flights.claim(victim)
	s.mu.RLock()
	resident, err := s.planReadLocked(p)
	s.mu.RUnlock()
	if !resident || err != nil || p.seg == nil {
		t.Fatalf("planReadLocked: resident=%v, %v, damage=%v", resident, err, p.damage)
	}
	if got := p.seg.readers.Load(); got != 1 {
		t.Fatalf("segment pin count = %d after plan, want 1", got)
	}

	if err := s.Clean(); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	locAfter := func() Location {
		s.mu.Lock()
		defer s.mu.Unlock()
		e, err := s.lm.get(victim)
		if err != nil {
			t.Fatalf("lm.get: %v", err)
		}
		return e.loc
	}()
	if locAfter == locBefore {
		t.Fatalf("cleaner did not relocate the victim (loc %v); test setup rotted", locBefore)
	}

	// The off-lock half still succeeds against the pinned old segment —
	// the bytes are intact and validate — but revalidation must reject it.
	plain, rerr := s.executeRead(p)
	if rerr != nil {
		t.Fatalf("executeRead against pinned segment: %v", rerr)
	}
	if s.finishRead(p, plain, rerr); !p.stale {
		t.Fatalf("finishRead accepted a stale snapshot: data=%q err=%v", p.data, p.err)
	}
	if got := p.seg.readers.Load(); got != 0 {
		t.Fatalf("segment pin count = %d after finish, want 0", got)
	}
	if _, ok := s.rcache.get(victim); ok {
		t.Fatal("stale read was published to the read cache")
	}

	// The retry (a full Read) lands on the relocated record.
	got, err := s.Read(victim)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte("V"), 256)) {
		t.Fatalf("Read after relocation: %q, %v", got, err)
	}
}

// TestReadFlightsStaleInvalidation exercises the flight coherence protocol:
// a commit that invalidates a flight mid-read must make the reader that
// joined it discard the leader's result and retry, reading the new value —
// from the commit's write-through with the read cache on, from storage with
// it off.
func TestReadFlightsStaleInvalidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cache int64
	}{{"cached", 0}, {"uncached", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			env := newTestEnv(t, "aes-sha256")
			env.cfg.ReadCacheBytes = tc.cache
			s := env.open(t)
			defer s.Close()
			cid := allocWrite(t, s, []byte("old"))
			s.rcache.purge()

			// The test leads cid's flight, standing in for a reader
			// mid-fetch; a Read that misses the cache joins it.
			lead, _ := s.flights.claim(cid)
			if lead == nil {
				t.Fatal("claim found a flight with no reader active")
			}
			type result struct {
				data []byte
				err  error
			}
			got := make(chan result, 1)
			go func() {
				data, err := s.Read(cid)
				got <- result{data, err}
			}()
			waitForJoiners(t, s, cid, &lead.flight, 1)

			// A commit rewrites cid while the flight is airborne, then the
			// leader completes with the value it read before the commit.
			writeChunk(t, s, cid, []byte("new"))
			s.flights.complete(cid, &lead.flight, []byte("old"), nil)
			r := <-got
			if r.err != nil || string(r.data) != "new" {
				t.Fatalf("joiner of an invalidated flight got (%q, %v), want the new value", r.data, r.err)
			}

			// A flight completed without an invalidation hands joiners the
			// leader's result.
			lead2, _ := s.flights.claim(cid)
			if lead2 == nil {
				t.Fatal("flight still registered after complete")
			}
			_, f := s.flights.claim(cid)
			if f != &lead2.flight {
				t.Fatal("second claim did not join the leader's flight")
			}
			s.flights.complete(cid, &lead2.flight, []byte("shared"), nil)
			if data, err, stale := f.wait(); stale || err != nil || string(data) != "shared" {
				t.Fatalf("joiner got (%q, %v, stale=%v), want the leader's result", data, err, stale)
			}
		})
	}
}

// waitForJoiners blocks until n readers have joined the flight f of cid.
func waitForJoiners(t *testing.T, s *Store, cid ChunkID, f *readFlight, n int) {
	t.Helper()
	sh := s.flights.shard(cid)
	for {
		sh.mu.Lock()
		joined := f.waiters
		sh.mu.Unlock()
		if joined >= n {
			return
		}
		runtime.Gosched()
	}
}

// TestConcurrentReadsRaceCleaner hammers stable chunks from reader
// goroutines while the main goroutine rewrites churn chunks, purges the
// read cache, and runs cleaner and checkpoint passes. Every read must
// return the exact stable payload — relocations mid-read must be caught by
// revalidation, never surfaced as wrong data or spurious errors.
func TestConcurrentReadsRaceCleaner(t *testing.T) {
	env := newTestEnv(t, "aes-sha256")
	env.cfg.SegmentSize = 4 << 10
	s := env.open(t)
	defer s.Close()

	const stableN, churnN = 8, 8
	var stable, churn []ChunkID
	for i := 0; i < stableN; i++ {
		stable = append(stable, allocWrite(t, s, stablePayload(i)))
	}
	for i := 0; i < churnN; i++ {
		churn = append(churn, allocWrite(t, s, bytes.Repeat([]byte{0xee}, 300)))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				idx := (i + seed) % stableN
				got, err := s.Read(stable[idx])
				if err != nil {
					t.Errorf("Read(stable %d): %v", idx, err)
					return
				}
				if !bytes.Equal(got, stablePayload(idx)) {
					t.Errorf("Read(stable %d): wrong data (%d bytes)", idx, len(got))
					return
				}
			}
		}(r)
	}
	for round := 0; round < 40; round++ {
		for i, cid := range churn {
			writeChunk(t, s, cid, bytes.Repeat([]byte{byte(round), byte(i)}, 150))
		}
		// Purging forces the readers back onto the miss path, racing the
		// cleaner's relocations below.
		s.rcache.purge()
		if err := s.Clean(); err != nil {
			t.Fatalf("Clean: %v", err)
		}
		if round%8 == 0 {
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify after read/clean race: %v", err)
	}
}

func stablePayload(i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("stable-%02d-", i)), 40)
}

// TestReadAndReadBatchAgree pins Read as a one-element ReadBatch: for every
// state a chunk can be in, Read(cid) and ReadBatch([]ChunkID{cid})[0] return
// the same data and the same error classes, and leave the chunk in the same
// quarantine state. Each entry point runs against its own fresh store.
func TestReadAndReadBatchAgree(t *testing.T) {
	payload := bytes.Repeat([]byte("agree"), 40)
	classes := []error{ErrNotWritten, ErrNotAllocated, ErrDegraded, ErrTampered, ErrIO, ErrClosed}
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, env *testEnv, s *Store) ChunkID
		want  error // nil: the payload
	}{
		{"written", func(t *testing.T, env *testEnv, s *Store) ChunkID {
			return allocWrite(t, s, payload)
		}, nil},
		{"deallocated", func(t *testing.T, env *testEnv, s *Store) ChunkID {
			cid := allocWrite(t, s, payload)
			b := s.NewBatch()
			b.Deallocate(cid)
			if err := s.Commit(b, true); err != nil {
				t.Fatalf("Commit(dealloc): %v", err)
			}
			return cid
		}, ErrNotAllocated},
		{"never-written", func(t *testing.T, env *testEnv, s *Store) ChunkID {
			cid, err := s.AllocateChunkID()
			if err != nil {
				t.Fatalf("AllocateChunkID: %v", err)
			}
			return cid
		}, ErrNotWritten},
		{"not-allocated", func(t *testing.T, env *testEnv, s *Store) ChunkID {
			return 12345
		}, ErrNotAllocated},
		{"quarantined", func(t *testing.T, env *testEnv, s *Store) ChunkID {
			cid := allocWrite(t, s, payload)
			rotChunk(t, env, s, cid)
			if _, err := s.Scrub(); err != nil {
				t.Fatalf("Scrub: %v", err)
			}
			return cid
		}, ErrDegraded},
		{"rotted", func(t *testing.T, env *testEnv, s *Store) ChunkID {
			cid := allocWrite(t, s, payload)
			rotChunk(t, env, s, cid)
			return cid
		}, ErrDegraded},
		{"io-error", func(t *testing.T, env *testEnv, s *Store) ChunkID {
			cid := allocWrite(t, s, payload)
			env.fs.SetTransientReads(1, 1000)
			return cid
		}, ErrIO},
		{"closed", func(t *testing.T, env *testEnv, s *Store) ChunkID {
			cid := allocWrite(t, s, payload)
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			return cid
		}, ErrClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				data        []byte
				classes     []bool
				quarantined bool
			}
			run := func(read func(s *Store, cid ChunkID) ([]byte, error)) outcome {
				env := newTestEnv(t, "aes-sha256")
				env.cfg.Retry = RetryPolicy{Sleep: func(time.Duration) {}}
				s := env.open(t)
				defer s.Close()
				cid := tc.setup(t, env, s)
				s.rcache.purge()
				data, err := read(s, cid)
				env.fs.SetTransientReads(0, 0)
				o := outcome{data: data, quarantined: slices.Contains(s.Quarantined(), cid)}
				for _, c := range classes {
					o.classes = append(o.classes, errors.Is(err, c))
				}
				if tc.want == nil && (err != nil || !bytes.Equal(data, payload)) {
					t.Fatalf("read: %q, %v; want the payload", data, err)
				}
				if tc.want != nil && !errors.Is(err, tc.want) {
					t.Fatalf("read error %v, want %v", err, tc.want)
				}
				return o
			}
			point := run(func(s *Store, cid ChunkID) ([]byte, error) { return s.Read(cid) })
			batch := run(func(s *Store, cid ChunkID) ([]byte, error) {
				r := s.ReadBatch([]ChunkID{cid})[0]
				return r.Data, r.Err
			})
			if !bytes.Equal(point.data, batch.data) {
				t.Fatalf("data differs: Read %q, ReadBatch %q", point.data, batch.data)
			}
			if !slices.Equal(point.classes, batch.classes) {
				t.Fatalf("error classes differ (%v): Read %v, ReadBatch %v", classes, point.classes, batch.classes)
			}
			if point.quarantined != batch.quarantined {
				t.Fatalf("quarantine differs: Read %v, ReadBatch %v", point.quarantined, batch.quarantined)
			}
		})
	}
}

// TestReadSlowPathOncePerChunk checks the one exclusive-lock fallback: with
// a map-node cache too small to keep the location map resident, a chunk
// whose node is not in memory takes the slow path exactly once, through
// either entry point, and reads its data.
func TestReadSlowPathOncePerChunk(t *testing.T) {
	env := newTestEnv(t, "aes-sha256")
	env.cfg.Fanout = 8
	env.cfg.CachePool = lru.NewPool(4 << 10)
	s := env.open(t)
	defer s.Close()
	var ids []ChunkID
	for i := 0; i < 400; i++ {
		ids = append(ids, allocWrite(t, s, stablePayload(i)))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	s.rcache.purge()
	cold := func() []int {
		s.mu.RLock()
		defer s.mu.RUnlock()
		var out []int
		for i, cid := range ids {
			if _, resident := s.lm.getCached(cid); !resident {
				out = append(out, i)
			}
		}
		return out
	}

	idx := cold()
	if len(idx) < 4 {
		t.Fatalf("%d chunks with non-resident map nodes; test setup rotted", len(idx))
	}
	before := s.Stats().ReadSlowPaths
	if got, err := s.Read(ids[idx[0]]); err != nil || !bytes.Equal(got, stablePayload(idx[0])) {
		t.Fatalf("Read of a non-resident chunk: %v", err)
	}
	if d := s.Stats().ReadSlowPaths - before; d != 1 {
		t.Fatalf("Read took the slow path %d times, want 1", d)
	}

	idx = cold()
	if len(idx) > 3 {
		idx = idx[:3]
	}
	var batch []ChunkID
	for _, i := range idx {
		batch = append(batch, ids[i])
	}
	before = s.Stats().ReadSlowPaths
	for k, r := range s.ReadBatch(batch) {
		if r.Err != nil || !bytes.Equal(r.Data, stablePayload(idx[k])) {
			t.Fatalf("ReadBatch[%d] of a non-resident chunk: %v", k, r.Err)
		}
	}
	if d := s.Stats().ReadSlowPaths - before; d != int64(len(batch)) {
		t.Fatalf("ReadBatch took the slow path %d times for %d chunks, want once each", d, len(batch))
	}
}

// TestReadCrossOrderBatchesNoDeadlock runs batches [x,y] and [y,x] against
// point reads of x and y, with the read cache purged every round so every
// reader misses and the flights collide. A reader that waited on a joined
// flight while still leading one would deadlock against the mirrored batch;
// the run must finish under the timeout.
func TestReadCrossOrderBatchesNoDeadlock(t *testing.T) {
	env := newTestEnv(t, "aes-sha256")
	env.cfg.PrefetchWorkers = 2
	s := env.open(t)
	defer s.Close()
	x := allocWrite(t, s, stablePayload(0))
	y := allocWrite(t, s, stablePayload(1))
	want := map[ChunkID][]byte{x: stablePayload(0), y: stablePayload(1)}

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for round := 0; round < 300; round++ {
			s.rcache.purge()
			var wg sync.WaitGroup
			for _, ids := range [][]ChunkID{{x, y}, {y, x}, {x}, {y}} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if len(ids) == 1 {
						if got, err := s.Read(ids[0]); err != nil || !bytes.Equal(got, want[ids[0]]) {
							t.Errorf("Read(%d): %v", ids[0], err)
						}
						return
					}
					for _, r := range s.ReadBatch(ids) {
						if r.Err != nil || !bytes.Equal(r.Data, want[r.CID]) {
							t.Errorf("ReadBatch(%d): %v", r.CID, r.Err)
						}
					}
				}()
			}
			wg.Wait()
		}
	}()
	select {
	case <-finished:
	case <-time.After(time.Minute):
		t.Fatal("cross-order batches did not finish: a reader waited on a flight while leading one")
	}
}
