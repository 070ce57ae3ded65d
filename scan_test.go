package tdb_test

import (
	"fmt"
	"sync"
	"testing"

	"tdb"
	"tdb/internal/collection"
	"tdb/internal/platform"
)

// openScanDB builds a database tuned so scans exercise the prefetch
// machinery hard: small segments (many coalescing boundaries and a cleanable
// log) and a populated songs collection.
func openScanDB(t *testing.T, n int, opts tdb.Options) (*tdb.DB, tdb.Options) {
	t.Helper()
	reg := tdb.NewRegistry()
	reg.Register(songClass, func() tdb.Object { return &Song{} })
	opts.Registry = reg
	if opts.Store == nil {
		opts.Store = platform.NewMemStore()
	}
	if opts.Counter == nil {
		opts.Counter = platform.NewMemCounter()
	}
	opts.Secret = []byte("scan-prefetch-test-secret-012345")
	db, err := tdb.Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	txn := db.Begin()
	songs, err := txn.CreateCollection("songs", songByID())
	if err != nil {
		t.Fatalf("CreateCollection: %v", err)
	}
	for i := 0; i < n; i++ {
		if _, err := songs.Insert(&Song{ID: int64(i + 1), Title: fmt.Sprintf("song-%04d", i+1), Plays: int64(i)}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := txn.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return db, opts
}

// reopen closes db and reopens it over the same store, so every cache —
// object, chunk plaintext — starts cold and scans must pull from the
// chunk store.
func reopen(t *testing.T, db *tdb.DB, opts tdb.Options) *tdb.DB {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatalf("Close for reopen: %v", err)
	}
	db2, err := tdb.Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return db2
}

// scanAll scans the whole collection with the given prefetch window and
// checks every object dereferences to the expected song. onStep, when
// non-nil, runs after each dereference (for interleaving maintenance).
func scanAll(t *testing.T, db *tdb.DB, window int, onStep func(i int)) int {
	return scanAllTxn(t, db, true, window, onStep)
}

func scanAllTxn(t *testing.T, db *tdb.DB, snapshot bool, window int, onStep func(i int)) int {
	t.Helper()
	txn := db.BeginReadOnly()
	if !snapshot {
		txn = db.Begin()
	}
	defer txn.Abort()
	h, err := txn.ReadCollection("songs")
	if err != nil {
		t.Fatalf("ReadCollection: %v", err)
	}
	it, err := h.Query(songByID())
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer it.Close()
	it.SetPrefetch(window)
	seen := make(map[int64]bool)
	i := 0
	for it.Next() {
		s, err := tdb.ReadAs[*Song](it)
		if err != nil {
			t.Fatalf("ReadAs at %d: %v", i, err)
		}
		if s.Title != fmt.Sprintf("song-%04d", s.ID) || seen[s.ID] {
			t.Fatalf("scan returned wrong or duplicate object: %+v", s)
		}
		seen[s.ID] = true
		if onStep != nil {
			onStep(i)
		}
		i++
	}
	return i
}

// TestScanPrefetchWindows runs the same full-collection scan at window 0
// (prefetch disabled — the pre-pipeline behavior), 1, and 32, checking every
// window returns the identical, complete result set and that nonzero windows
// actually drive the batch machinery (prefetched chunks and hits observable
// in Stats).
func TestScanPrefetchWindows(t *testing.T) {
	const n = 200
	db, opts := openScanDB(t, n, tdb.Options{SegmentSize: 8 << 10})
	defer func() { db.Close() }()

	// Cold-cache prefetching scan first: everything must come off the chunk
	// store through the batch machinery.
	db = reopen(t, db, opts)
	if got := scanAll(t, db, 32, nil); got != n {
		t.Fatalf("window 32: scanned %d objects, want %d", got, n)
	}
	st := db.Stats()
	if st.PrefetchedChunks == 0 {
		t.Fatalf("PrefetchedChunks = 0 after a cold prefetching scan; batch path not engaged")
	}
	if st.CoalescedReads == 0 {
		t.Fatalf("CoalescedReads = 0 after a cold prefetching scan of adjacent records")
	}

	// A cold 2PL scan's prefetch decodes into the object cache its own
	// opens read (a scan without prefetch gets no hits there), so the
	// prefetched objects must surface as object-cache hits.
	db = reopen(t, db, opts)
	if got := scanAllTxn(t, db, false, 32, nil); got != n {
		t.Fatalf("2PL window 32: scanned %d objects, want %d", got, n)
	}
	if st := db.Stats(); st.PrefetchedChunks == 0 {
		t.Fatalf("PrefetchedChunks = 0 after a cold 2PL prefetching scan; batch path not engaged")
	}
	if st := db.Objects().Stats(); st.CacheHits == 0 {
		t.Fatalf("object cache hits = 0 after a cold 2PL prefetching scan; prefetched objects never consumed")
	}

	// Window 1 and window 0 (prefetch disabled — the pre-pipeline behavior)
	// must return the identical, complete result set.
	for _, w := range []int{1, 0} {
		db = reopen(t, db, opts)
		if got := scanAll(t, db, w, nil); got != n {
			t.Fatalf("window %d: scanned %d objects, want %d", w, got, n)
		}
		if got := collection.PrefetchActive(); got != 0 {
			t.Fatalf("window %d: %d prefetchers alive after Close", w, got)
		}
	}
}

// TestScanCloseCancelsPrefetch abandons a scan right after it starts — the
// prefetcher has a full window in flight — and checks Close cancels the
// pipeline synchronously: by the time Close returns, no prefetch goroutine
// may be alive (it could otherwise race the transaction ending).
func TestScanCloseCancelsPrefetch(t *testing.T) {
	db, opts := openScanDB(t, 300, tdb.Options{SegmentSize: 8 << 10})
	defer func() { db.Close() }()
	db = reopen(t, db, opts)

	for round := 0; round < 10; round++ {
		txn := db.BeginReadOnly()
		h, err := txn.ReadCollection("songs")
		if err != nil {
			t.Fatalf("ReadCollection: %v", err)
		}
		it, err := h.Query(songByID())
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		it.SetPrefetch(64)
		if !it.Next() {
			t.Fatal("Next returned false on a populated collection")
		}
		if _, err := tdb.ReadAs[*Song](it); err != nil {
			t.Fatalf("ReadAs: %v", err)
		}
		it.Close()
		if got := collection.PrefetchActive(); got != 0 {
			t.Fatalf("round %d: %d prefetch goroutines alive after Close, want 0", round, got)
		}
		txn.Abort()
	}
}

// TestScanRacesCleanerRelocation interleaves cleaner passes (and periodic
// checkpoints) with a prefetching scan over a log full of garbage, so
// prefetched chunks get relocated between prefetch and dereference. The
// epoch revalidation must retry those — every object must still read back
// exact.
func TestScanRacesCleanerRelocation(t *testing.T) {
	const n = 240
	db, opts := openScanDB(t, n, tdb.Options{SegmentSize: 4 << 10, DisableAutoClean: true})
	defer func() { db.Close() }()

	// Rewrite a slice of the collection so early segments hold garbage and
	// the cleaner has live records (our scan targets) to evacuate.
	txn := db.Begin()
	h, err := txn.WriteCollection("songs", songByID())
	if err != nil {
		t.Fatalf("WriteCollection: %v", err)
	}
	it, err := h.Query(songByID())
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	for it.Next() {
		s, err := tdb.WriteAs[*Song](it)
		if err != nil {
			t.Fatalf("WriteAs: %v", err)
		}
		s.Plays++
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := txn.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// Reopen so the scan pulls cold from the chunk store, racing the cleaner
	// for real.
	db = reopen(t, db, opts)
	got := scanAll(t, db, 32, func(i int) {
		if i%24 == 0 {
			if err := db.Clean(); err != nil {
				t.Fatalf("Clean at %d: %v", i, err)
			}
		}
		if i%96 == 0 {
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint at %d: %v", i, err)
			}
		}
	})
	if got != n {
		t.Fatalf("scanned %d objects racing the cleaner, want %d", got, n)
	}
	if err := db.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestScannersRaceGroupCommitWriter stresses the full pipeline under -race:
// eight prefetching scanners sweep the collection in snapshot transactions
// while a writer keeps mutating it through durable group commits and the
// cleaner churns the log underneath. Scanners must always observe a
// consistent snapshot: every title matches its ID, no duplicates, no errors.
func TestScannersRaceGroupCommitWriter(t *testing.T) {
	const n = 120
	db, opts := openScanDB(t, n, tdb.Options{
		SegmentSize: 8 << 10,
		GroupCommit: tdb.GroupCommitConfig{Enabled: true},
	})
	defer func() { db.Close() }()
	db = reopen(t, db, opts)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				w := []int{0, 1, 8, 32}[(seed+round)%4]
				txn := db.BeginReadOnly()
				h, err := txn.ReadCollection("songs")
				if err != nil {
					t.Errorf("scanner %d: ReadCollection: %v", seed, err)
					txn.Abort()
					return
				}
				it, err := h.Query(songByID())
				if err != nil {
					t.Errorf("scanner %d: Query: %v", seed, err)
					txn.Abort()
					return
				}
				it.SetPrefetch(w)
				count := 0
				for it.Next() {
					s, err := tdb.ReadAs[*Song](it)
					if err != nil {
						t.Errorf("scanner %d: ReadAs: %v", seed, err)
						break
					}
					if s.Title != fmt.Sprintf("song-%04d", s.ID) {
						t.Errorf("scanner %d: torn object %+v", seed, s)
						break
					}
					count++
				}
				it.Close()
				txn.Abort()
				if count != n {
					t.Errorf("scanner %d: scanned %d, want %d", seed, count, n)
					return
				}
			}
		}(r)
	}

	// The writer bumps play counts through writable iterators — group
	// commits publish new versions and retire old chunks while scans are in
	// flight.
	for round := 0; round < 25; round++ {
		txn := db.Begin()
		h, err := txn.WriteCollection("songs", songByID())
		if err != nil {
			t.Fatalf("writer: WriteCollection: %v", err)
		}
		it, err := h.Query(songByID())
		if err != nil {
			t.Fatalf("writer: Query: %v", err)
		}
		for it.Next() {
			s, err := tdb.WriteAs[*Song](it)
			if err != nil {
				t.Fatalf("writer: WriteAs: %v", err)
			}
			s.Plays++
		}
		if err := it.Close(); err != nil {
			t.Fatalf("writer: Close: %v", err)
		}
		if err := txn.Commit(true); err != nil {
			t.Fatalf("writer: Commit: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	if got := collection.PrefetchActive(); got != 0 {
		t.Fatalf("%d prefetch goroutines alive after the race, want 0", got)
	}
	if err := db.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}
