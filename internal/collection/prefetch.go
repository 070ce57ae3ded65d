package collection

import (
	"sync"
	"sync/atomic"

	"tdb/internal/objectstore"
)

// prefetchActive counts live prefetcher goroutines across the process. It
// exists for leak detection: tests assert it returns to zero after iterators
// close, which is the observable guarantee that Close cancels in-flight
// prefetch work rather than abandoning it.
var prefetchActive atomic.Int64

// PrefetchActive reports the number of live iterator-prefetch goroutines
// (test and diagnostics hook).
func PrefetchActive() int64 { return prefetchActive.Load() }

// prefetcher drives a sliding prefetch window ahead of an iterator's cursor.
// The iterator's materialized result set is a perfect prefetch plan — every
// oid it will dereference is known up front — so the prefetcher walks that
// plan a bounded distance ahead of the consumer, warming the chunk-level read
// cache and the object store's cache of committed objects through
// Txn.Prefetch (which is the one Txn method documented safe for use
// concurrent with opens on the same Txn).
//
// Backpressure and batching: the goroutine sleeps until the uncovered part
// of the window is at least half the window deep (or the tail of the result
// set, whichever is smaller), then claims that whole span in one
// Txn.Prefetch call. Issuing multi-oid spans rather than one oid at a time
// is what lets the chunk store coalesce physically adjacent records into
// single segment reads.
//
// Staleness is not the prefetcher's problem: Txn.Prefetch publishes through
// the chunk store's epoch-revalidated read path and caches objects only
// after the version table's pinned no-chain check, so a cleaner relocation or concurrent commit mid-scan
// invalidates rather than corrupts; a wasted prefetch is just a miss later.
type prefetcher struct {
	t    *objectstore.Txn
	oids []objectstore.ObjectID

	mu       sync.Mutex
	cond     *sync.Cond
	consumed int // last position the iterator has reached
	next     int // first position not yet claimed for prefetch
	window   int
	closed   bool
	done     chan struct{}
}

// startPrefetcher launches a prefetcher covering oids[pos+1:] with the given
// window depth. pos is the iterator's current position (may be -1). The
// first window is seeded synchronously on the caller — the first
// dereference follows immediately, and a consumer fast enough to outrun
// goroutine scheduling must not be able to outrun the pipeline entirely —
// then the background goroutine takes over refills.
func startPrefetcher(t *objectstore.Txn, oids []objectstore.ObjectID, window, pos int) *prefetcher {
	if pos < -1 {
		pos = -1
	}
	seedHi := pos + window + 1 // one full window ahead of the cursor
	if seedHi > len(oids) {
		seedHi = len(oids)
	}
	p := &prefetcher{
		t:        t,
		oids:     oids,
		consumed: pos,
		next:     seedHi,
		window:   window,
		done:     make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	t.Prefetch(oids[pos+1 : seedHi])
	prefetchActive.Add(1)
	go p.run()
	return p
}

// run claims spans of the window and issues them through Txn.Prefetch with
// no locks held — the mutex covers only the cursor arithmetic.
func (p *prefetcher) run() {
	defer func() {
		prefetchActive.Add(-1)
		close(p.done)
	}()
	for {
		p.mu.Lock()
		for !p.closed && p.next < len(p.oids) && !p.spanReadyLocked() {
			p.cond.Wait()
		}
		if p.closed || p.next >= len(p.oids) {
			p.mu.Unlock()
			return
		}
		lo := p.next
		hi := p.consumed + p.window + 1
		if hi > len(p.oids) {
			hi = len(p.oids)
		}
		p.next = hi
		p.mu.Unlock()
		p.t.Prefetch(p.oids[lo:hi])
	}
}

// spanReadyLocked reports whether enough of the window is uncovered to be
// worth a batch: at least half the window, or everything that remains.
// Caller holds p.mu.
func (p *prefetcher) spanReadyLocked() bool {
	uncovered := p.consumed + p.window + 1 - p.next
	refill := p.window / 2
	if refill < 1 {
		refill = 1
	}
	if rest := len(p.oids) - p.next; refill > rest {
		refill = rest
	}
	return uncovered >= refill
}

// advance tells the prefetcher the iterator reached pos, sliding the window
// forward. If the cursor has caught the prefetched frontier — the consumer
// is outrunning the background goroutine, so its next dereference would
// miss — advance claims the next window synchronously: a fast consumer
// degrades to coalesced batch reads rather than point misses.
func (p *prefetcher) advance(pos int) {
	p.mu.Lock()
	if pos > p.consumed {
		p.consumed = pos
		p.cond.Signal()
	}
	if pos+1 >= p.next && p.next < len(p.oids) && !p.closed {
		lo := p.next
		hi := pos + p.window + 1
		if hi > len(p.oids) {
			hi = len(p.oids)
		}
		p.next = hi
		p.mu.Unlock()
		p.t.Prefetch(p.oids[lo:hi])
		return
	}
	p.mu.Unlock()
}

// close cancels the prefetcher and waits for its goroutine to exit, so no
// Prefetch call can race the transaction ending after the iterator closes.
func (p *prefetcher) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Signal()
	p.mu.Unlock()
	<-p.done
}
