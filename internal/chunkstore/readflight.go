package chunkstore

import "sync"

// Per-chunk singleflight for cache-miss reads: a hot key, or a window N
// scanners sweep in convoy, pays one segment read, hash validation and
// decryption instead of one per reader. A reader that misses the cache
// claims the chunk's flight: it leads a new one, which it must release with
// complete or abandon, or joins the one in progress and later waits on it.
//
// Deadlock rule: a reader completes or abandons every flight it claimed
// before it waits on any flight it joined; two batches [x,y] and [y,x]
// would otherwise each lead one chunk while waiting on the other's. The
// read loop's round structure enforces it (read.go: runPlans returns only
// after every claimed plan has released its flight, and settleRound waits).
//
// Coherence: a flight's value is computed against the location-map state the
// leader revalidated (see finishRead). A commit that rewrites or deallocates
// the chunk while the flight is in progress marks it stale — from inside
// commitPreparedLocked, before Commit returns — and stale joiners retry
// against the read cache, where the same commit's write-through already
// published the new value. The mutex handoff gives the happens-before chain:
// a staling commit finds the flight registered and writes stale under the
// shard mutex; the leader's removal of the flight takes the same mutex and
// precedes done.Done, which every joiner's read of stale synchronizes with.
// A commit that runs after the leader removed the flight cannot stale it,
// and does not need to: any joiner of that flight joined before the removal,
// so its read overlaps the leader's (pre-commit) linearization point.
//
// Lock order: Store.mu → flightShard.mu (the read loop claims flights and
// the commit path stales them under the store mutex). No one waits on a
// flight while holding either mutex.

// flightShardCount spreads flight registration across independent mutexes so
// misses on distinct chunks do not contend. Power of two for cheap masking.
const flightShardCount = 16

// readFlight is one in-progress cache-miss read, embedded in its leader's
// readPlan.
type readFlight struct {
	// done holds one count from claim until the leader releases the flight.
	done sync.WaitGroup
	data []byte
	err  error
	// stale is set by a commit that rewrote or deallocated the chunk while
	// the flight was in progress, or by a leader abandoning it; joiners
	// observing it must retry.
	stale bool
	// waiters counts readers that joined the flight. Guarded by the shard
	// mutex; observable, so tests can sequence a join precisely.
	waiters int
}

type flightShard struct {
	mu sync.Mutex
	m  map[ChunkID]*readFlight
}

type readFlights struct {
	shards [flightShardCount]flightShard
}

func newReadFlights() *readFlights {
	rf := &readFlights{}
	for i := range rf.shards {
		rf.shards[i].m = make(map[ChunkID]*readFlight)
	}
	return rf
}

func (rf *readFlights) shard(cid ChunkID) *flightShard {
	return &rf.shards[mix64(uint64(cid))&(flightShardCount-1)]
}

// claim takes cid's flight for a reader that missed the read cache. If
// another reader has a flight in progress, claim joins it and returns it;
// the caller may wait on it once it holds no claims. Otherwise claim
// registers the flight of a new plan and returns the plan: its reader leads
// the flight and must release it with complete or abandon.
func (rf *readFlights) claim(cid ChunkID) (lead *readPlan, joined *readFlight) {
	sh := rf.shard(cid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f := sh.m[cid]; f != nil {
		f.waiters++
		return nil, f
	}
	p := &readPlan{cid: cid}
	p.flight.done.Add(1)
	sh.m[cid] = &p.flight
	return p, nil
}

// complete publishes a claimed flight's result and releases it. The leader
// keeps data; joiners copy a private clone of it, so no caller's slice is
// shared with another.
func (rf *readFlights) complete(cid ChunkID, f *readFlight, data []byte, err error) {
	sh := rf.shard(cid)
	sh.mu.Lock()
	delete(sh.m, cid)
	joined := f.waiters > 0
	sh.mu.Unlock()
	if joined {
		data = append([]byte(nil), data...)
	}
	f.data, f.err = data, err
	f.done.Done()
}

// abandon releases a claimed flight without a result: joiners observe stale
// and retry, exactly as after a superseding commit.
func (rf *readFlights) abandon(cid ChunkID, f *readFlight) {
	sh := rf.shard(cid)
	sh.mu.Lock()
	f.stale = true
	delete(sh.m, cid)
	sh.mu.Unlock()
	f.done.Done()
}

// invalidate marks any in-flight read of cid stale. Called from the commit
// path, under the store mutex, for every chunk a sealed batch wrote or
// deallocated.
func (rf *readFlights) invalidate(cid ChunkID) {
	sh := rf.shard(cid)
	sh.mu.Lock()
	if f := sh.m[cid]; f != nil {
		f.stale = true
	}
	sh.mu.Unlock()
}

// wait blocks until a joined flight is released and returns a private copy
// of its result. stale reports that the result must not be used: a commit
// superseded it mid-read, or its leader abandoned it.
func (f *readFlight) wait() (data []byte, err error, stale bool) {
	f.done.Wait()
	if f.stale {
		return nil, nil, true
	}
	return append([]byte(nil), f.data...), f.err, false
}

// mix64 is the splitmix64 finalizer, spreading sequential chunk ids across
// shards.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
