package chunkstore

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"tdb/internal/sec"
)

// The read protocol (DESIGN.md §7.7, §7.8). The paper's chunk store has one
// read operation: Read(cid) returns the chunk's last committed state after
// checking it against the Merkle tree. Here Read is a one-element ReadBatch,
// and both run one loop (read) over the distinct chunks asked for, in
// rounds:
//
//  1. Cache. One pass over the sharded read cache (readCached).
//  2. Plan. One shared-lock section claims each miss's flight or joins the
//     one another reader holds (readflight.go), and snapshots a plan for
//     each claimed chunk (planRound, planReadLocked).
//  3. Run. The coalesced worker pool fetches, validates and decrypts the
//     plans with no lock held (runPlans); each revalidates and publishes
//     through finishRead, then completes its flight, or abandons it if the
//     plan went stale.
//  4. Wait. Only now, holding no claim, does the reader wait on the flights
//     it joined (settleRound): the deadlock rule of readflight.go.
//
// Stale plans, abandoned or superseded flights, and planning-time damage the
// exclusive-lock check did not confirm go to the next round; readRounds
// bounds the rounds. Two cases take the one slow path, readLocked under the
// exclusive lock: a chunk whose map node is not resident (loading it needs
// I/O and LRU mutation), and a chunk still unresolved when the budget runs
// out. A batch's publications are tagged as prefetched, which is where the
// scan pipeline meets point reads: the iterator prefetches a window ahead,
// and the dereference a moment later is a cache hit.

// BatchRead is one chunk's result in a ReadBatch: the validated plaintext
// in Data when Err is nil, or a per-chunk error with the same taxonomy as
// Read. A chunk another reader had in flight is never left unresolved.
type BatchRead struct {
	CID  ChunkID
	Data []byte
	Err  error
}

// readRounds bounds the rounds a read spends on a chunk that keeps losing
// races — with the cleaner, a commit, or an abandoned flight — before it
// takes the slow path. Losing twice in a row already requires back-to-back
// relocations of the same chunk mid-read.
const readRounds = 4

// coalesceMax bounds the byte size of one merged segment read, holes
// included, keeping a single worker's buffer (and the latency before its
// first record is delivered) bounded no matter how long a run is.
const coalesceMax = 1 << 20

// coalesceGap is the largest run of bytes between two wanted records that a
// merged read transfers rather than skips. In a log-structured store those
// bytes are mostly dead records that later commits superseded. On the
// paper's §7.2 disk a reposition costs a short seek plus a rotation
// (~4.4 ms), which is ~88 KiB of transfer at 20 MB/s, so reading through any
// smaller hole is cheaper than paying a second read for the next record.
const coalesceGap = 64 << 10

// Read returns the last committed state of cid (paper Figure 2); the
// returned slice is the caller's. It signals ErrNotWritten for ids without
// committed state and ErrTampered (as ErrDegraded, quarantining the chunk)
// if the stored chunk fails validation against the Merkle tree.
//
// Read is a one-element ReadBatch whose result is not tagged as
// prefetched. A read-cache hit completes without the state mutex. A miss
// runs the round protocol above: it follows any reader already fetching the
// chunk, and otherwise does the segment I/O, hash validation and decryption
// with no lock held. Only a chunk whose map node is not resident, or one
// that loses the race with relocating writers readRounds times, serializes
// under the exclusive lock.
func (s *Store) Read(cid ChunkID) ([]byte, error) {
	r := [1]BatchRead{{CID: cid}}
	s.read(r[:], false)
	return r[0].Data, r[0].Err
}

// ReadBatch reads every chunk of cids, returning per-chunk results in the
// same order (duplicates are allowed and share one resolution). Each result
// is the chunk's data or an error with Read's error classes: a chunk another
// reader already has in flight is followed, and a per-chunk failure is
// reported rather than aborting the batch — a scan hint must never fail
// harder than the dereference it accelerates. Chunks the batch fetches are
// published into the read cache tagged as prefetched, so the hit/wasted
// telemetry can attribute them.
func (s *Store) ReadBatch(cids []ChunkID) []BatchRead {
	res := make([]BatchRead, len(cids))
	for i, cid := range cids {
		res[i].CID = cid
	}
	s.read(res, true)
	return res
}

// readSlot is one distinct chunk a read has not resolved yet, with what it
// holds in the current round: the plan of a flight it claimed, or a flight
// it joined.
type readSlot struct {
	idx  int // into the results
	plan *readPlan
	join *readFlight
}

// read resolves every entry of res (CIDs filled in) through the round
// protocol described at the top of this file. prefetch tags the read-cache
// publications and counts fetched chunks in Stats.PrefetchedChunks.
func (s *Store) read(res []BatchRead, prefetch bool) {
	// Duplicate ids collapse onto one slot; aliases copy its result at the
	// end. A point read's one slot stays on the stack.
	var one [1]readSlot
	pending := one[:0]
	var first map[ChunkID]int
	var aliases [][2]int
	for i := range res {
		if len(res) > 1 {
			if j, dup := first[res[i].CID]; dup {
				aliases = append(aliases, [2]int{i, j})
				continue
			}
			if first == nil {
				first = make(map[ChunkID]int, len(res))
			}
			first[res[i].CID] = i
		}
		pending = append(pending, readSlot{idx: i})
	}
	var slow []int
	for round := 0; ; round++ {
		if pending = s.readCached(res, pending); len(pending) == 0 {
			break
		}
		if round == readRounds {
			for _, sl := range pending {
				slow = append(slow, sl.idx)
			}
			break
		}
		s.runPlans(s.planRound(res, pending, &slow, prefetch))
		pending = s.settleRound(res, pending, prefetch)
	}
	for _, i := range slow {
		s.readSlow.Add(1)
		s.mu.Lock()
		res[i].Data, res[i].Err = s.readLocked(res[i].CID, prefetch)
		s.mu.Unlock()
		if prefetch && res[i].Err == nil {
			s.prefetchedChunks.Add(1)
		}
	}
	for _, a := range aliases {
		res[a[0]].Data, res[a[0]].Err = res[a[1]].Data, res[a[1]].Err
	}
}

// readCached is step 1: it serves pending chunks from the read cache and
// returns the misses (reusing pending's array).
func (s *Store) readCached(res []BatchRead, pending []readSlot) []readSlot {
	misses := pending[:0]
	for _, sl := range pending {
		if data, ok := s.rcache.get(res[sl.idx].CID); ok {
			res[sl.idx].Data = data
		} else {
			misses = append(misses, sl)
		}
	}
	return misses
}

// planRound is step 2: under one shared-lock section it claims or joins the
// flight of every pending chunk and plans each claimed one. A definite
// per-chunk error (closed, not written, not allocated, quarantined) is
// recorded in res and completes the claimed flight with it; a chunk whose
// map node is not resident abandons its claim and is appended to slow. The
// lock order is Store.mu → flightShard.mu, the commit path's order.
func (s *Store) planRound(res []BatchRead, pending []readSlot, slow *[]int, prefetch bool) []*readPlan {
	var plans []*readPlan
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k := range pending {
		sl := &pending[k]
		p, joined := s.flights.claim(res[sl.idx].CID)
		sl.plan, sl.join = nil, joined
		if joined != nil {
			continue
		}
		p.prefetch = prefetch
		resident, err := s.planReadLocked(p)
		switch {
		case !resident:
			s.flights.abandon(p.cid, &p.flight)
			*slow = append(*slow, sl.idx)
		case err != nil:
			s.flights.complete(p.cid, &p.flight, nil, err)
			res[sl.idx].Err = err
		default:
			sl.plan = p
			plans = append(plans, p)
		}
	}
	return plans
}

// runPlans is step 3: it runs the claimed plans, coalescing adjacent
// records, on a bounded worker pool. The calling goroutine is one of the
// workers, so a single-task round (or a store configured with
// PrefetchWorkers=1) runs inline with no goroutine at all. Every plan has
// completed or abandoned its flight when runPlans returns.
func (s *Store) runPlans(plans []*readPlan) {
	if len(plans) == 1 {
		s.runBatchTask(plans)
		return
	}
	tasks := coalescePlans(plans)
	workers := min(s.cfg.PrefetchWorkers, len(tasks))
	var next atomic.Int64
	run := func() {
		for {
			n := int(next.Add(1)) - 1
			if n >= len(tasks) {
				return
			}
			s.runBatchTask(tasks[n])
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < workers-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// settleRound is step 4: it copies the results of the plans this round
// completed, waits on the flights it joined, and returns the chunks left for
// the next round (reusing pending's array).
func (s *Store) settleRound(res []BatchRead, pending []readSlot, prefetch bool) []readSlot {
	next := pending[:0]
	for _, sl := range pending {
		r := &res[sl.idx]
		switch {
		case sl.plan != nil && !sl.plan.stale:
			r.Data, r.Err = sl.plan.data, sl.plan.err
			if prefetch && r.Err == nil {
				s.prefetchedChunks.Add(1)
			}
		case sl.join != nil:
			var stale bool
			if r.Data, r.Err, stale = sl.join.wait(); stale {
				next = append(next, sl)
			}
		case sl.plan != nil:
			next = append(next, sl)
		}
	}
	return next
}

// coalescePlans groups plans into worker tasks, merging runs of records
// that lie close together in one segment file into a single task fetched
// with one large ReadAt. Only fully file-backed plans coalesce: a plan whose
// record still partially lives in the write-behind buffer already carries
// those bytes and reads only its own prefix. It sorts plans in place.
func coalescePlans(plans []*readPlan) [][]*readPlan {
	slices.SortFunc(plans, planCompare)
	var tasks [][]*readPlan
	for _, p := range plans {
		if n := len(tasks); n > 0 && canCoalesce(tasks[n-1], p) {
			tasks[n-1] = append(tasks[n-1], p)
			continue
		}
		tasks = append(tasks, []*readPlan{p})
	}
	return tasks
}

// planCompare orders plans by (segment, offset).
func planCompare(a, b *readPlan) int {
	if c := cmp.Compare(a.e.loc.Seg, b.e.loc.Seg); c != 0 {
		return c
	}
	return cmp.Compare(a.e.loc.Off, b.e.loc.Off)
}

// canCoalesce reports whether p extends the task's run: same segment,
// record starting at most coalesceGap bytes after the run ends, both sides
// fully file-backed, and the merged span, holes included, still within
// coalesceMax. Bytes below the write-behind offset are flushed and never
// rewritten, so a span between two file-backed records is stable to read.
// A plan that found damage while planning has no segment and runs alone.
func canCoalesce(t []*readPlan, p *readPlan) bool {
	last := t[len(t)-1]
	if p.seg == nil || p.seg != last.seg || p.fromFile != int64(len(p.buf)) || last.fromFile != int64(len(last.buf)) {
		return false
	}
	gap := int64(p.e.loc.Off) - (int64(last.e.loc.Off) + int64(last.e.loc.Len))
	if gap < 0 || gap > coalesceGap {
		return false
	}
	span := int64(p.e.loc.Off) + int64(p.e.loc.Len) - int64(t[0].e.loc.Off)
	return span <= coalesceMax
}

// runBatchTask fetches one task. A coalesced run pays a single segment read
// over the span from its first record's start to its last record's end and
// copies each member's record out by its own offset; the hole bytes between
// members are dropped unparsed. Each member then validates and completes
// individually, so one damaged record in a run degrades only its own chunk,
// and damage inside a hole degrades none.
func (s *Store) runBatchTask(t []*readPlan) {
	if len(t) > 1 {
		first, last := t[0], t[len(t)-1]
		base := int64(first.e.loc.Off)
		big := make([]byte, int64(last.e.loc.Off)+int64(last.e.loc.Len)-base)
		if err := s.segs.fileReadAt(first.seg, big, base); err != nil {
			// The merged read failed as a whole; complete every member with
			// the I/O error (finishRead releases the segment pins).
			for _, p := range t {
				s.finishRead(p, nil, err)
			}
			return
		}
		for _, p := range t {
			copy(p.buf, big[int64(p.e.loc.Off)-base:])
			p.fromFile = 0 // bytes are in hand; executeRead skips the file
		}
		s.coalescedReads.Add(1)
		s.coalescedChunks.Add(int64(len(t)))
	}
	for _, p := range t {
		plain, rerr := s.executeRead(p)
		s.finishRead(p, plain, rerr)
	}
}

// readPlan is the shared-lock snapshot one cache-miss read validates
// against: the chunk's map entry, its pinned segment, the epoch stamp, and
// a buffer pre-filled with any record bytes still in the write-behind
// buffer (those may be trimmed after the lock is released; flushed bytes
// below the buffer are immutable once published). It embeds the flight its
// reader leads for the chunk (see claim), and carries the outcome back to
// the round.
type readPlan struct {
	cid ChunkID
	e   entry
	seg *segment
	buf []byte
	// fromFile is the prefix of buf the off-lock step must read from the
	// segment file; buf[fromFile:] was copied from the write-behind buffer
	// under the lock.
	fromFile int64
	stamp    uint64
	// damage is the integrity failure planning found in the entry itself
	// (dangling segment reference, out-of-bounds record). Such a plan has no
	// segment; it completes through finishRead, which confirms and
	// quarantines.
	damage error
	// prefetch marks a plan issued on behalf of a prefetch hint: its cache
	// publication is tagged so the hit/wasted telemetry can tell prefetched
	// entries from ones point reads fetched for themselves.
	prefetch bool
	flight   readFlight
	// data and err are the outcome finishRead recorded; stale marks a plan
	// whose snapshot it rejected.
	data  []byte
	err   error
	stale bool
}

// planReadLocked fills p with everything an off-lock read of p.cid needs.
// It reports resident=false when the chunk's map node is not in memory —
// only the slow path may load it — and returns the definite per-chunk
// errors (closed, not written, not allocated, quarantined). Damage in the
// entry itself is left in p.damage. Caller holds s.mu (shared suffices).
func (s *Store) planReadLocked(p *readPlan) (resident bool, err error) {
	if s.closed.Load() {
		return true, ErrClosed
	}
	e, resident := s.lm.getCached(p.cid)
	if !resident {
		return false, nil
	}
	if err := s.unreadableLocked(p.cid, e); err != nil {
		return true, err
	}
	p.e, p.stamp = e, s.locEpoch.Load()
	seg, ok := s.segs.segs[e.loc.Seg]
	if !ok {
		p.damage = fmt.Errorf("%w: reference to missing segment %d", ErrTampered, e.loc.Seg)
		return true, nil
	}
	if int64(e.loc.Off)+int64(e.loc.Len) > seg.size || e.loc.Len < recordHeaderSize {
		p.damage = fmt.Errorf("%w: record %v out of segment bounds", ErrTampered, e.loc)
		return true, nil
	}
	p.buf = make([]byte, e.loc.Len)
	p.fromFile = int64(len(p.buf))
	off := int64(e.loc.Off)
	if ss := s.segs; seg == ss.wbSeg && len(ss.wb) > 0 && off+int64(len(p.buf)) > ss.wbOff {
		// Part of the record still lives in the write-behind buffer, which
		// may flush or rewind once the lock drops: copy that suffix now.
		// The flushed prefix below wbOff is stable — published record bytes
		// are never rewritten, and rewind only discards unpublished tails.
		p.fromFile = 0
		if off < ss.wbOff {
			p.fromFile = ss.wbOff - off
		}
		if start := off + p.fromFile - ss.wbOff; start < int64(len(ss.wb)) {
			copy(p.buf[p.fromFile:], ss.wb[start:])
		}
	}
	// Pin the segment so the cleaner cannot close its file handle while the
	// off-lock read is using it (free defers the close to the last unpin).
	seg.readers.Add(1)
	p.seg = seg
	return true, nil
}

// unreadableLocked returns the error a read of cid at entry e reports
// without touching storage — not written, not allocated, or quarantined —
// or nil. Caller holds s.mu.
func (s *Store) unreadableLocked(cid ChunkID, e entry) error {
	if e.isEmpty() {
		if s.alloc.isAllocated(cid) {
			return fmt.Errorf("%w: %d", ErrNotWritten, cid)
		}
		return fmt.Errorf("%w: %d", ErrNotAllocated, cid)
	}
	if reason, ok := s.quarantine[cid]; ok {
		return quarantinedErr(cid, reason)
	}
	return nil
}

// quarantinedErr is the error a read of a quarantined chunk returns.
func quarantinedErr(cid ChunkID, reason string) error {
	return degradedReadErr(cid, fmt.Errorf("quarantined: %s (%w)", reason, ErrTampered))
}

// executeRead runs the expensive half of a cache-miss read — segment I/O,
// record parsing, Merkle hash validation, decryption — with no lock held.
func (s *Store) executeRead(p *readPlan) ([]byte, error) {
	if p.seg == nil {
		return nil, p.damage
	}
	if p.fromFile > 0 {
		if err := s.segs.fileReadAt(p.seg, p.buf[:p.fromFile], int64(p.e.loc.Off)); err != nil {
			return nil, err
		}
	}
	typ, body, err := parseRecordBytes(p.e.loc, p.buf)
	if err != nil {
		return nil, err
	}
	ciphertext, err := s.writeRecordCiphertext(p.cid, p.e, typ, body)
	if err != nil {
		return nil, err
	}
	return s.decryptChunk(p.cid, ciphertext)
}

// finishRead revalidates a completed off-lock read under the shared lock,
// publishes its result, records the outcome in p, and releases p's flight:
// complete with the outcome, or abandon when the snapshot went stale (the
// cleaner or a commit moved the record mid-read), which leaves the chunk for
// the next round. A stale read's outcome — success or failure — is
// discarded, because it was computed against bytes that may no longer be
// the chunk's current version.
func (s *Store) finishRead(p *readPlan, plain []byte, rerr error) {
	s.mu.RLock()
	if p.seg != nil {
		s.segs.unpinReaderLocked(p.seg)
	}
	closed := s.closed.Load()
	reason, quarantined := s.quarantine[p.cid]
	current := s.locEpoch.Load() == p.stamp
	if !current {
		// The epoch moved, but most movements touch other chunks: the read
		// is still good if this chunk's entry is unchanged.
		if cur, resident := s.lm.getCached(p.cid); resident && cur.loc == p.e.loc && sec.HashEqual(cur.hash, p.e.hash) {
			current = true
		}
	}
	if current && rerr == nil && !closed && !quarantined {
		s.rcache.put(p.cid, p.e.hash, plain, p.prefetch)
	}
	s.mu.RUnlock()
	switch {
	case closed:
		p.err = ErrClosed
	case quarantined:
		// A scrub quarantined the chunk while the read was in flight.
		p.err = quarantinedErr(p.cid, reason)
	case !current:
		p.stale = true
	case errors.Is(rerr, ErrTampered) && !errors.Is(rerr, ErrIO):
		// Confirm the damage under the exclusive lock. If the entry moved
		// in between, the failure was computed against a superseded
		// snapshot, not damage.
		var done bool
		p.err, done = s.failTamperedRead(p.cid, p.e, rerr)
		p.stale = !done
	default:
		p.data, p.err = plain, rerr
	}
	if p.stale {
		s.flights.abandon(p.cid, &p.flight)
		return
	}
	s.flights.complete(p.cid, &p.flight, p.data, p.err)
}

// failTamperedRead handles a validation failure from the off-lock read
// path: under the exclusive lock it confirms the failing snapshot still
// describes the chunk's current version, then quarantines. done=false means
// the entry moved mid-read — the failure was read against a stale snapshot,
// not damage — and the chunk must be read again.
func (s *Store) failTamperedRead(cid ChunkID, e entry, rerr error) (err error, done bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed, true
	}
	cur, err := s.lm.get(cid)
	if err != nil {
		return err, true
	}
	if cur.isEmpty() || cur.loc != e.loc || !sec.HashEqual(cur.hash, e.hash) {
		return nil, false
	}
	// Same damage a locked read would have found: degrade the chunk and
	// quarantine it so later reads fail fast without touching storage.
	s.quarantine[cid] = rerr.Error()
	return degradedReadErr(cid, rerr), true
}

// readLocked is the slow path: the whole read under the exclusive lock,
// which may load non-resident map nodes. prefetch tags the cache
// publication as the off-lock path would.
func (s *Store) readLocked(cid ChunkID, prefetch bool) ([]byte, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	e, err := s.lm.get(cid)
	if err != nil {
		return nil, err
	}
	if err := s.unreadableLocked(cid, e); err != nil {
		return nil, err
	}
	plain, err := s.readChunkAtLocked(cid, e)
	if err != nil {
		// Damage confined to this chunk's stored bytes degrades the chunk
		// (and quarantines it) rather than failing like whole-store
		// tampering; environmental I/O failures pass through untouched.
		if errors.Is(err, ErrTampered) && !errors.Is(err, ErrIO) {
			s.quarantine[cid] = err.Error()
			return nil, degradedReadErr(cid, err)
		}
		return nil, err
	}
	s.rcache.put(cid, e.hash, plain, prefetch)
	return plain, nil
}

// readChunkAtLocked fetches, validates, and decrypts the chunk version at e.
func (s *Store) readChunkAtLocked(cid ChunkID, e entry) ([]byte, error) {
	ciphertext, err := s.readCipherAtLocked(cid, e)
	if err != nil {
		return nil, err
	}
	return s.decryptChunk(cid, ciphertext)
}

// readCipherAtLocked fetches the record at e and validates it as the
// current version of cid (writeRecordCiphertext), without decrypting. The
// slow read path, Verify, Snapshot.ForEach/Diff, scrub and the cleaner's
// damaged-segment evacuation share it.
func (s *Store) readCipherAtLocked(cid ChunkID, e entry) ([]byte, error) {
	typ, body, err := s.segs.readRecord(e.loc)
	if err != nil {
		return nil, err
	}
	return s.writeRecordCiphertext(cid, e, typ, body)
}

// writeRecordCiphertext checks a parsed record against the map entry e of
// chunk cid — record type, body framing, the chunk it names, and the
// ciphertext hash the Merkle tree authenticates — and returns the
// authenticated ciphertext. Every failure matches ErrTampered. Pure
// computation over the supplied bytes, so the off-mutex read path can call
// it with no lock held.
func (s *Store) writeRecordCiphertext(cid ChunkID, e entry, typ byte, body []byte) ([]byte, error) {
	if typ != recWrite {
		return nil, fmt.Errorf("%w: chunk %d record at %v has type %d", ErrTampered, cid, e.loc, typ)
	}
	gotCid, ciphertext, err := parseWriteRecord(body)
	if err != nil {
		return nil, err
	}
	if gotCid != cid {
		return nil, fmt.Errorf("%w: record at %v names chunk %d, want %d", ErrTampered, e.loc, gotCid, cid)
	}
	if !sec.HashEqual(s.suite.Hash(ciphertext), e.hash) {
		return nil, fmt.Errorf("%w: chunk %d fails hash validation", ErrTampered, cid)
	}
	return ciphertext, nil
}

// decryptChunk decrypts an authenticated chunk ciphertext.
func (s *Store) decryptChunk(cid ChunkID, ciphertext []byte) ([]byte, error) {
	plain, err := s.suite.Decrypt(ciphertext)
	if err != nil {
		return nil, fmt.Errorf("%w: decrypting chunk %d: %v", ErrTampered, cid, err)
	}
	return plain, nil
}
