package chunkstore

import "fmt"

// The log cleaner (paper §3.2.1). Obsolete chunk versions accumulate in old
// segments as chunks are rewritten; the cleaner copies the still-live
// records of victim segments to the log tail and frees the victims,
// bounding database size at the configured utilization. Cleaning cost grows
// steeply with utilization — the effect Figure 11 measures.
//
// A cleaning cycle spans commits. Each post-commit step copies at most
// CleanStepBytes of live data and leaves its evacuated victims on
// cleanVictims; only the step that closes the cycle takes a checkpoint and
// frees them. Every checkpoint rewrites the whole dirty location map, and
// the map nodes it writes become the next cycle's garbage, so taking one
// checkpoint per cycle rather than one per step removes most of the
// cleaner's write volume.
//
// Safety: a segment is freed only after (a) every live record in it has
// been copied to the tail and (b) a checkpoint has durably committed the
// copies and the relocated location map. Until then the victim stays on
// disk, so a crash in an open cycle recovers to a map that points either at
// the victim or at a replayed copy. This also subsumes the paper's
// nondurable-commit pin (§3.2.2): versions obsoleted by a nondurable commit
// are never reclaimed before the next durable commit, because a cycle
// closes with a durable checkpoint.

// maxCycleVictims caps how many evacuated segments one cycle holds back
// from the free list; the closing checkpoint's segment table and the disk
// held by pending victims both grow with it.
const maxCycleVictims = 64

// targetDiskBytes returns the permitted total log size for the current
// amount of live data.
func (s *Store) targetDiskBytes() int64 {
	live := s.segs.totalLive()
	target := int64(float64(live) / s.cfg.MaxUtilization)
	// Always allow slack of two segments so a small database does not
	// thrash.
	slack := int64(2 * s.cfg.SegmentSize)
	if target < slack {
		target = slack
	}
	return target + int64(s.cfg.SegmentSize)
}

// cleanTriggerBytes returns the size at which post-commit cleaning starts.
// The gap above targetDiskBytes provides hysteresis: each cleaning cycle
// ends with a (costly) checkpoint, so cycles must be infrequent and do a
// batch of work, not fire on every commit that nudges past the target.
func (s *Store) cleanTriggerBytes() int64 {
	target := s.targetDiskBytes()
	slack := target / 4
	if min := int64(8 * s.cfg.SegmentSize); slack < min {
		slack = min
	}
	return target + slack
}

// mapDirtyCapped reports that the dirty location map fills half the shared
// cache budget. Dirty nodes cannot be evicted, so an open cycle that kept
// relocating records would crowd the object cache out of the pool; closing
// the cycle writes them and makes them evictable again.
func (s *Store) mapDirtyCapped() bool {
	budget := s.cfg.CachePool.Budget()
	return budget > 0 && s.lm.dirtyBytes >= budget/2
}

// cleanLocked runs one step of a cleaning cycle, opening a cycle when the
// log has outgrown its trigger size. The step evacuates victim segments
// until it has copied copyBudget bytes of live data, then returns with the
// cycle open. The cycle closes — one checkpoint publishes every relocation
// and frees the victims — once the store is back at its size target, no
// victim is eligible, maxCycleVictims are pending, or the dirty location
// map reaches half the cache budget. In aggressive (idle) mode the cycle
// compacts every segment holding garbage, regardless of the size target.
func (s *Store) cleanLocked(copyBudget int64, aggressive bool) error {
	if len(s.cleanVictims) == 0 && !aggressive && s.segs.totalSize() <= s.cleanTriggerBytes() {
		return nil
	}
	if s.cleanClosing {
		// A previous close failed after deciding to close; retry it before
		// choosing more victims.
		return s.closeCleanCycleLocked()
	}
	// Like every append-capable operation, cleaning must first discard the
	// orphaned tail of a failed commit; relocated records appended after it
	// would be truncated away by the next commit's rewind.
	if err := s.completePendingRewindLocked(); err != nil {
		return err
	}
	// Cleaning is a flush point: evacuation copies records between segments
	// and frees victims, which is simplest to reason about (and to scrub
	// afterwards) when the tail holds no buffered suffix.
	if err := s.segs.flushLocked(); err != nil {
		return err
	}
	chosen := make(map[uint64]bool, len(s.cleanVictims))
	var freedPlanned int64
	for _, num := range s.cleanVictims {
		chosen[num] = true
		if seg := s.segs.segs[num]; seg != nil {
			freedPlanned += seg.size
		}
	}
	evacuated := false
	checkpointed := false
	for copyBudget > 0 {
		if len(s.cleanVictims) >= maxCycleVictims ||
			(!aggressive && s.segs.totalSize()-freedPlanned <= s.targetDiskBytes()) {
			s.cleanClosing = true
			break
		}
		num, ok, blocked := s.pickVictim(aggressive, chosen)
		if !ok {
			if !blocked || checkpointed {
				s.cleanClosing = true
				break
			}
			// Eligible garbage exists but lies at or after the last
			// checkpoint; one checkpoint unblocks it.
			if err := s.checkpointLocked(); err != nil {
				return err
			}
			checkpointed = true
			continue
		}
		seg := s.segs.segs[num]
		liveBefore := seg.live
		if err := s.evacuate(seg); err != nil {
			return err
		}
		copyBudget -= liveBefore
		chosen[num] = true
		s.cleanVictims = append(s.cleanVictims, num)
		freedPlanned += seg.size
		evacuated = true
		s.statCleanings++
	}
	if evacuated {
		// Evacuation relocated live records, so off-mutex reads planned
		// against the pre-step map must fail revalidation and retry (their
		// pinned old segment stays readable until they unpin; see
		// segment.readers).
		s.locEpoch.Add(1)
	}
	// The dirty-map bound is checked after the step's work, so a cycle
	// opened over an already large dirty map still makes one step of
	// progress before its checkpoint.
	if s.mapDirtyCapped() {
		s.cleanClosing = true
	}
	if !s.cleanClosing {
		return nil
	}
	return s.closeCleanCycleLocked()
}

// closeCleanCycleLocked closes the open cleaning cycle: it durably publishes
// the relocations, then frees the victims. The checkpoint defers its
// superblock fsync, but the victims cannot be freed under a stale durable
// anchor — recovery would chase the old checkpoint's segment table into the
// freed files — so the deferred sync is paid here, before any segment is
// unlinked. A victim an open snapshot still pins is left on disk as 0-live
// garbage for a later cycle. On error the cycle stays closing and the next
// step retries.
func (s *Store) closeCleanCycleLocked() error {
	if len(s.cleanVictims) == 0 {
		s.cleanClosing = false
		return nil
	}
	if err := s.checkpointLocked(); err != nil {
		return err
	}
	if err := s.syncSuperIfDirtyLocked(); err != nil {
		return err
	}
	pin := s.minPinnedSegment()
	for _, num := range s.cleanVictims {
		seg := s.segs.segs[num]
		if seg == nil {
			continue // freed by an earlier, partly failed close
		}
		if seg.live != 0 {
			return fmt.Errorf("%w: victim segment %d still has %d live bytes", ErrTampered, num, seg.live)
		}
		if pin != ^uint64(0) && num <= pin {
			continue
		}
		if err := s.segs.free(num); err != nil {
			return err
		}
	}
	s.cleanVictims = s.cleanVictims[:0]
	s.cleanClosing = false
	s.statCleanCycles++
	return nil
}

// minPinnedSegment returns the lowest segment number that open snapshots
// still pin (everything at or below their creation tail), or MaxUint64 when
// no snapshot is open.
func (s *Store) minPinnedSegment() uint64 {
	pin := uint64(1<<63 - 1)
	first := true
	for snap := range s.snapshots {
		if first || snap.tailSeg < pin {
			pin = snap.tailSeg
			first = false
		}
	}
	if first {
		return ^uint64(0)
	}
	return pin
}

// pickVictim selects the lowest-utilization eligible segment not yet
// chosen. blocked reports that garbage exists but only at or after the last
// checkpoint (recovery could still replay from it, so it cannot be freed
// until a checkpoint advances past it).
func (s *Store) pickVictim(aggressive bool, chosen map[uint64]bool) (uint64, bool, bool) {
	pin := s.minPinnedSegment()
	best := uint64(0)
	bestUtil := 2.0
	blocked := false
	for num, seg := range s.segs.segs {
		if chosen[num] || !seg.sealed || (pin != ^uint64(0) && num <= pin) {
			continue
		}
		if seg.live >= seg.size-segHeaderSize {
			continue // fully live: evacuation would only rewrite data
		}
		// Profitability bound: evacuating a segment denser than the target
		// utilization costs more in copies than it frees; let it decay
		// first. Idle (aggressive) compaction takes anything with garbage.
		if !aggressive && float64(seg.live) > s.cfg.MaxUtilization*float64(seg.size) {
			continue
		}
		if num >= s.lastCkpt.Seg {
			blocked = true
			continue
		}
		util := float64(seg.live) / float64(seg.size)
		if util < bestUtil || (util == bestUtil && num < best) {
			best, bestUtil = num, util
		}
	}
	if bestUtil > 1.5 {
		return 0, false, blocked
	}
	return best, true, false
}

// evacuate copies every live record of seg to the log tail, updating the
// location map. Records are validated before copying so that tampering in
// cold segments is caught rather than propagated.
func (s *Store) evacuate(seg *segment) error {
	start := position{seg: seg.num, off: segHeaderSize}
	copied := int64(0)
	end, err := s.scanLog(start, func(loc Location, typ byte, body []byte) (bool, error) {
		if loc.Seg != seg.num {
			return false, nil
		}
		switch typ {
		case recWrite:
			cid, _, err := parseWriteRecord(body)
			if err != nil {
				return false, err
			}
			cur, err := s.lm.get(cid)
			if err != nil {
				return false, err
			}
			if cur.loc != loc {
				return true, nil // obsolete version
			}
			if _, err := s.writeRecordCiphertext(cid, cur, typ, body); err != nil {
				return false, err
			}
			// Copy the record verbatim: the ciphertext (and thus the hash)
			// is unchanged, only the location moves.
			rec := encodeRecord(recWrite, body)
			newLoc, err := s.segs.append(rec, s.cfg.SegmentSize)
			if err != nil {
				return false, err
			}
			if _, err := s.lm.set(cid, entry{loc: newLoc, hash: cur.hash}); err != nil {
				return false, err
			}
			s.adjustLive(newLoc, int64(newLoc.Len))
			s.adjustLive(loc, -int64(loc.Len))
			s.residualBytes += int64(newLoc.Len)
			copied += int64(newLoc.Len)
		case recMapNode:
			level, index, ciphertext, err := parseMapNodeRecord(body)
			if err != nil {
				return false, fmt.Errorf("%w: %v", ErrTampered, err)
			}
			live, err := s.nodeLiveAt(level, index, loc)
			if err != nil {
				return false, err
			}
			if !live {
				return true, nil
			}
			// Validate the stored copy, then relocate the node by writing
			// its CURRENT in-memory serialization (the stored copy may be a
			// stale version of a node that is dirty in memory; copying the
			// stale bytes forward would fork memory and disk).
			if _, err := s.suite.Decrypt(ciphertext); err != nil {
				return false, fmt.Errorf("%w: decrypting map node during cleaning: %v", ErrTampered, err)
			}
			node, err := s.cachedNodeAt(level, index)
			if err != nil {
				return false, err
			}
			cur := node.serialize()
			// Reserve a fresh IV generation for the re-encryption; the old
			// location-derived seed could collide with another encryption's
			// seed in the shared IV namespace.
			gen, err := s.nextIVGenLocked()
			if err != nil {
				return false, err
			}
			curCipher, err := s.suite.Encrypt(cur, gen<<ivGenBits)
			if err != nil {
				return false, fmt.Errorf("chunkstore: re-encrypting map node during cleaning: %w", err)
			}
			rec := encodeRecord(recMapNode, mapNodeRecordBody(level, index, curCipher))
			newLoc, err := s.segs.append(rec, s.cfg.SegmentSize)
			if err != nil {
				return false, err
			}
			if err := s.noteNodeWritten(level, index, newLoc, s.suite.Hash(cur)); err != nil {
				return false, err
			}
			s.residualBytes += int64(newLoc.Len)
			copied += int64(newLoc.Len)
		case recDealloc, recCheckpoint, recCommit:
			// Never live.
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	s.statCleanedBytes += copied
	if end.seg == seg.num && end.off < seg.size {
		// The byte-walk stopped at structurally invalid bytes mid-segment.
		// That is not the end of the segment's data: a record corrupted at
		// rest and since healed by Repair leaves garbage bytes here while
		// records beyond it may still be live, and a corrupted length field
		// means the walk cannot even find the next boundary. Fall back to
		// evacuating by the location map, which is the authority on what is
		// live regardless of the bytes in between.
		return s.evacuateDamaged(seg)
	}
	return nil
}

// evacuateDamaged relocates the remaining live records of a segment whose
// linear byte-walk is broken by structurally invalid bytes. Every chunk
// entry the location map still places in the segment is copied out after
// validation against its Merkle hash, and every live map node stored there
// is marked dirty so the cleaning cycle's closing checkpoint rewrites it at
// the tail (with its usual liveness accounting). Chunks whose records fail
// validation abort the clean with ErrTampered — they need Scrub and Repair
// first.
func (s *Store) evacuateDamaged(seg *segment) error {
	type liveChunk struct {
		cid ChunkID
		e   entry
	}
	// Collect first: relocation mutates the map being walked.
	var chunks []liveChunk
	if err := s.lm.forEachEntry(s.lm.root, func(cid ChunkID, e entry) error {
		if e.loc.Seg == seg.num {
			chunks = append(chunks, liveChunk{cid, e})
		}
		return nil
	}); err != nil {
		return err
	}
	for _, c := range chunks {
		ciphertext, err := s.readCipherAtLocked(c.cid, c.e)
		if err != nil {
			return err
		}
		rec := encodeRecord(recWrite, writeRecordBody(c.cid, ciphertext))
		newLoc, err := s.segs.append(rec, s.cfg.SegmentSize)
		if err != nil {
			return err
		}
		if _, err := s.lm.set(c.cid, entry{loc: newLoc, hash: c.e.hash}); err != nil {
			return err
		}
		s.adjustLive(newLoc, int64(newLoc.Len))
		s.adjustLive(c.e.loc, -int64(c.e.loc.Len))
		s.residualBytes += int64(newLoc.Len)
		s.statCleanedBytes += int64(newLoc.Len)
	}
	return s.dirtyNodesIn(seg.num)
}

// dirtyNodesIn marks every live location-map node stored in segment num
// dirty, loading children only along branches whose stored copies lie in
// that segment. dirtyNodes() propagates the mark to ancestors, so the next
// checkpoint relocates the marked nodes and updates their parents.
func (s *Store) dirtyNodesIn(num uint64) error {
	var walk func(n *mapNode) error
	walk = func(n *mapNode) error {
		if !n.loc.IsZero() && n.loc.Seg == num {
			s.lm.markDirty(n)
		}
		if n.level == 0 {
			return nil
		}
		for i := range n.entries {
			kid := n.kids[i]
			if kid == nil {
				if n.entries[i].isEmpty() || n.entries[i].loc.Seg != num {
					continue
				}
				var err error
				kid, err = s.lm.loadChild(n, i)
				if err != nil {
					return err
				}
			}
			if err := walk(kid); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(s.lm.root)
}

// cachedNodeAt returns the in-memory node at (level,index), loading it from
// its current stored copy if necessary. The caller must have established
// that the node is live in the current tree.
func (s *Store) cachedNodeAt(level int, index uint64) (*mapNode, error) {
	m := s.lm
	if level == m.height && index == 0 {
		return m.root, nil
	}
	cid := ChunkID(index * m.span(level))
	n := m.root
	for n.level > level {
		i := m.childIndex(cid, n.level)
		kid := n.kids[i]
		if kid == nil {
			var err error
			kid, err = m.loadChild(n, i)
			if err != nil {
				return nil, err
			}
		}
		n = kid
	}
	if n.level != level || n.index != index {
		return nil, fmt.Errorf("%w: node lookup for (%d,%d) reached (%d,%d)", ErrTampered, level, index, n.level, n.index)
	}
	return n, nil
}

// nodeLiveAt reports whether the stored copy of map node (level,index) at
// loc is the current one.
func (s *Store) nodeLiveAt(level int, index uint64, loc Location) (bool, error) {
	m := s.lm
	if level > m.height {
		return false, nil
	}
	if level == m.height && index == 0 {
		return m.root.loc == loc, nil
	}
	if level == m.height {
		return false, nil
	}
	cid := ChunkID(index * m.span(level))
	if uint64(cid) >= m.capacity() {
		return false, nil
	}
	n := m.root
	for n.level > level+1 {
		i := m.childIndex(cid, n.level)
		kid := n.kids[i]
		if kid == nil {
			if n.entries[i].isEmpty() {
				return false, nil
			}
			var err error
			kid, err = m.loadChild(n, i)
			if err != nil {
				return false, err
			}
		}
		n = kid
	}
	return n.entries[m.childIndex(cid, level+1)].loc == loc, nil
}
