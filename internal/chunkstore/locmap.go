package chunkstore

import (
	"fmt"

	"tdb/internal/sec"
)

// locMap is the hierarchical location map (paper §3.2.1): a radix tree over
// chunk ids whose nodes are themselves chunks written to the log at
// checkpoints. Every entry carries a one-way hash of what it points to, so
// the map doubles as the Merkle tree that authenticates the whole database.
type locMap struct {
	cs     *Store
	fanout int
	root   *mapNode
	// height is the root's level; the tree covers fanout^(height+1) ids.
	height int
	// dirtyBytes is the cache footprint of the current tree's dirty nodes:
	// what the next checkpoint must write, kept incrementally so the
	// cleaner can bound an open cycle without walking the tree.
	dirtyBytes int64
}

// span returns the number of chunk ids covered by one node at level.
func (m *locMap) span(level int) uint64 {
	s := uint64(m.fanout)
	for i := 0; i < level; i++ {
		s *= uint64(m.fanout)
	}
	return s
}

// capacity returns the number of ids the current tree covers.
func (m *locMap) capacity() uint64 { return m.span(m.height) }

// childIndex returns which slot of a level-l node covers cid.
func (m *locMap) childIndex(cid ChunkID, level int) int {
	div := uint64(1)
	for i := 0; i < level; i++ {
		div *= uint64(m.fanout)
	}
	return int((uint64(cid) / div) % uint64(m.fanout))
}

// newLocMap creates an empty map with a single leaf root.
func newLocMap(cs *Store, fanout int) *locMap {
	m := &locMap{cs: cs, fanout: fanout}
	m.root = newMapNode(0, 0, fanout)
	m.registerNode(m.root)
	return m
}

// registerNode accounts a node in the shared cache pool (and, if it is
// dirty, in dirtyBytes).
func (m *locMap) registerNode(n *mapNode) {
	size := n.memSize(m.cs.suite.HashSize())
	if n.dirty {
		m.dirtyBytes += size
	}
	n.cacheEnt = m.cs.mapCache.Add(size, func() bool { return m.evict(n) })
}

// unregisterNode removes the node from the pool without eviction; the node
// leaves the current tree (a snapshot clone replaces it).
func (m *locMap) unregisterNode(n *mapNode) {
	if n.dirty {
		m.dirtyBytes -= n.memSize(m.cs.suite.HashSize())
	}
	if n.cacheEnt != nil {
		n.cacheEnt.Remove()
		n.cacheEnt = nil
	}
}

// markDirty flags n as differing from its stored copy.
func (m *locMap) markDirty(n *mapNode) {
	if !n.dirty {
		n.dirty = true
		m.dirtyBytes += n.memSize(m.cs.suite.HashSize())
	}
}

// markClean records that n's stored copy matches its content.
func (m *locMap) markClean(n *mapNode) {
	if n.dirty {
		n.dirty = false
		m.dirtyBytes -= n.memSize(m.cs.suite.HashSize())
	}
}

// evict is the LRU callback: drop a clean, childless, non-root node from
// the current tree. Returns false to veto. The dirty-node veto is
// load-bearing for commit atomicity: rollback (restoreEntry) relies on the
// whole just-mutated path staying cached until the commit settles.
func (m *locMap) evict(n *mapNode) bool {
	if n.dirty || n.kidCount > 0 || n == m.root {
		return false
	}
	// Find the node's parent in the current tree. If the node is no longer
	// part of the current tree (cloned away by a snapshot), just let it go.
	parent := m.findParent(n)
	if parent != nil {
		idx := m.childIndex(ChunkID(n.index*m.span(n.level)), n.level+1)
		if parent.kids[idx] == n {
			parent.kids[idx] = nil
			parent.kidCount--
		}
	}
	n.cacheEnt = nil
	return true
}

// findParent descends from the root toward the node's position and returns
// the would-be parent if the node is reachable, nil otherwise. Only cached
// links are followed (no I/O).
func (m *locMap) findParent(n *mapNode) *mapNode {
	if n.level >= m.height {
		return nil
	}
	cid := ChunkID(n.index * m.span(n.level))
	cur := m.root
	for cur != nil && cur.level > n.level+1 {
		cur = cur.kids[m.childIndex(cid, cur.level)]
	}
	if cur == nil || cur.level != n.level+1 {
		return nil
	}
	return cur
}

// grow adds root levels until the tree covers cid.
func (m *locMap) grow(cid ChunkID) {
	for uint64(cid) >= m.capacity() {
		old := m.root
		newRoot := newMapNode(old.level+1, 0, m.fanout)
		newRoot.kids[0] = old
		newRoot.kidCount = 1
		newRoot.entries[0] = entry{loc: old.loc, hash: m.nodeHash(old)}
		m.root = newRoot
		m.height = newRoot.level
		m.registerNode(newRoot)
	}
}

// nodeHash returns the node's memoized content hash, recomputing it (and,
// for inner nodes, its dirty descendants' hashes) as needed.
//
//tdblint:serial locMap hashing runs under the store mutex by design; node hashes are small and memoized, unlike bulk payload crypto
func (m *locMap) nodeHash(n *mapNode) []byte {
	if !n.hashStale && n.hash != nil {
		return n.hash
	}
	if n.level > 0 {
		for i, kid := range n.kids {
			if kid != nil && kid.hashStale {
				e := entry{loc: kid.loc, hash: m.nodeHash(kid)}
				if e.loc != n.entries[i].loc || !sec.HashEqual(e.hash, n.entries[i].hash) {
					n.entries[i] = e
					m.markDirty(n)
				}
			}
		}
	}
	n.hash = m.cs.suite.Hash(n.serialize())
	n.hashStale = false
	return n.hash
}

// rootHash returns the Merkle root over the entire database.
//
//tdblint:public the Merkle root is the published tamper-evidence commitment — a one-way digest, MACed wherever it is persisted, never secret
func (m *locMap) rootHash() []byte { return m.nodeHash(m.root) }

// loadChild loads the child node at slot i of parent from the log,
// verifying its content hash against the parent entry. The caller must have
// checked that the entry is non-empty.
//
//tdblint:serial locMap paging faults map nodes in under the store mutex by design; the map is a shared index, not bulk chunk I/O
func (m *locMap) loadChild(parent *mapNode, i int) (*mapNode, error) {
	e := parent.entries[i]
	if e.loc.IsZero() {
		return nil, fmt.Errorf("%w: map node entry %d of (%d,%d) has no stored location",
			ErrTampered, i, parent.level, parent.index)
	}
	typ, body, err := m.cs.segs.readRecord(e.loc)
	if err != nil {
		return nil, err
	}
	if typ != recMapNode {
		return nil, fmt.Errorf("%w: expected map node record at %v, found type %d", ErrTampered, e.loc, typ)
	}
	level, index, ciphertext, err := parseMapNodeRecord(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	plain, err := m.cs.suite.Decrypt(ciphertext)
	if err != nil {
		return nil, fmt.Errorf("%w: decrypting map node at %v: %v", ErrTampered, e.loc, err)
	}
	if !sec.HashEqual(m.cs.suite.Hash(plain), e.hash) {
		return nil, fmt.Errorf("%w: map node at %v fails hash validation", ErrTampered, e.loc)
	}
	n, err := deserializeMapNode(plain, m.fanout)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	wantLevel, wantIndex := parent.level-1, parent.index*uint64(m.fanout)+uint64(i)
	if n.level != wantLevel || n.index != wantIndex || level != wantLevel || index != wantIndex {
		return nil, fmt.Errorf("%w: map node at %v has position (%d,%d), want (%d,%d)",
			ErrTampered, e.loc, n.level, n.index, wantLevel, wantIndex)
	}
	n.loc = e.loc
	n.hash = append([]byte(nil), e.hash...)
	n.hashStale = false
	parent.kids[i] = n
	parent.kidCount++
	m.registerNode(n)
	return n, nil
}

// pathResult is the outcome of descending to the leaf covering a cid.
type pathResult struct {
	leaf *mapNode
	slot int
}

// descend walks root→leaf for cid. With forWrite set it creates missing
// nodes and clones shared ones (copy-on-write for snapshots), marking the
// path dirty; without it, a missing child yields a nil leaf.
func (m *locMap) descend(cid ChunkID, forWrite bool) (pathResult, error) {
	if uint64(cid) >= m.capacity() {
		if !forWrite {
			return pathResult{}, nil
		}
		m.grow(cid)
	}
	if forWrite && m.root.shared {
		old := m.root
		m.root = old.clone()
		m.unregisterNode(old)
		m.registerNode(m.root)
	}
	n := m.root
	for n.level > 0 {
		i := m.childIndex(cid, n.level)
		kid := n.kids[i]
		if kid == nil {
			if n.entries[i].isEmpty() {
				if !forWrite {
					return pathResult{}, nil
				}
				kid = newMapNode(n.level-1, n.index*uint64(m.fanout)+uint64(i), m.fanout)
				n.kids[i] = kid
				n.kidCount++
				m.registerNode(kid)
			} else {
				var err error
				kid, err = m.loadChild(n, i)
				if err != nil {
					return pathResult{}, err
				}
			}
		}
		if forWrite {
			if kid.shared {
				old := kid
				kid = old.clone()
				n.kids[i] = kid
				m.unregisterNode(old)
				m.registerNode(kid)
			}
			n.hashStale = true
			m.markDirty(n)
		}
		if kid.cacheEnt != nil {
			kid.cacheEnt.Touch()
		}
		n = kid
	}
	if forWrite {
		n.hashStale = true
		m.markDirty(n)
	}
	return pathResult{leaf: n, slot: m.childIndex(cid, 0)}, nil
}

// getCached returns the leaf entry for cid walking only nodes already
// resident in memory: no I/O, no LRU touches, no mutation of any kind. It
// reports resident=false when the path to the leaf is not fully cached (the
// caller must fall back to get under the exclusive lock, which pages nodes
// in). A nil child with an empty parent entry — or a cid beyond the tree's
// capacity — is a definitive absence, not a cache miss.
//
// Safe under the store mutex in shared (read-locked) mode: every tree
// mutation — node creation, paging, eviction, entry updates, hash
// memoization — runs under the exclusive lock, and entries are replaced
// wholesale (their hash slices are never mutated in place).
func (m *locMap) getCached(cid ChunkID) (e entry, resident bool) {
	if uint64(cid) >= m.capacity() {
		return entry{}, true
	}
	n := m.root
	for n.level > 0 {
		i := m.childIndex(cid, n.level)
		kid := n.kids[i]
		if kid == nil {
			if n.entries[i].isEmpty() {
				return entry{}, true
			}
			return entry{}, false
		}
		n = kid
	}
	return n.entries[m.childIndex(cid, 0)], true
}

// get returns the leaf entry for cid (a zero entry if absent).
func (m *locMap) get(cid ChunkID) (entry, error) {
	p, err := m.descend(cid, false)
	if err != nil {
		return entry{}, err
	}
	if p.leaf == nil {
		return entry{}, nil
	}
	return p.leaf.entries[p.slot], nil
}

// set updates the leaf entry for cid and returns the previous entry.
func (m *locMap) set(cid ChunkID, e entry) (entry, error) {
	p, err := m.descend(cid, true)
	if err != nil {
		return entry{}, err
	}
	old := p.leaf.entries[p.slot]
	p.leaf.entries[p.slot] = e
	return old, nil
}

// clear removes the leaf entry for cid, returning the previous entry.
func (m *locMap) clear(cid ChunkID) (entry, error) {
	return m.set(cid, entry{})
}

// restoreEntry puts back a previous leaf entry during commit rollback. It is
// infallible by invariant: rollback only targets cids that a forward set (or
// clear) just mutated, which left every node on the path cached and dirty,
// and evict never drops dirty nodes — so this descent performs no I/O and
// cannot fail. An error here would mean the invariant is broken, which is a
// bug, not a runtime condition.
func (m *locMap) restoreEntry(cid ChunkID, e entry) {
	if _, err := m.set(cid, e); err != nil {
		panic(fmt.Sprintf("chunkstore: rollback descent for chunk %d hit I/O: %v", cid, err))
	}
}

// markShared freezes all cached nodes for a snapshot: subsequent mutations
// will clone. Returns the frozen root.
func (m *locMap) markShared() *mapNode {
	var walk func(n *mapNode)
	walk = func(n *mapNode) {
		n.shared = true
		for _, kid := range n.kids {
			if kid != nil {
				walk(kid)
			}
		}
	}
	walk(m.root)
	return m.root
}

// dirtyNodes returns all nodes the next checkpoint must write, in
// post-order (children before parents). A node needs writing when its own
// content changed or when any cached descendant does: writing the
// descendant changes its stored location, which changes this node's
// serialization too. The walk propagates dirtiness upward so ancestors are
// never skipped (skipping one would leave its stored copy pointing at a
// stale child location).
func (m *locMap) dirtyNodes() []*mapNode {
	var out []*mapNode
	var walk func(n *mapNode) bool
	walk = func(n *mapNode) bool {
		for _, kid := range n.kids {
			if kid != nil && walk(kid) {
				m.markDirty(n)
				n.hashStale = true
			}
		}
		if n.dirty {
			out = append(out, n)
		}
		return n.dirty
	}
	walk(m.root)
	return out
}

// forEachEntry invokes fn for every non-empty leaf entry reachable from
// root, loading nodes (and verifying hashes) as needed. It is used by
// Verify, the cleaner's liveness audit, and snapshot iteration. The root
// parameter may be the current root or a snapshot's frozen root.
func (m *locMap) forEachEntry(root *mapNode, fn func(cid ChunkID, e entry) error) error {
	var walk func(n *mapNode) error
	walk = func(n *mapNode) error {
		if n.level == 0 {
			base := n.index * uint64(m.fanout)
			for i, e := range n.entries {
				if e.isEmpty() {
					continue
				}
				if err := fn(ChunkID(base+uint64(i)), e); err != nil {
					return err
				}
			}
			return nil
		}
		for i := range n.entries {
			if n.entries[i].isEmpty() && n.kids[i] == nil {
				continue
			}
			kid := n.kids[i]
			if kid == nil {
				var err error
				kid, err = m.loadChild(n, i)
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
	return walk(root)
}
