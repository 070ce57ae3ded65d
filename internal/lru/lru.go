// Package lru implements a shared least-recently-used cache pool.
//
// TDB maintains one LRU list shared between the caches of different layers —
// the object store's object cache and the chunk store's cache of location
// map nodes — so that the total cache budget is dynamically apportioned to
// whichever cache needs it (paper §4.2.2). This package provides that shared
// list: owners register entries with a size and an eviction callback; when
// the pool exceeds its budget, the least recently used unpinned entries are
// evicted through their callbacks.
package lru

import (
	"container/list"
	"sync"
)

// Entry is a cache resident registered with a Pool. The zero value is not
// usable; create entries through Pool.Add.
type Entry struct {
	pool *Pool
	elem *list.Element
	// parked reports that elem lives on the pool's parked list rather than
	// its LRU list.
	parked bool
	size   int64
	pins   int
	// evict is called with the pool's lock held when the pool discards the
	// entry. It must drop the owner's reference and must not call back
	// into the pool. Returning false vetoes the eviction (e.g., a map node
	// with cached children); the pool then parks this entry.
	evict func() bool
}

// Pool is a fixed-budget LRU list. Its bookkeeping is guarded by its own
// lock, because the layers sharing one pool serialize on different
// mutexes; the eviction callbacks run under that lock.
//
// Entries that cannot be evicted when enforcement reaches them (pinned, or
// vetoing because their owner still needs them — dirty objects, dirty map
// nodes) move to a parked list that enforcement never scans. A parked entry
// returns to the LRU list when it is touched, when its last pin drops, or
// when its owner calls Unpark after making it evictable again (a checkpoint
// cleaning the map). Each vetoing entry thus costs one evict callback per
// park instead of one per enforcement pass.
type Pool struct {
	mu     sync.Mutex
	budget int64
	used   int64
	ll     *list.List // front = most recently used
	parked *list.List // front = most recently parked
}

// NewPool creates a pool with the given byte budget. A non-positive budget
// disables eviction (everything is cached).
func NewPool(budget int64) *Pool {
	return &Pool{budget: budget, ll: list.New(), parked: list.New()}
}

// Used returns the total size of resident entries, parked ones included.
func (p *Pool) Used() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// Budget returns the configured byte budget.
func (p *Pool) Budget() int64 { return p.budget }

// Len returns the number of resident entries, parked ones included.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ll.Len() + p.parked.Len()
}

// Add registers a new entry of the given size as most recently used and
// then enforces the budget. The evict callback must remove the owner's
// reference to the cached value and return true, or return false to veto.
//
// The entry being added is never evicted by its own enforcement pass: the
// caller is, by definition, about to use the value, and evicting it midway
// would hand back a reference the owner no longer tracks.
func (p *Pool) Add(size int64, evict func() bool) *Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := &Entry{pool: p, size: size, evict: evict}
	e.elem = p.ll.PushFront(e)
	p.used += size
	e.pins++
	p.enforceLocked()
	e.unpinLocked()
	return e
}

// Touch marks the entry most recently used, returning it from the parked
// list if it was parked.
func (e *Entry) Touch() {
	e.pool.mu.Lock()
	defer e.pool.mu.Unlock()
	switch {
	case e.elem == nil:
	case e.parked:
		e.pool.unparkLocked(e)
	default:
		e.pool.ll.MoveToFront(e.elem)
	}
}

// Pin prevents eviction until a matching Unpin. Pins nest.
func (e *Entry) Pin() {
	e.pool.mu.Lock()
	defer e.pool.mu.Unlock()
	e.pins++
}

// Unpin releases one pin. Dropping the last pin returns a parked entry to
// the LRU list as most recently used.
func (e *Entry) Unpin() {
	e.pool.mu.Lock()
	defer e.pool.mu.Unlock()
	e.unpinLocked()
}

func (e *Entry) unpinLocked() {
	if e.pins > 0 {
		e.pins--
		if e.pins == 0 && e.parked {
			e.pool.unparkLocked(e)
		}
	}
}

// Pinned reports whether the entry is currently pinned.
func (e *Entry) Pinned() bool {
	e.pool.mu.Lock()
	defer e.pool.mu.Unlock()
	return e.pins > 0
}

// Resize adjusts the entry's accounted size (an object grew or shrank) and
// enforces the budget.
func (e *Entry) Resize(size int64) {
	e.pool.mu.Lock()
	defer e.pool.mu.Unlock()
	if e.elem == nil {
		return
	}
	e.pool.used += size - e.size
	e.size = size
	e.pool.enforceLocked()
}

// Remove unregisters the entry without invoking its eviction callback (the
// owner is dropping it voluntarily).
func (e *Entry) Remove() {
	e.pool.mu.Lock()
	defer e.pool.mu.Unlock()
	if e.elem == nil {
		return
	}
	e.pool.used -= e.size
	if e.parked {
		e.pool.parked.Remove(e.elem)
	} else {
		e.pool.ll.Remove(e.elem)
	}
	e.elem = nil
	e.parked = false
}

// Resident reports whether the entry is still registered.
func (e *Entry) Resident() bool {
	e.pool.mu.Lock()
	defer e.pool.mu.Unlock()
	return e.elem != nil
}

// unparkLocked moves a parked entry to the front of the LRU list.
func (p *Pool) unparkLocked(e *Entry) {
	p.parked.Remove(e.elem)
	e.elem = p.ll.PushFront(e)
	e.parked = false
}

// Unpark returns every parked entry to the LRU list, behind all entries
// already there: a parked entry was at the LRU end when it was parked and
// has not been touched since, so it is older than anything on the list.
// Owners call it after making vetoing entries evictable wholesale, then
// Enforce to trim the pool back to its budget.
func (p *Pool) Unpark() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for elem := p.parked.Front(); elem != nil; {
		next := elem.Next()
		e := elem.Value.(*Entry)
		p.parked.Remove(elem)
		e.elem = p.ll.PushBack(e)
		e.parked = false
		elem = next
	}
}

// Enforce evicts least recently used, unpinned, non-vetoing entries until
// the pool fits its budget. Entries that cannot be evicted are parked, so
// the walk examines each resident at most once per park; when every
// resident is parked the pool exceeds its budget, the only sound choice
// when residents cannot be dropped.
func (p *Pool) Enforce() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.enforceLocked()
}

func (p *Pool) enforceLocked() {
	if p.budget <= 0 {
		return
	}
	for p.used > p.budget {
		elem := p.ll.Back()
		if elem == nil {
			return
		}
		e := elem.Value.(*Entry)
		evicted := e.pins == 0 && e.evict()
		p.ll.Remove(elem)
		if evicted {
			p.used -= e.size
			e.elem = nil
			continue
		}
		e.elem = p.parked.PushFront(e)
		e.parked = true
	}
}
