// Package lru implements a shared least-recently-used cache pool.
//
// TDB maintains one LRU list shared between the caches of different layers —
// the object store's cache of committed objects and the chunk store's cache
// of location map nodes — so that the total cache budget is dynamically
// apportioned to whichever cache needs it (paper §4.2.2). Each cache is an
// Owner adding entries with a size and an eviction callback; over budget,
// the least recently used entries are evicted through their callbacks, each
// under its owner's lock: enforcement hands another owner's entry over, and
// that owner evicts it at its next Add or Enforce.
package lru

import (
	"container/list"
	"sync"
)

// Entry is a cache resident registered with a Pool. The zero value is not
// usable; create entries through Owner.Add.
type Entry struct {
	owner *Owner
	elem  *list.Element
	// on is the list elem lives on — the pool's LRU or parked list, or the
	// owner's handed list — and nil once the entry has left the pool.
	on   *list.List
	size int64
	// evict is called with the pool's lock held, inside an Add or Enforce
	// of the entry's owner. It must drop the owner's reference, take no
	// lock and not call back into the pool. Returning false vetoes the
	// eviction (e.g., a map node with cached children); the pool then parks
	// this entry.
	evict func() bool
}

// Pool is a fixed-budget LRU list. Its bookkeeping is guarded by its own
// lock, which owners take last, while holding their own.
//
// Entries that veto eviction (dirty map nodes, map nodes with cached
// children) move to a parked list that enforcement never scans. A parked
// entry returns to the LRU list when it is touched, or when an owner calls
// Unpark after making it evictable again (a checkpoint cleaning the map).
// Each vetoing entry thus costs one evict callback per park instead of one
// per enforcement pass.
type Pool struct {
	mu     sync.Mutex
	budget int64
	used   int64
	// handed is the size of the entries handed to their owners for
	// eviction; enforcement counts them as already gone.
	handed int64
	ll     *list.List // front = most recently used
	parked *list.List // front = most recently parked
}

// Owner is one cache's share of a Pool. Every call through an Owner, and
// every Touch and Remove of its entries, is made under the owner's own
// lock.
type Owner struct {
	pool *Pool
	// handed holds this owner's entries that another owner's enforcement
	// chose for eviction. Guarded by pool.mu.
	handed *list.List
}

// NewPool creates a pool with the given byte budget. A non-positive budget
// disables eviction (everything is cached).
func NewPool(budget int64) *Pool {
	return &Pool{budget: budget, ll: list.New(), parked: list.New()}
}

// NewOwner registers a cache sharing the pool.
func (p *Pool) NewOwner() *Owner {
	return &Owner{pool: p, handed: list.New()}
}

// Used returns the total size of resident entries, parked and handed ones
// included.
func (p *Pool) Used() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// Budget returns the configured byte budget.
func (p *Pool) Budget() int64 { return p.budget }

// Add registers a new entry of the given size as most recently used, after
// enforcing the budget as Enforce does. The entry being added is never
// evicted by its own Add: the caller is, by definition, about to use it.
func (o *Owner) Add(size int64, evict func() bool) *Entry {
	p := o.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	p.used += size
	o.enforceLocked()
	e := &Entry{owner: o, size: size, evict: evict}
	e.elem, e.on = p.ll.PushFront(e), p.ll
	return e
}

// Enforce evicts the entries handed to this owner, then walks the LRU end
// of the pool until it fits its budget, evicting this owner's entries and
// handing over the others'. Vetoing entries are parked, so the walk sees
// each resident at most once per park; when every resident is parked the
// pool exceeds its budget, the only sound choice.
func (o *Owner) Enforce() {
	o.pool.mu.Lock()
	defer o.pool.mu.Unlock()
	o.enforceLocked()
}

func (o *Owner) enforceLocked() {
	p := o.pool
	for elem := o.handed.Front(); elem != nil; elem = o.handed.Front() {
		o.handed.Remove(elem)
		e := elem.Value.(*Entry)
		p.handed -= e.size
		p.evictLocked(e)
	}
	for p.budget > 0 && p.used-p.handed > p.budget && p.ll.Len() > 0 {
		e := p.ll.Remove(p.ll.Back()).(*Entry)
		if e.owner == o {
			p.evictLocked(e)
			continue
		}
		e.elem, e.on = e.owner.handed.PushBack(e), e.owner.handed
		p.handed += e.size
	}
}

// evictLocked runs the callback of an entry taken off its list: the entry
// leaves the pool, or is parked if it vetoes.
func (p *Pool) evictLocked(e *Entry) {
	if e.evict() {
		p.used -= e.size
		e.elem, e.on = nil, nil
		return
	}
	e.elem, e.on = p.parked.PushFront(e), p.parked
}

// Touch marks the entry most recently used, returning it from the parked
// list or taking it back from its owner's handed list.
func (e *Entry) Touch() {
	p := e.owner.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	switch e.on {
	case nil:
	case p.ll:
		p.ll.MoveToFront(e.elem)
	default:
		e.unlinkLocked()
		e.elem, e.on = p.ll.PushFront(e), p.ll
	}
}

// Remove unregisters the entry without invoking its eviction callback (the
// owner is dropping it voluntarily).
func (e *Entry) Remove() {
	p := e.owner.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if e.on == nil {
		return
	}
	e.unlinkLocked()
	p.used -= e.size
	e.elem, e.on = nil, nil
}

// unlinkLocked takes the entry off the list it is on. Caller holds the
// pool's lock.
func (e *Entry) unlinkLocked() {
	if e.on == e.owner.handed {
		e.owner.pool.handed -= e.size
	}
	e.on.Remove(e.elem)
}

// Unpark returns every parked entry to the LRU list, behind all entries
// already there: a parked entry was at the LRU end when it was parked and
// has not been touched since, so it is older than anything on the list.
// Owners call it after making vetoing entries evictable wholesale, then
// Enforce to trim the pool back to its budget.
func (p *Pool) Unpark() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for elem := p.parked.Front(); elem != nil; elem = p.parked.Front() {
		e := p.parked.Remove(elem).(*Entry)
		e.elem, e.on = p.ll.PushBack(e), p.ll
	}
}
