package lru

import (
	"sync"
	"testing"
)

// resident counts the pool's entries, including those handed to owners.
func resident(p *Pool, owners ...*Owner) int {
	n := p.ll.Len() + p.parked.Len()
	for _, o := range owners {
		n += o.handed.Len()
	}
	return n
}

func TestPoolEvictsLRUOrder(t *testing.T) {
	o := NewPool(100).NewOwner()
	var evicted []string
	mk := func(name string, size int64) *Entry {
		return o.Add(size, func() bool {
			evicted = append(evicted, name)
			return true
		})
	}
	a := mk("a", 40)
	mk("b", 40)
	if len(evicted) != 0 {
		t.Fatalf("premature eviction: %v", evicted)
	}
	a.Touch() // a becomes MRU; b is now LRU
	mk("c", 40)
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if o.pool.Used() != 80 {
		t.Fatalf("used %d, want 80", o.pool.Used())
	}
}

func TestPoolVeto(t *testing.T) {
	p := NewPool(10)
	o := p.NewOwner()
	o.Add(8, func() bool { return false }) // always vetoes
	b := o.Add(8, func() bool { return true })
	// b survives its own Add; a later enforcement skips the vetoing LRU
	// entry and evicts b.
	if b.on == nil {
		t.Fatal("entry evicted during its own Add")
	}
	o.Enforce()
	if b.on != nil {
		t.Fatal("expected b evicted after veto skip")
	}
	if resident(p) != 1 {
		t.Fatalf("len %d, want 1 (the vetoing entry)", resident(p))
	}
}

func TestPoolRemove(t *testing.T) {
	p := NewPool(100)
	calls := 0
	e := p.NewOwner().Add(60, func() bool { calls++; return true })
	e.Remove()
	if p.Used() != 0 || resident(p) != 0 || e.on != nil {
		t.Fatalf("used %d len %d resident %v after remove", p.Used(), resident(p), e.on != nil)
	}
	if calls != 0 {
		t.Fatal("Remove must not invoke eviction callback")
	}
	e.Remove() // double remove is a no-op
	e.Touch()  // touch after remove is a no-op
	if p.Used() != 0 || resident(p) != 0 {
		t.Fatalf("calls after remove changed accounting: used %d len %d", p.Used(), resident(p))
	}
}

func TestPoolUnlimitedBudget(t *testing.T) {
	p := NewPool(0)
	o := p.NewOwner()
	for i := 0; i < 100; i++ {
		o.Add(1000, func() bool { t.Fatal("eviction with unlimited budget"); return true })
	}
	if resident(p) != 100 {
		t.Fatalf("len %d", resident(p))
	}
}

func TestPoolVetoCalledOncePerPark(t *testing.T) {
	o := NewPool(10).NewOwner()
	vetoes := 0
	v := o.Add(8, func() bool { vetoes++; return false })
	for i := 0; i < 20; i++ {
		o.Add(8, func() bool { return true })
	}
	if vetoes != 1 {
		t.Fatalf("veto callback ran %d times over 20 Adds, want 1 (parked after the first)", vetoes)
	}
	v.Touch() // back on the LRU list: the next pass may ask again
	o.Add(8, func() bool { return true })
	o.Add(8, func() bool { return true })
	if vetoes != 2 {
		t.Fatalf("veto callback ran %d times after Touch, want 2", vetoes)
	}
}

func TestPoolParkedEntriesReturn(t *testing.T) {
	p := NewPool(10)
	o := p.NewOwner()
	veto := true
	mk := func() *Entry { return o.Add(8, func() bool { return !veto }) }

	touched := mk()
	o.Add(8, func() bool { return true }) // parks touched, stays over budget
	if touched.on != p.parked || resident(p) != 2 || p.Used() != 16 {
		t.Fatalf("parked %v, len %d, used %d; want parked, 2 and 16 (parked entries count)",
			touched.on == p.parked, resident(p), p.Used())
	}
	touched.Touch()
	if touched.on != p.ll || p.ll.Front().Value != touched {
		t.Fatal("Touch did not return the parked entry as most recently used")
	}

	p = NewPool(10)
	o = p.NewOwner()
	veto = true
	a, b := mk(), mk()
	if a.on != p.parked || resident(p) != 2 {
		t.Fatalf("a parked %v, len %d; want parked and 2", a.on == p.parked, resident(p))
	}
	veto = false
	o.Enforce() // b alone is on the LRU list; it goes, a stays parked
	if a.on == nil || b.on != nil {
		t.Fatalf("a resident %v, b resident %v; want only the parked entry left", a.on != nil, b.on != nil)
	}
	o.Add(8, func() bool { return true })
	if a.on == nil {
		t.Fatal("parked entry evicted without Unpark")
	}
	p.Unpark()
	if a.on != p.ll || p.ll.Back().Value != a {
		t.Fatal("Unpark did not return the entry behind the LRU list")
	}
	o.Enforce()
	if a.on != nil {
		t.Fatal("unparked entry not evicted first")
	}
}

func TestPoolUnparkRestoresBudget(t *testing.T) {
	// Owners that veto while dirty (map nodes before a checkpoint) push the
	// pool over budget; once clean, Unpark and Enforce bring it back.
	p := NewPool(100)
	o := p.NewOwner()
	dirty := true
	var entries []*Entry
	for i := 0; i < 30; i++ {
		entries = append(entries, o.Add(10, func() bool { return !dirty }))
	}
	if p.Used() != 300 {
		t.Fatalf("used %d, want 300 while every entry vetoes", p.Used())
	}
	dirty = false
	p.Unpark()
	o.Enforce()
	if p.Used() > p.Budget() {
		t.Fatalf("used %d exceeds budget %d after Unpark+Enforce", p.Used(), p.Budget())
	}
	if entries[len(entries)-1].on == nil {
		t.Fatal("most recently added entry evicted before older ones")
	}
}

// TestPoolHandsOverOtherOwnersEntries pins the eviction-ownership rule: an
// Add never runs another owner's callback. It hands that owner's LRU entry
// over, counts it as gone, and the owner evicts it at its own next Add; a
// Touch in between takes it back.
func TestPoolHandsOverOtherOwnersEntries(t *testing.T) {
	p := NewPool(100)
	objs, nodes := p.NewOwner(), p.NewOwner()
	nodeEvicted := 0
	old := nodes.Add(40, func() bool { nodeEvicted++; return true })
	kept := nodes.Add(40, func() bool { nodeEvicted++; return true })
	objs.Add(40, func() bool { t.Fatal("the adding owner's own fresh entry evicted"); return true })
	if nodeEvicted != 0 {
		t.Fatal("an Add ran another owner's eviction callback")
	}
	if old.on != nodes.handed || p.Used() != 120 || resident(p, objs, nodes) != 3 {
		t.Fatalf("handed %v, used %d, len %d; want the LRU node handed, 120 and 3",
			old.on == nodes.handed, p.Used(), resident(p, objs, nodes))
	}
	// Counted as gone: the next Add over budget hands the next LRU entry,
	// not a second one to cover the same overshoot.
	if kept.on != p.ll {
		t.Fatal("enforcement handed more than the overshoot")
	}
	kept.Touch()
	nodes.Add(10, func() bool { return true })
	if nodeEvicted != 1 || old.on != nil || p.Used() > p.Budget() {
		t.Fatalf("evicted %d, old resident %v, used %d; want the handed node evicted by its owner",
			nodeEvicted, old.on != nil, p.Used())
	}

	// A handed entry its owner touches before evicting it stays.
	p = NewPool(50)
	objs, nodes = p.NewOwner(), p.NewOwner()
	n := nodes.Add(40, func() bool { t.Fatal("touched entry evicted"); return true })
	objs.Add(40, func() bool { return true })
	if n.on != nodes.handed {
		t.Fatal("node not handed")
	}
	n.Touch()
	if n.on != p.ll || p.handed != 0 {
		t.Fatal("Touch did not take the handed entry back")
	}
	nodes.Enforce() // hands the object, now the LRU entry, to its owner
	if n.on == nil {
		t.Fatal("touched entry lost")
	}
}

func TestPoolConcurrentOwners(t *testing.T) {
	// Two owners on different goroutines share one pool, as the object
	// store and the chunk store do under their separate mutexes. Each
	// owner calls in under its own lock, released between calls; a
	// callback finding its owner's lock free ran outside the owner's
	// calls. Afterwards the accounting must match the residents.
	p := NewPool(1 << 10)
	kept := make([][]*Entry, 2)
	owners := []*Owner{p.NewOwner(), p.NewOwner()}
	done := make(chan struct{})
	owner := func(id int, veto bool) {
		defer func() { done <- struct{}{} }()
		var mu sync.Mutex
		o := owners[id]
		evict := func() bool {
			if mu.TryLock() {
				mu.Unlock()
				t.Error("eviction callback ran outside its owner's lock")
			}
			return !veto
		}
		var mine []*Entry
		for i := 0; i < 2000; i++ {
			mu.Lock()
			e := o.Add(32, evict)
			e.Touch()
			mine = append(mine, e)
			if i%100 == 99 {
				p.Unpark()
				o.Enforce()
				for _, old := range mine[:50] {
					old.Remove()
				}
				mine = mine[50:]
			}
			mu.Unlock()
		}
		kept[id] = mine
	}
	go owner(0, false)
	go owner(1, true)
	<-done
	<-done
	live := 0
	for _, mine := range kept {
		for _, e := range mine {
			if e.on != nil {
				live++
			}
		}
	}
	if n := resident(p, owners...); n != live || p.Used() != int64(32*live) {
		t.Fatalf("len %d used %d, want %d entries of 32 bytes", n, p.Used(), live)
	}
}
