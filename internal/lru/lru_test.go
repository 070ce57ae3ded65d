package lru

import "testing"

func TestPoolEvictsLRUOrder(t *testing.T) {
	p := NewPool(100)
	var evicted []string
	mk := func(name string, size int64) *Entry {
		return p.Add(size, func() bool {
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
	if p.Used() != 80 {
		t.Fatalf("used %d, want 80", p.Used())
	}
}

func TestPoolPinPreventsEviction(t *testing.T) {
	p := NewPool(50)
	var evictedA, evictedB bool
	a := p.Add(30, func() bool { evictedA = true; return true })
	a.Pin()
	b := p.Add(30, func() bool { evictedB = true; return true })
	if evictedA {
		t.Fatal("pinned entry evicted")
	}
	// b survives its own Add (self-eviction is forbidden); the next
	// enforcement evicts it as the LRU unpinned entry.
	if !b.Resident() {
		t.Fatal("entry evicted during its own Add")
	}
	p.Add(10, func() bool { return true })
	if !evictedB {
		t.Fatal("unpinned entry should have been evicted by the next Add")
	}
	a.Unpin()
	p.Add(30, func() bool { return true })
	if !evictedA {
		t.Fatal("entry should be evictable after unpin")
	}
}

func TestPoolVeto(t *testing.T) {
	p := NewPool(10)
	p.Add(8, func() bool { return false }) // always vetoes
	b := p.Add(8, func() bool { return true })
	// b survives its own Add; a later enforcement skips the vetoing LRU
	// entry and evicts b.
	if !b.Resident() {
		t.Fatal("entry evicted during its own Add")
	}
	p.Enforce()
	if b.Resident() {
		t.Fatal("expected b evicted after veto skip")
	}
	if p.Len() != 1 {
		t.Fatalf("len %d, want 1 (the vetoing entry)", p.Len())
	}
}

func TestPoolRemoveAndResize(t *testing.T) {
	p := NewPool(100)
	calls := 0
	e := p.Add(60, func() bool { calls++; return true })
	e.Resize(90)
	if p.Used() != 90 {
		t.Fatalf("used %d after resize", p.Used())
	}
	e.Remove()
	if p.Used() != 0 || e.Resident() {
		t.Fatalf("used %d resident %v after remove", p.Used(), e.Resident())
	}
	if calls != 0 {
		t.Fatal("Remove must not invoke eviction callback")
	}
	e.Remove() // double remove is a no-op
	e.Touch()  // touch after remove is a no-op
	e.Resize(5)
	if p.Used() != 0 {
		t.Fatalf("resize after remove changed accounting: %d", p.Used())
	}
}

func TestPoolUnlimitedBudget(t *testing.T) {
	p := NewPool(0)
	for i := 0; i < 100; i++ {
		p.Add(1000, func() bool { t.Fatal("eviction with unlimited budget"); return true })
	}
	if p.Len() != 100 {
		t.Fatalf("len %d", p.Len())
	}
}

func TestPoolPinNesting(t *testing.T) {
	p := NewPool(10)
	e := p.Add(5, func() bool { return true })
	e.Pin()
	e.Pin()
	e.Unpin()
	if !e.Pinned() {
		t.Fatal("entry should remain pinned after one of two unpins")
	}
	e.Unpin()
	if e.Pinned() {
		t.Fatal("entry should be unpinned")
	}
	e.Unpin() // extra unpin is a no-op
	if e.Pinned() {
		t.Fatal("unpin underflow")
	}
}

func TestPoolVetoCalledOncePerPark(t *testing.T) {
	p := NewPool(10)
	vetoes := 0
	v := p.Add(8, func() bool { vetoes++; return false })
	for i := 0; i < 20; i++ {
		p.Add(8, func() bool { return true })
	}
	if vetoes != 1 {
		t.Fatalf("veto callback ran %d times over 20 Adds, want 1 (parked after the first)", vetoes)
	}
	v.Touch() // back on the LRU list: the next pass may ask again
	p.Add(8, func() bool { return true })
	p.Add(8, func() bool { return true })
	if vetoes != 2 {
		t.Fatalf("veto callback ran %d times after Touch, want 2", vetoes)
	}
}

func TestPoolParkedEntriesReturn(t *testing.T) {
	p := NewPool(10)
	veto := true
	mk := func() *Entry { return p.Add(8, func() bool { return !veto }) }

	touched := mk()
	p.Add(8, func() bool { return true }) // parks touched, stays over budget
	if !touched.parked || p.Len() != 2 || p.Used() != 16 {
		t.Fatalf("parked %v, len %d, used %d; want parked, 2 and 16 (parked entries count)",
			touched.parked, p.Len(), p.Used())
	}
	touched.Touch()
	if touched.parked || p.ll.Front().Value != touched {
		t.Fatal("Touch did not return the parked entry as most recently used")
	}

	p = NewPool(10)
	pinned := p.Add(8, func() bool { return true })
	pinned.Pin()
	p.Add(8, func() bool { return true }) // parks pinned
	if !pinned.parked {
		t.Fatal("pinned entry not parked")
	}
	pinned.Pin()
	pinned.Unpin()
	if !pinned.parked {
		t.Fatal("an inner Unpin returned the entry while still pinned")
	}
	pinned.Unpin()
	if pinned.parked || p.ll.Front().Value != pinned {
		t.Fatal("last Unpin did not return the parked entry as most recently used")
	}

	p = NewPool(10)
	veto = true
	a, b := mk(), mk()
	if !a.parked || p.Len() != 2 {
		t.Fatalf("a parked %v, len %d; want parked and 2", a.parked, p.Len())
	}
	veto = false
	p.Enforce() // b alone is on the LRU list; it goes, a stays parked
	if !a.Resident() || b.Resident() {
		t.Fatalf("a resident %v, b resident %v; want only the parked entry left", a.Resident(), b.Resident())
	}
	p.Add(8, func() bool { return true })
	if !a.Resident() {
		t.Fatal("parked entry evicted without Unpark")
	}
	p.Unpark()
	if a.parked || p.ll.Back().Value != a {
		t.Fatal("Unpark did not return the entry behind the LRU list")
	}
	p.Enforce()
	if a.Resident() {
		t.Fatal("unparked entry not evicted first")
	}
}

func TestPoolUnparkRestoresBudget(t *testing.T) {
	// Owners that veto while dirty (map nodes before a checkpoint) push the
	// pool over budget; once clean, Unpark and Enforce bring it back.
	p := NewPool(100)
	dirty := true
	var entries []*Entry
	for i := 0; i < 30; i++ {
		entries = append(entries, p.Add(10, func() bool { return !dirty }))
	}
	if p.Used() != 300 {
		t.Fatalf("used %d, want 300 while every entry vetoes", p.Used())
	}
	dirty = false
	p.Unpark()
	p.Enforce()
	if p.Used() > p.Budget() {
		t.Fatalf("used %d exceeds budget %d after Unpark+Enforce", p.Used(), p.Budget())
	}
	if !entries[len(entries)-1].Resident() {
		t.Fatal("most recently added entry evicted before older ones")
	}
}

func TestPoolConcurrentOwners(t *testing.T) {
	// Two owners on different goroutines share one pool, as the object
	// store and the chunk store do under their separate mutexes. Run
	// under -race; afterwards the accounting must match the residents.
	p := NewPool(1 << 10)
	kept := make([][]*Entry, 2)
	done := make(chan struct{})
	owner := func(id int, veto bool) {
		defer func() { done <- struct{}{} }()
		var mine []*Entry
		for i := 0; i < 2000; i++ {
			e := p.Add(64, func() bool { return !veto })
			e.Pin()
			e.Touch()
			e.Resize(32)
			e.Unpin()
			mine = append(mine, e)
			if i%100 == 99 {
				p.Unpark()
				p.Enforce()
				for _, old := range mine[:50] {
					old.Remove()
				}
				mine = mine[50:]
			}
		}
		kept[id] = mine
	}
	go owner(0, false)
	go owner(1, true)
	<-done
	<-done
	resident := 0
	for _, mine := range kept {
		for _, e := range mine {
			if e.Resident() {
				resident++
			}
		}
	}
	if p.Len() != resident || p.Used() != int64(32*resident) {
		t.Fatalf("len %d used %d, want %d entries of 32 bytes", p.Len(), p.Used(), resident)
	}
}
