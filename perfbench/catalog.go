package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"tdb"
)

// catalog is browsing a content catalog larger than the device's RAM:
// 16k objects of 1 KiB (16 MiB, four times each cache) under a B-tree id
// index, loaded in id order and reopened cold, on a disk that charges
// reads. One client runs ~90% snapshot point lookups (Zipfian ids), ~5%
// snapshot range scans of 256 consecutive ids, and ~5% durable
// single-object updates, which move objects to the log tail and keep the
// layout fragmenting.
type catalogWorkload struct {
	seed  int64
	items int
	d     *tdb.DB
	st    *stack
	keys  *zipfKeys
	ix    tdb.GenericIndexer
	// versions[id] is the item's acknowledged version.
	versions []int64
}

const (
	catalogLookupPct = 90
	catalogScanPct   = 5
	scanItems        = 256
	itemSize         = 1024
	itemHeader       = 8 + 8 + 4
)

const classItem tdb.ClassID = 7301

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// item is one catalog entry. Its body is generated from (seed, id,
// version), and Sum covers id, version and body, so a read can tell an
// intact item from a wrong or damaged one.
type item struct {
	ID, Version int64
	Sum         uint32
	Body        []byte
}

func (it *item) ClassID() tdb.ClassID { return classItem }

func (it *item) Pickle(p *tdb.Pickler) {
	p.Int64(it.ID)
	p.Int64(it.Version)
	p.Uint32(it.Sum)
	p.RawBytes(it.Body)
}

func (it *item) Unpickle(u *tdb.Unpickler) error {
	it.ID = u.Int64()
	it.Version = u.Int64()
	it.Sum = u.Uint32()
	it.Body = u.RawBytes(itemSize - itemHeader)
	return u.Err()
}

func (it *item) sum() uint32 {
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[:8], uint64(it.ID))
	binary.BigEndian.PutUint64(hdr[8:], uint64(it.Version))
	return crc32.Update(crc32.Checksum(hdr[:], castagnoli), castagnoli, it.Body)
}

// makeItem generates an item's content from the seed.
func (w *catalogWorkload) makeItem(id, version int64) *item {
	it := &item{ID: id, Version: version, Body: make([]byte, itemSize-itemHeader)}
	x := uint64(w.seed)*0x9e3779b97f4a7c15 ^ uint64(id)<<20 ^ uint64(version)
	var word [8]byte
	for i := 0; i < len(it.Body); i += len(word) {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(word[:], z^z>>31)
		copy(it.Body[i:], word[:])
	}
	it.Sum = it.sum()
	return it
}

// verifyItem reports whether got is the intact, current version of id.
func (w *catalogWorkload) verifyItem(got *item, id int64) error {
	if got.ID != id || got.Version != w.versions[id] || got.Sum != got.sum() {
		return fmt.Errorf("catalog: read of id %d returned id %d version %d (want %d), checksum ok %v",
			id, got.ID, got.Version, w.versions[id], got.Sum == got.sum())
	}
	return nil
}

func newCatalog(seed int64, smoke bool) workload {
	items := 16384
	if smoke {
		items = 1024
	}
	return &catalogWorkload{
		seed: seed, items: items,
		keys:     newZipfKeys(seed, items, 1),
		versions: make([]int64, items),
		ix: &tdb.Indexer[*item, tdb.IntKey]{
			IndexName: "id", IsUnique: true, Organization: tdb.BTree, KeyImmutable: true,
			Extract: func(it *item) tdb.IntKey { return tdb.IntKey(it.ID) },
		},
	}
}

func (w *catalogWorkload) open() error {
	reg := tdb.NewRegistry()
	reg.Register(classItem, func() tdb.Object { return &item{} })
	d, err := w.st.open(reg, nil)
	w.d = d
	return err
}

func (w *catalogWorkload) db() *tdb.DB { return w.d }

func (w *catalogWorkload) close() error {
	err := w.d.Close()
	w.d = nil
	return err
}

func (w *catalogWorkload) setup(st *stack) error {
	w.st = st
	if err := w.open(); err != nil {
		return err
	}
	ct := w.d.Begin()
	if _, err := ct.CreateCollection("catalog", w.ix); err != nil {
		return err
	}
	if err := ct.Commit(true); err != nil {
		return err
	}
	const batch = 256
	for lo := 0; lo < w.items; lo += batch {
		ct := w.d.Begin()
		h, err := ct.WriteCollection("catalog", w.ix)
		if err != nil {
			return err
		}
		for id := lo; id < min(lo+batch, w.items); id++ {
			if _, err := h.Insert(w.makeItem(int64(id), 0)); err != nil {
				return err
			}
		}
		if err := ct.Commit(true); err != nil {
			return err
		}
	}
	if err := w.d.Close(); err != nil {
		return err
	}
	return w.open()
}

func (w *catalogWorkload) step(c *client) error {
	switch r := c.rng.Intn(100); {
	case r < catalogLookupPct:
		return w.lookup(c)
	case r < catalogLookupPct+catalogScanPct:
		return w.scan(c)
	default:
		return w.update(c)
	}
}

// lookup reads one item by id in a snapshot transaction.
func (w *catalogWorkload) lookup(c *client) error {
	id := int64(w.keys.next(c))
	c.start(opRead)
	got, err := w.readRange(c, id, id)
	if ok, err := c.finish(err); !ok {
		return err
	}
	if len(got) != 1 {
		return fmt.Errorf("catalog: lookup of id %d returned %d items", id, len(got))
	}
	return w.verifyItem(got[0], id)
}

// scan reads 256 consecutive ids in a snapshot transaction.
func (w *catalogWorkload) scan(c *client) error {
	first := int64(c.rng.Intn(w.items - scanItems + 1))
	c.start(opScan)
	got, err := w.readRange(c, first, first+scanItems-1)
	if ok, err := c.finish(err); !ok {
		return err
	}
	if len(got) != scanItems {
		return fmt.Errorf("catalog: scan from id %d returned %d items, want %d", first, len(got), scanItems)
	}
	for i, it := range got {
		if err := w.verifyItem(it, first+int64(i)); err != nil {
			return err
		}
	}
	return nil
}

// readRange reads ids lo..hi in key order through the B-tree.
func (w *catalogWorkload) readRange(c *client, lo, hi int64) ([]*item, error) {
	ct := w.d.BeginReadOnly()
	defer ct.Abort()
	ref := c.enter(spColOpen)
	h, err := ct.ReadCollection("catalog", w.ix)
	ref.leave()
	if err != nil {
		return nil, err
	}
	ref = c.enter(spColQuery)
	var it *tdb.Iterator
	if lo == hi {
		it, err = h.QueryExact(w.ix, tdb.IntKey(lo))
	} else {
		it, err = h.QueryRange(w.ix, tdb.IntKey(lo), tdb.IntKey(hi))
	}
	ref.leave()
	if err != nil {
		return nil, err
	}
	got := make([]*item, 0, hi-lo+1)
	for err == nil {
		ref = c.enter(spColNextRead)
		var x *item
		more := it.Next()
		if more {
			x, err = tdb.ReadAs[*item](it)
		}
		ref.leave()
		if !more {
			break
		}
		got = append(got, x)
	}
	ref = c.enter(spColClose)
	cerr := it.Close()
	ref.leave()
	return got, errors.Join(err, cerr)
}

// update rewrites one item (uniform id) with its next version and commits
// durably.
func (w *catalogWorkload) update(c *client) error {
	id := int64(c.rng.Intn(w.items))
	next := w.makeItem(id, w.versions[id]+1)
	c.start(opCommit)
	err := w.runUpdate(c, next)
	if ok, err := c.finish(err); !ok {
		return err
	}
	w.versions[id] = next.Version
	return nil
}

func (w *catalogWorkload) runUpdate(c *client, next *item) (err error) {
	ct := w.d.Begin()
	defer func() {
		if err != nil {
			ct.Abort()
		}
	}()
	ref := c.enter(spColOpen)
	h, err := ct.WriteCollection("catalog", w.ix)
	ref.leave()
	if err != nil {
		return err
	}
	ref = c.enter(spColQuery)
	it, err := h.QueryExact(w.ix, tdb.IntKey(next.ID))
	ref.leave()
	if err != nil {
		return err
	}
	ref = c.enter(spColWrite)
	var cur *item
	if it.Next() {
		cur, err = tdb.WriteAs[*item](it)
	} else {
		err = fmt.Errorf("catalog: id %d missing", next.ID)
	}
	if err == nil {
		*cur = *next
	}
	ref.leave()
	ref = c.enter(spColClose)
	cerr := it.Close()
	ref.leave()
	if err = errors.Join(err, cerr); err != nil {
		return err
	}
	ref = c.enter(spColCommit)
	err = ct.Commit(true)
	ref.leave()
	return err
}

// check reads the whole catalog: every id present once, in order, at its
// acknowledged version and intact; then every stored byte authenticates.
func (w *catalogWorkload) check(*stack) error {
	var c client // untraced
	got, err := w.readRange(&c, 0, int64(w.items-1))
	if err != nil {
		return err
	}
	if len(got) != w.items {
		return fmt.Errorf("catalog: holds %d items, want %d", len(got), w.items)
	}
	for i, it := range got {
		if err := w.verifyItem(it, int64(i)); err != nil {
			return err
		}
	}
	return w.d.Verify()
}

func (w *catalogWorkload) liveBytes() int64 { return int64(w.items) * itemSize }
