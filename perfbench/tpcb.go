package main

import (
	"errors"
	"fmt"

	"tdb"
)

// tpcb is the paper's Figure 10 transaction at paper scale (Figure 9): each
// transaction updates an account, a teller and a branch row through hash
// indexes and appends a History row through a list index, then commits
// durably. One client, locking off (§4.2.3), utilization 0.60 and a 16 MiB
// checkpoint interval, as in the paper's TDB driver.
type tpcbWorkload struct {
	scale tpcbScale
	d     *tdb.DB
	st    *stack

	accountIx, tellerIx, branchIx, historyIx tdb.GenericIndexer

	// What acknowledged commits imply: balances by table, and the History
	// row count and delta sum.
	balances           [3][]int64
	histCount, histSum int64
}

type tpcbScale struct{ accounts, tellers, branches int }

var tables = [3]string{"account", "teller", "branch"}

const (
	classAccount tdb.ClassID = 7101 + iota
	classTeller
	classBranch
	classHistory
)

// rowSize is TPC-B's record size (Figure 9: 100-byte rows).
const rowSize = 100

// balanceRow is an account, teller or branch row.
type balanceRow struct {
	class   tdb.ClassID
	ID      int32
	Branch  int32
	Balance int64
}

func (r *balanceRow) ClassID() tdb.ClassID { return r.class }

func (r *balanceRow) Pickle(p *tdb.Pickler) {
	p.Int32(r.ID)
	p.Int32(r.Branch)
	p.Int64(r.Balance)
	p.RawBytes(padding[:rowSize-16])
}

func (r *balanceRow) Unpickle(u *tdb.Unpickler) error {
	r.ID = u.Int32()
	r.Branch = u.Int32()
	r.Balance = u.Int64()
	u.RawBytes(rowSize - 16)
	return u.Err()
}

type historyRow struct {
	Seq                     int64
	Account, Teller, Branch int32
	Delta                   int64
}

func (h *historyRow) ClassID() tdb.ClassID { return classHistory }

func (h *historyRow) Pickle(p *tdb.Pickler) {
	p.Int64(h.Seq)
	p.Int32(h.Account)
	p.Int32(h.Teller)
	p.Int32(h.Branch)
	p.Int64(h.Delta)
	p.RawBytes(padding[:rowSize-28])
}

func (h *historyRow) Unpickle(u *tdb.Unpickler) error {
	h.Seq = u.Int64()
	h.Account = u.Int32()
	h.Teller = u.Int32()
	h.Branch = u.Int32()
	h.Delta = u.Int64()
	u.RawBytes(rowSize - 28)
	return u.Err()
}

// newTPCB builds the workload; its inputs come from the clients' seeded
// generators, so it needs no seed of its own.
func newTPCB(_ int64, smoke bool) workload {
	scale := tpcbScale{accounts: 100000, tellers: 1000, branches: 100}
	if smoke {
		scale = tpcbScale{accounts: 2000, tellers: 20, branches: 4}
	}
	// Ids never change, so the keys are immutable (§5.2.3).
	hash := func() tdb.GenericIndexer {
		return &tdb.Indexer[*balanceRow, tdb.IntKey]{
			IndexName: "id", IsUnique: true, Organization: tdb.HashTable, KeyImmutable: true,
			Extract: func(r *balanceRow) tdb.IntKey { return tdb.IntKey(r.ID) },
		}
	}
	w := &tpcbWorkload{
		scale:     scale,
		accountIx: hash(), tellerIx: hash(), branchIx: hash(),
		historyIx: &tdb.Indexer[*historyRow, tdb.IntKey]{
			IndexName: "log", Organization: tdb.List, KeyImmutable: true,
			Extract: func(h *historyRow) tdb.IntKey { return tdb.IntKey(h.Seq) },
		},
	}
	for i, n := range w.sizes() {
		w.balances[i] = make([]int64, n)
	}
	return w
}

func (w *tpcbWorkload) sizes() [3]int {
	return [3]int{w.scale.accounts, w.scale.tellers, w.scale.branches}
}

func (w *tpcbWorkload) index(table int) tdb.GenericIndexer {
	return [3]tdb.GenericIndexer{w.accountIx, w.tellerIx, w.branchIx}[table]
}

func (w *tpcbWorkload) open() error {
	reg := tdb.NewRegistry()
	for _, class := range []tdb.ClassID{classAccount, classTeller, classBranch} {
		reg.Register(class, func() tdb.Object { return &balanceRow{class: class} })
	}
	reg.Register(classHistory, func() tdb.Object { return &historyRow{} })
	d, err := w.st.open(reg, func(o *tdb.Options) {
		o.MaxUtilization = 0.60
		o.CheckpointBytes = 16 << 20
		o.DisableLocking = true
	})
	w.d = d
	return err
}

func (w *tpcbWorkload) db() *tdb.DB { return w.d }

func (w *tpcbWorkload) close() error {
	err := w.d.Close()
	w.d = nil
	return err
}

func (w *tpcbWorkload) setup(st *stack) error {
	w.st = st
	if err := w.open(); err != nil {
		return err
	}
	ct := w.d.Begin()
	for i, name := range tables {
		if _, err := ct.CreateCollection(name, w.index(i)); err != nil {
			return err
		}
	}
	if _, err := ct.CreateCollection("history", w.historyIx); err != nil {
		return err
	}
	if err := ct.Commit(true); err != nil {
		return err
	}
	classes := [3]tdb.ClassID{classAccount, classTeller, classBranch}
	const batch = 1000
	for i, n := range w.sizes() {
		for lo := 0; lo < n; lo += batch {
			ct := w.d.Begin()
			h, err := ct.WriteCollection(tables[i], w.index(i))
			if err != nil {
				return err
			}
			for id := lo; id < min(lo+batch, n); id++ {
				row := &balanceRow{class: classes[i], ID: int32(id), Branch: int32(id % w.scale.branches)}
				if _, err := h.Insert(row); err != nil {
					return err
				}
			}
			if err := ct.Commit(true); err != nil {
				return err
			}
		}
	}
	if err := w.d.Checkpoint(); err != nil {
		return err
	}
	if err := w.d.Close(); err != nil {
		return err
	}
	return w.open()
}

// step runs one TPC-B transaction.
func (w *tpcbWorkload) step(c *client) error {
	var ids [3]int32
	for i, n := range w.sizes() {
		ids[i] = int32(c.rng.Intn(n))
	}
	delta := int64(c.rng.Intn(1999999) - 999999) // TPC-B: [-999999, +999999]
	c.start(opCommit)
	old, err := w.runTransfer(c, ids, delta)
	if ok, err := c.finish(err); !ok {
		return err
	}
	for i, id := range ids {
		if old[i] != w.balances[i][id] {
			return fmt.Errorf("tpcb: %s %d read balance %d, acknowledged commits imply %d", tables[i], id, old[i], w.balances[i][id])
		}
		w.balances[i][id] += delta
	}
	w.histCount++
	w.histSum += delta
	return nil
}

func (w *tpcbWorkload) runTransfer(c *client, ids [3]int32, delta int64) (old [3]int64, err error) {
	ct := w.d.Begin()
	defer func() {
		if err != nil {
			ct.Abort()
		}
	}()
	for i, id := range ids {
		if old[i], err = w.update(c, ct, i, id, delta); err != nil {
			return old, err
		}
	}
	ref := c.enter(spColOpen)
	h, err := ct.WriteCollection("history", w.historyIx)
	ref.leave()
	if err != nil {
		return old, err
	}
	ref = c.enter(spColInsert)
	_, err = h.Insert(&historyRow{
		Seq: w.histCount + 1, Account: ids[0], Teller: ids[1], Branch: ids[2], Delta: delta,
	})
	ref.leave()
	if err != nil {
		return old, err
	}
	ref = c.enter(spColCommit)
	err = ct.Commit(true)
	ref.leave()
	return old, err
}

// update adds delta to one row through its hash index and returns the
// balance it read.
func (w *tpcbWorkload) update(c *client, ct *tdb.Txn, table int, id int32, delta int64) (int64, error) {
	ix := w.index(table)
	ref := c.enter(spColOpen)
	h, err := ct.WriteCollection(tables[table], ix)
	ref.leave()
	if err != nil {
		return 0, err
	}
	ref = c.enter(spColQuery)
	it, err := h.QueryExact(ix, tdb.IntKey(id))
	ref.leave()
	if err != nil {
		return 0, err
	}
	var old int64
	var row *balanceRow
	ref = c.enter(spColWrite)
	if it.Next() {
		row, err = tdb.WriteAs[*balanceRow](it)
	} else {
		err = fmt.Errorf("tpcb: %s row %d missing", tables[table], id)
	}
	if err == nil {
		old = row.Balance
		row.Balance += delta
	}
	ref.leave()
	ref = c.enter(spColClose)
	cerr := it.Close()
	ref.leave()
	return old, errors.Join(err, cerr)
}

// scanTable reads a whole balance table through its index.
func (w *tpcbWorkload) scanTable(table int) ([]*balanceRow, error) {
	ct := w.d.BeginReadOnly()
	defer ct.Abort()
	ix := w.index(table)
	h, err := ct.ReadCollection(tables[table], ix)
	if err != nil {
		return nil, err
	}
	it, err := h.Query(ix)
	if err != nil {
		return nil, err
	}
	rows := make([]*balanceRow, 0, w.sizes()[table])
	for err == nil && it.Next() {
		var row *balanceRow
		if row, err = tdb.ReadAs[*balanceRow](it); err == nil {
			rows = append(rows, row)
		}
	}
	return rows, errors.Join(err, it.Close())
}

// checkTable compares a full read of one table with the balances the
// acknowledged commits imply.
func (w *tpcbWorkload) checkTable(table int, rows []*balanceRow) error {
	want := w.balances[table]
	if len(rows) != len(want) {
		return fmt.Errorf("tpcb: %s holds %d rows, want %d", tables[table], len(rows), len(want))
	}
	seen := make([]bool, len(want))
	var sum int64
	for _, r := range rows {
		if r.ID < 0 || int(r.ID) >= len(want) || seen[r.ID] {
			return fmt.Errorf("tpcb: %s row id %d out of range or repeated", tables[table], r.ID)
		}
		seen[r.ID] = true
		if r.Balance != want[r.ID] {
			return fmt.Errorf("tpcb: %s %d balance %d, want %d", tables[table], r.ID, r.Balance, want[r.ID])
		}
		sum += r.Balance
	}
	if sum != w.histSum {
		return fmt.Errorf("tpcb: %s balances total %d, History deltas total %d", tables[table], sum, w.histSum)
	}
	return nil
}

// history reads every History row.
func (w *tpcbWorkload) history() ([]*historyRow, error) {
	ct := w.d.BeginReadOnly()
	defer ct.Abort()
	h, err := ct.ReadCollection("history", w.historyIx)
	if err != nil {
		return nil, err
	}
	it, err := h.Query(w.historyIx)
	if err != nil {
		return nil, err
	}
	var rows []*historyRow
	for err == nil && it.Next() {
		var row *historyRow
		if row, err = tdb.ReadAs[*historyRow](it); err == nil {
			rows = append(rows, row)
		}
	}
	return rows, errors.Join(err, it.Close())
}

// check verifies that the account, teller and branch totals each equal the
// sum of the History deltas, that every balance matches the acknowledged
// commits, that History holds one row per acknowledged commit, and that
// every stored byte authenticates.
func (w *tpcbWorkload) check(*stack) error {
	for table := range tables {
		rows, err := w.scanTable(table)
		if err != nil {
			return err
		}
		if err := w.checkTable(table, rows); err != nil {
			return err
		}
	}
	hist, err := w.history()
	if err != nil {
		return err
	}
	var sum int64
	for _, h := range hist {
		sum += h.Delta
	}
	if int64(len(hist)) != w.histCount || sum != w.histSum {
		return fmt.Errorf("tpcb: History holds %d rows totalling %d; %d acknowledged commits total %d",
			len(hist), sum, w.histCount, w.histSum)
	}
	return w.d.Verify()
}

func (w *tpcbWorkload) liveBytes() int64 {
	return int64(w.scale.accounts+w.scale.tellers+w.scale.branches)*rowSize + w.histCount*rowSize
}
