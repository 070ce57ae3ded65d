package main

import (
	"fmt"

	"tdb"
)

// meters is DRM playback metering, the paper's motivating use (§1): each
// title has a licence object and a meter object. A play opens the licence
// read-only and the meter writable through the raw object API, increments
// the meter and commits durably. Two clients pick titles from one Zipfian
// distribution; each play takes exactly one exclusive lock, so plays cannot
// deadlock.
type metersWorkload struct {
	titles int
	d      *tdb.DB
	st     *stack
	keys   *zipfKeys

	licences, meters []tdb.ObjectID
	// acked[client][title] counts the plays each client saw committed.
	acked [][]int64
}

const metersClients = 2

const (
	classLicence tdb.ClassID = 7201 + iota
	classMeter
)

type licence struct {
	Title    int64
	MaxPlays int64
}

func (l *licence) ClassID() tdb.ClassID { return classLicence }

func (l *licence) Pickle(p *tdb.Pickler) {
	p.Int64(l.Title)
	p.Int64(l.MaxPlays)
	p.RawBytes(padding[:rowSize-16])
}

func (l *licence) Unpickle(u *tdb.Unpickler) error {
	l.Title = u.Int64()
	l.MaxPlays = u.Int64()
	u.RawBytes(rowSize - 16)
	return u.Err()
}

type meter struct {
	Title int64
	Plays int64
}

func (m *meter) ClassID() tdb.ClassID { return classMeter }

func (m *meter) Pickle(p *tdb.Pickler) {
	p.Int64(m.Title)
	p.Int64(m.Plays)
	p.RawBytes(padding[:rowSize-16])
}

func (m *meter) Unpickle(u *tdb.Unpickler) error {
	m.Title = u.Int64()
	m.Plays = u.Int64()
	u.RawBytes(rowSize - 16)
	return u.Err()
}

func newMeters(seed int64, smoke bool) workload {
	titles := 10000
	if smoke {
		titles = 1000
	}
	w := &metersWorkload{titles: titles, keys: newZipfKeys(seed, titles, metersClients)}
	for range metersClients {
		w.acked = append(w.acked, make([]int64, titles))
	}
	return w
}

func (w *metersWorkload) open() error {
	reg := tdb.NewRegistry()
	reg.Register(classLicence, func() tdb.Object { return &licence{} })
	reg.Register(classMeter, func() tdb.Object { return &meter{} })
	d, err := w.st.open(reg, nil)
	w.d = d
	return err
}

func (w *metersWorkload) db() *tdb.DB { return w.d }

func (w *metersWorkload) close() error {
	err := w.d.Close()
	w.d = nil
	return err
}

func (w *metersWorkload) setup(st *stack) error {
	w.st = st
	if err := w.open(); err != nil {
		return err
	}
	const batch = 500
	for lo := 0; lo < w.titles; lo += batch {
		t := w.d.BeginObject()
		for title := lo; title < min(lo+batch, w.titles); title++ {
			lid, err := t.Insert(&licence{Title: int64(title), MaxPlays: 1 << 40})
			if err != nil {
				return err
			}
			mid, err := t.Insert(&meter{Title: int64(title)})
			if err != nil {
				return err
			}
			w.licences = append(w.licences, lid)
			w.meters = append(w.meters, mid)
		}
		if err := t.Commit(true); err != nil {
			return err
		}
	}
	if err := w.d.Close(); err != nil {
		return err
	}
	return w.open()
}

// step meters one playback of a title.
func (w *metersWorkload) step(c *client) error {
	title := w.keys.next(c)
	c.start(opCommit)
	err := w.runPlay(c, title)
	if ok, err := c.finish(err); !ok {
		return err
	}
	w.acked[c.id][title]++
	return nil
}

func (w *metersWorkload) runPlay(c *client, title int) error {
	t := w.d.BeginObject()
	ref := c.enter(spObjOpenRO)
	lic, err := tdb.OpenReadonly[*licence](t, w.licences[title])
	ref.leave()
	if err == nil && lic.Deref().Title != int64(title) {
		err = fmt.Errorf("meters: licence of title %d names title %d", title, lic.Deref().Title)
	}
	if err != nil {
		t.Abort()
		return err
	}
	ref = c.enter(spObjOpenRW)
	m, err := tdb.OpenWritable[*meter](t, w.meters[title])
	ref.leave()
	if err != nil {
		t.Abort()
		return err
	}
	m.Deref().Plays++
	ref = c.enter(spObjCommit)
	err = t.Commit(true)
	ref.leave()
	if err != nil {
		t.Abort()
	}
	return err
}

// readMeters reads the meters of titles first..first+n-1 in a snapshot
// transaction.
func (w *metersWorkload) readMeters(first, n int) ([]*meter, error) {
	t := w.d.BeginObjectReadOnly()
	defer t.Abort()
	got := make([]*meter, 0, n)
	for title := first; title < first+n; title++ {
		m, err := tdb.OpenReadonly[*meter](t, w.meters[title])
		if err != nil {
			return nil, err
		}
		got = append(got, m.Deref())
	}
	return got, nil
}

// check closes the database, reopens it cold, and compares every meter
// with the plays the clients saw committed.
func (w *metersWorkload) check(*stack) error {
	if err := w.d.Close(); err != nil {
		return err
	}
	if err := w.open(); err != nil {
		return err
	}
	got, err := w.readMeters(0, w.titles)
	if err != nil {
		return err
	}
	for title, m := range got {
		var want int64
		for _, acked := range w.acked {
			want += acked[title]
		}
		if m.Title != int64(title) || m.Plays != want {
			return fmt.Errorf("meters: after reopen title %d meter reads title %d with %d plays, %d were acknowledged",
				title, m.Title, m.Plays, want)
		}
	}
	return w.d.Verify()
}

func (w *metersWorkload) liveBytes() int64 { return int64(w.titles) * 2 * rowSize }
