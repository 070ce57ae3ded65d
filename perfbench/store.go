package main

import (
	"sync/atomic"

	"tdb"
	"tdb/internal/platform"
)

// stack is one workload's storage: an in-memory device under the paper's
// simulated disk (§7.2), under the benchmark's counting store, with the
// paper's emulated one-way counter kept as a file on the same store.
type stack struct {
	mem   *platform.MemStore
	disk  *platform.SimDisk
	store *countingStore
	ctr   platform.OneWayCounter
}

func newStack(chargeReads bool) (*stack, error) {
	params := platform.DefaultDiskParams()
	params.ChargeReads = chargeReads
	mem := platform.NewMemStore()
	disk := platform.NewSimDisk(mem, params)
	store := &countingStore{inner: disk}
	ctr, err := platform.NewFileCounterNoSync(store, "counter")
	if err != nil {
		return nil, err
	}
	return &stack{mem: mem, disk: disk, store: store, ctr: ctr}, nil
}

// open opens the database on the stack with the benchmark's common
// settings: the aes-sha256 suite and every other option at its default,
// unless tune overrides it.
func (s *stack) open(reg *tdb.Registry, tune func(*tdb.Options)) (*tdb.DB, error) {
	opts := tdb.Options{
		Store:    s.store,
		Secret:   []byte("perfbench-device-secret-01234567"),
		Suite:    "aes-sha256",
		Counter:  s.ctr,
		Registry: reg,
	}
	if tune != nil {
		tune(&opts)
	}
	return tdb.Open(opts)
}

// ioCounts is a copy of the counting store's counters.
type ioCounts struct {
	readOps, readBytes, writeOps, writeBytes, syncOps int64
}

func (c ioCounts) sub(o ioCounts) ioCounts {
	return ioCounts{
		readOps:    c.readOps - o.readOps,
		readBytes:  c.readBytes - o.readBytes,
		writeOps:   c.writeOps - o.writeOps,
		writeBytes: c.writeBytes - o.writeBytes,
		syncOps:    c.syncOps - o.syncOps,
	}
}

func (c ioCounts) add(o ioCounts) ioCounts {
	return ioCounts{
		readOps:    c.readOps + o.readOps,
		readBytes:  c.readBytes + o.readBytes,
		writeOps:   c.writeOps + o.writeOps,
		writeBytes: c.writeBytes + o.writeBytes,
		syncOps:    c.syncOps + o.syncOps,
	}
}

// countingStore is the platform-layer probe: it counts every File call the
// engine makes and, while a tracer is installed, records each call as a
// span. With no tracer the cost is one atomic load per call.
type countingStore struct {
	inner platform.UntrustedStore

	readOps, readBytes, writeOps, writeBytes, syncOps atomic.Int64

	tracer atomic.Pointer[tracer]
}

func (s *countingStore) counts() ioCounts {
	return ioCounts{
		readOps:    s.readOps.Load(),
		readBytes:  s.readBytes.Load(),
		writeOps:   s.writeOps.Load(),
		writeBytes: s.writeBytes.Load(),
		syncOps:    s.syncOps.Load(),
	}
}

func (s *countingStore) begin(name spanName) spanRef {
	return s.tracer.Load().child(name)
}

func (s *countingStore) end(ref spanRef) {
	if ref.t != nil {
		ref.t.rec.close(ref.i)
	}
}

func (s *countingStore) wrap(f platform.File, err error) (platform.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{inner: f, s: s}, nil
}

func (s *countingStore) Create(name string) (platform.File, error) {
	ref := s.begin(spFileMeta)
	defer s.end(ref)
	return s.wrap(s.inner.Create(name))
}

func (s *countingStore) Open(name string) (platform.File, error) {
	ref := s.begin(spFileMeta)
	defer s.end(ref)
	return s.wrap(s.inner.Open(name))
}

func (s *countingStore) Remove(name string) error {
	ref := s.begin(spFileMeta)
	defer s.end(ref)
	return s.inner.Remove(name)
}

func (s *countingStore) List() ([]string, error) {
	ref := s.begin(spFileMeta)
	defer s.end(ref)
	return s.inner.List()
}

func (s *countingStore) Sync() error {
	ref := s.begin(spFileSync)
	defer s.end(ref)
	s.syncOps.Add(1)
	return s.inner.Sync()
}

type countingFile struct {
	inner platform.File
	s     *countingStore
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	ref := f.s.begin(spFileRead)
	n, err := f.inner.ReadAt(p, off)
	f.s.end(ref)
	f.s.readOps.Add(1)
	f.s.readBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	ref := f.s.begin(spFileWrite)
	n, err := f.inner.WriteAt(p, off)
	f.s.end(ref)
	f.s.writeOps.Add(1)
	f.s.writeBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	ref := f.s.begin(spFileSync)
	err := f.inner.Sync()
	f.s.end(ref)
	f.s.syncOps.Add(1)
	return err
}

func (f *countingFile) Size() (int64, error) {
	ref := f.s.begin(spFileMeta)
	defer f.s.end(ref)
	return f.inner.Size()
}

func (f *countingFile) Truncate(size int64) error {
	ref := f.s.begin(spFileMeta)
	defer f.s.end(ref)
	return f.inner.Truncate(size)
}

func (f *countingFile) Close() error { return f.inner.Close() }
