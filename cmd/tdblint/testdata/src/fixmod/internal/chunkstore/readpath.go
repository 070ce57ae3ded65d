// readpath.go — off-mutex read-path fixture (DESIGN.md §7.7): a read is a
// loop of rounds. Each round claims or joins the chunk's flight and
// snapshots the location under one short RLock section, runs the claimed
// read's I/O and decrypt with no lock held, revalidates, and completes the
// flight — or abandons it when the plan went stale — before waiting on a
// flight it joined. locked-io must stay silent on the pure plan/revalidate
// sections yet still track RLock regions, and the read-cache shard mutex
// must show up as its own lock class in the module lock-order graph.
package chunkstore

import (
	"sync"

	"fixmod/internal/platform"
	"fixmod/internal/sec"
)

type rstore struct {
	mu      sync.RWMutex
	epoch   uint64
	length  int
	file    platform.File
	suite   sec.Suite
	retry   RetryPolicy
	shards  []*rshard
	flights *rflights
}

// rshard is the fixture read-cache shard: its mutex is a distinct lock
// class (chunkstore.rshard.mu), ordered after chunkstore.rstore.mu.
type rshard struct {
	mu sync.RWMutex
	m  map[uint64][]byte
}

// readRounds is the one retry budget of the read loop.
const readRounds = 3

// rflight is one chunk read in progress: the reader that claimed it leads
// it and must complete or abandon it; joiners wait on done.
type rflight struct {
	done chan struct{}
	data []byte
}

// rflights is the fixture flight table (chunkstore.rflights.mu, ordered
// after chunkstore.rstore.mu: rounds claim under the plan section).
type rflights struct {
	mu sync.Mutex
	m  map[uint64]*rflight
}

// claim leads a new flight for id, or joins the one in progress.
func (f *rflights) claim(id uint64) (lead, joined *rflight) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fl := f.m[id]; fl != nil {
		return nil, fl
	}
	fl := &rflight{done: make(chan struct{})}
	f.m[id] = fl
	return fl, nil
}

// complete publishes a led flight's result and releases it.
func (f *rflights) complete(id uint64, fl *rflight, data []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fl.data = data
	delete(f.m, id)
	close(fl.done)
}

// abandon releases a led flight without a result; joiners retry.
func (f *rflights) abandon(id uint64, fl *rflight) { f.complete(id, fl, nil) }

// read is the one read protocol: negative. The RLock sections are pure
// (flight claim, field snapshot, epoch compare), the platform read and bulk
// decrypt run with no lock held, funneled through the retry policy, and the
// round waits on a joined flight only while it leads none.
func (s *rstore) read(id uint64) ([]byte, error) {
	for round := 0; round < readRounds; round++ {
		s.mu.RLock()
		lead, joined := s.flights.claim(id)
		n := s.length
		stamp := s.epoch
		s.mu.RUnlock()
		if joined != nil {
			<-joined.done
			if joined.data != nil {
				return joined.data, nil
			}
			continue
		}

		buf := make([]byte, n)
		if err := s.retry.run(func() error {
			_, err := s.file.ReadAt(buf, int64(id))
			return err
		}); err != nil {
			s.flights.abandon(id, lead)
			return nil, err
		}
		plain, err := s.suite.Decrypt(buf)
		if err != nil {
			s.flights.abandon(id, lead)
			return nil, err
		}

		s.mu.RLock()
		current := s.epoch == stamp
		s.mu.RUnlock()
		if !current {
			s.flights.abandon(id, lead)
			continue
		}
		s.flights.complete(id, lead, plain)
		return plain, nil
	}
	return nil, nil // budget spent: the caller takes the exclusive slow path
}

// decryptUnderReadLock holds the read lock across bulk crypto: positive
// (RLock regions are tracked exactly like Lock regions).
func (s *rstore) decryptUnderReadLock(buf []byte) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.suite.Decrypt(buf)
}

// publish establishes the sanctioned order rstore.mu → rshard.mu.
func (s *rstore) publish(id uint64, b []byte) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sh := s.shards[0]
	sh.mu.Lock()
	sh.m[id] = b
	sh.mu.Unlock()
}

// reserve acquires the store lock for the transitive inversion below.
func (s *rstore) reserve() {
	s.mu.RLock()
	defer s.mu.RUnlock()
}

// refill inverts the order through reserve: positive (both cycle edges are
// reported, this one with its call chain).
func (sh *rshard) refill(s *rstore) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.reserve()
}
