// prefetch.go — scan-prefetch pipeline fixture (DESIGN.md §7.8): a batch
// read runs the same round loop as a point read. One short shared-lock
// section per round claims or joins every chunk's flight and snapshots the
// plans; worker goroutines spawned with no lock held fetch and decrypt the
// claimed chunks; each led flight is completed, or abandoned when its plan
// went stale, before the round waits on the flights it joined. locked-io
// must stay silent on the pure planning section and on the off-lock workers
// — funneled I/O and bulk crypto are exactly what belongs there — while
// bulk crypto under the pool's dispatch mutex is still a violation, and the
// pool mutex joins the module lock graph as a new, acyclic class.
package chunkstore

import "sync"

// rpool is the fixture prefetch worker pool: its mutex is a distinct lock
// class (chunkstore.rpool.mu) with a consistent place in the global order
// (after rstore.mu, never inverted), so the lock-order analyzer must keep
// it cycle-free.
type rpool struct {
	mu    sync.Mutex
	queue [][]byte
}

// readBatch is the batch form of the read loop: negative for locked-io
// (nothing hot runs under the lock) and for raw-io-funnel (the reads go
// through the retry funnel).
func (s *rstore) readBatch(ids []uint64) ([][]byte, error) {
	out := make([][]byte, len(ids))
	for round := 0; round < readRounds; round++ {
		leads := make([]*rflight, len(ids))
		joined := make([]*rflight, len(ids))
		s.mu.RLock()
		stamp := s.epoch
		n := s.length
		for i, id := range ids {
			if out[i] == nil {
				leads[i], joined[i] = s.flights.claim(id)
			}
		}
		s.mu.RUnlock()

		errs := make([]error, len(ids))
		var wg sync.WaitGroup
		for i := range ids {
			if leads[i] == nil {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				buf := make([]byte, n)
				if errs[i] = s.retry.run(func() error {
					_, err := s.file.ReadAt(buf, int64(ids[i]))
					return err
				}); errs[i] == nil {
					out[i], errs[i] = s.suite.Decrypt(buf)
				}
			}(i)
		}
		wg.Wait()

		s.mu.RLock()
		current := s.epoch == stamp
		s.mu.RUnlock()
		var err error
		for i, id := range ids {
			switch {
			case leads[i] == nil:
			case errs[i] != nil || !current:
				out[i] = nil
				if err == nil {
					err = errs[i]
				}
				s.flights.abandon(id, leads[i])
			default:
				s.flights.complete(id, leads[i], out[i])
			}
		}
		if err != nil {
			return nil, err
		}
		done := true
		for i, fl := range joined {
			if fl != nil {
				<-fl.done
				out[i] = fl.data
			}
			done = done && out[i] != nil
		}
		if done {
			return out, nil
		}
	}
	return nil, nil // budget spent: the caller takes the exclusive slow path
}

// dispatch establishes the sanctioned order rstore.mu → rpool.mu (a new
// edge with no inversion anywhere, so the class stays acyclic).
func (s *rstore) dispatch(p *rpool, b []byte) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p.mu.Lock()
	p.queue = append(p.queue, b)
	p.mu.Unlock()
}

// drain decrypts the queued buffers while holding the pool dispatch mutex:
// positive (bulk crypto under the pool lock stalls every worker).
func (p *rpool) drain(s *rstore) ([][]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([][]byte, 0, len(p.queue))
	for _, b := range p.queue {
		plain, err := s.suite.Decrypt(b)
		if err != nil {
			return nil, err
		}
		out = append(out, plain)
	}
	p.queue = nil
	return out, nil
}
