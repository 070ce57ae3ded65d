package chunkstore

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestReadBatchCoalescesAdjacentRecords writes one multi-chunk batch — whose
// records land physically adjacent in the log — purges the read cache, and
// checks that a batch read of the whole set merges runs into coalesced
// segment reads, returns every payload intact, and tags the results so the
// prefetch hit telemetry attributes the subsequent point reads.
func TestReadBatchCoalescesAdjacentRecords(t *testing.T) {
	for _, suite := range []string{"aes-sha256", "null"} {
		t.Run(suite, func(t *testing.T) {
			env := newTestEnv(t, suite)
			s := env.open(t)
			defer s.Close()

			const n = 16
			var cids []ChunkID
			var payloads [][]byte
			b := s.NewBatch()
			for i := 0; i < n; i++ {
				cid, err := s.AllocateChunkID()
				if err != nil {
					t.Fatalf("AllocateChunkID: %v", err)
				}
				p := bytes.Repeat([]byte{byte(i + 1)}, 200)
				b.Write(cid, p)
				cids = append(cids, cid)
				payloads = append(payloads, p)
			}
			if err := s.Commit(b, true); err != nil {
				t.Fatalf("Commit: %v", err)
			}
			s.rcache.purge()

			res := s.ReadBatch(cids)
			if len(res) != n {
				t.Fatalf("ReadBatch returned %d results, want %d", len(res), n)
			}
			for i, r := range res {
				if r.Err != nil {
					t.Fatalf("ReadBatch[%d]: %v", i, r.Err)
				}
				if !bytes.Equal(r.Data, payloads[i]) {
					t.Fatalf("ReadBatch[%d]: wrong data (%d bytes)", i, len(r.Data))
				}
			}
			st := s.Stats()
			if st.CoalescedReads < 1 {
				t.Fatalf("CoalescedReads = %d, want >= 1", st.CoalescedReads)
			}
			if st.CoalescedChunks < 2 {
				t.Fatalf("CoalescedChunks = %d, want >= 2", st.CoalescedChunks)
			}
			if st.PrefetchedChunks != n {
				t.Fatalf("PrefetchedChunks = %d, want %d", st.PrefetchedChunks, n)
			}

			// Point reads a moment later are the prefetch paying off.
			for i, cid := range cids {
				got, err := s.Read(cid)
				if err != nil || !bytes.Equal(got, payloads[i]) {
					t.Fatalf("Read(%d): %v", cid, err)
				}
			}
			if st := s.Stats(); st.PrefetchHits != n {
				t.Fatalf("PrefetchHits = %d, want %d", st.PrefetchHits, n)
			}
		})
	}
}

// TestReadBatchErrorsAndDuplicates checks the per-chunk error contract: a
// batch mixing live chunks, never-written ids, and duplicates reports each
// result independently without failing the batch.
func TestReadBatchErrorsAndDuplicates(t *testing.T) {
	env := newTestEnv(t, "aes-sha256")
	s := env.open(t)
	defer s.Close()

	good := allocWrite(t, s, []byte("payload"))
	hole, err := s.AllocateChunkID()
	if err != nil {
		t.Fatalf("AllocateChunkID: %v", err)
	}
	s.rcache.purge()

	if res := s.ReadBatch(nil); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
	res := s.ReadBatch([]ChunkID{good, hole, good})
	if res[0].Err != nil || !bytes.Equal(res[0].Data, []byte("payload")) {
		t.Fatalf("res[0]: %q, %v", res[0].Data, res[0].Err)
	}
	if !errors.Is(res[1].Err, ErrNotWritten) {
		t.Fatalf("res[1].Err = %v, want ErrNotWritten", res[1].Err)
	}
	if res[2].Err != nil || !bytes.Equal(res[2].Data, []byte("payload")) {
		t.Fatalf("res[2]: %q, %v", res[2].Data, res[2].Err)
	}
}

// TestReadBatchRetryOnCleanerRelocation drives the batch-scope relocation
// race by hand: a batch plans its snapshots, the cleaner then evacuates the
// planned segment, and every completed plan must fail revalidation and fall
// back to the point-read path — returning the relocated bytes, never the
// stale ones, and never leaking a segment pin. The gapped case runs the same
// race over a run merged across a dead record.
func TestReadBatchRetryOnCleanerRelocation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		gapped bool
	}{{"adjacent", false}, {"gapped", true}} {
		t.Run(tc.name, func(t *testing.T) {
			env := newTestEnv(t, "aes-sha256")
			env.cfg.SegmentSize = 4 << 10
			env.cfg.DisableAutoClean = true
			s := env.open(t)
			defer s.Close()

			// Two victims share their early segment with filler that is
			// then rewritten, making the segment cleanable. In the gapped
			// case one filler chunk sits between the victims, so its
			// rewrite leaves a dead hole inside the victims' run.
			b := s.NewBatch()
			var victims, filler []ChunkID
			for i := 0; i < 2; i++ {
				if i == 1 && tc.gapped {
					cid, err := s.AllocateChunkID()
					if err != nil {
						t.Fatalf("AllocateChunkID: %v", err)
					}
					b.Write(cid, bytes.Repeat([]byte{'G'}, 512))
					filler = append(filler, cid)
				}
				cid, err := s.AllocateChunkID()
				if err != nil {
					t.Fatalf("AllocateChunkID: %v", err)
				}
				b.Write(cid, bytes.Repeat([]byte{'V', byte(i)}, 128))
				victims = append(victims, cid)
			}
			if err := s.Commit(b, true); err != nil {
				t.Fatalf("Commit: %v", err)
			}
			for i := 0; i < 24; i++ {
				filler = append(filler, allocWrite(t, s, bytes.Repeat([]byte{byte(i)}, 512)))
			}
			for _, cid := range filler {
				writeChunk(t, s, cid, bytes.Repeat([]byte("x"), 512))
			}
			s.rcache.purge()

			res := make([]BatchRead, len(victims))
			for i, cid := range victims {
				res[i].CID = cid
			}
			pending := []readSlot{{idx: 0}, {idx: 1}}
			var slow []int
			plans := s.planRound(res, pending, &slow, true)
			if len(plans) != 2 || len(slow) != 0 {
				t.Fatalf("planRound: %d plans, %d slow; want 2, 0", len(plans), len(slow))
			}
			tasks := coalescePlans(plans)
			if len(tasks) != 1 {
				t.Fatalf("coalescePlans: %d tasks, want the victims merged into 1", len(tasks))
			}
			a, z := tasks[0][0].e.loc, tasks[0][1].e.loc
			if gap := z.Off - (a.Off + a.Len); (gap > 0) != tc.gapped {
				t.Fatalf("gap between victims = %d bytes, gapped = %v", gap, tc.gapped)
			}

			if err := s.Clean(); err != nil {
				t.Fatalf("Clean: %v", err)
			}

			// Every plan fails revalidation: it abandons its flight, releases
			// its segment pin, publishes nothing, and leaves its chunk for
			// the next round.
			s.runPlans(plans)
			for i, p := range plans {
				if !p.stale {
					t.Fatalf("plan %d accepted a relocated snapshot", i)
				}
				if got := p.seg.readers.Load(); got != 0 {
					t.Fatalf("segment pin count = %d after the round, want 0", got)
				}
				if _, ok := s.rcache.get(p.cid); ok {
					t.Fatalf("stale read of chunk %d was published to the read cache", p.cid)
				}
			}
			if pending = s.settleRound(res, pending, true); len(pending) != 2 {
				t.Fatalf("%d chunks left for the next round, want 2", len(pending))
			}

			// The next round lands on the relocated records.
			s.runPlans(s.planRound(res, pending, &slow, true))
			if pending = s.settleRound(res, pending, true); len(pending) != 0 || len(slow) != 0 {
				t.Fatalf("second round left %d pending, %d slow", len(pending), len(slow))
			}
			for i, r := range res {
				want := bytes.Repeat([]byte{'V', byte(i)}, 128)
				if r.Err != nil || !bytes.Equal(r.Data, want) {
					t.Fatalf("res[%d] after relocation: %q, %v", i, r.Data, r.Err)
				}
			}
		})
	}
}

// TestReadBatchInlineWorker checks PrefetchWorkers=1 executes the whole
// batch inline on the calling goroutine (no pool) with identical results.
func TestReadBatchInlineWorker(t *testing.T) {
	env := newTestEnv(t, "null")
	env.cfg.PrefetchWorkers = 1
	s := env.open(t)
	defer s.Close()

	var cids []ChunkID
	for i := 0; i < 8; i++ {
		cids = append(cids, allocWrite(t, s, bytes.Repeat([]byte{byte(i + 1)}, 100)))
	}
	s.rcache.purge()
	for i, r := range s.ReadBatch(cids) {
		want := bytes.Repeat([]byte{byte(i + 1)}, 100)
		if r.Err != nil || !bytes.Equal(r.Data, want) {
			t.Fatalf("inline ReadBatch[%d]: %v", i, r.Err)
		}
	}
}

// TestReadBatchFollowsChunksAlreadyInFlight pins the follow contract: a
// chunk some other reader is already fetching is followed by the batch,
// which gets the leader's value when the leader completes and re-reads from
// storage when it abandons. By the deadlock rule the batch releases its own
// flights before it waits on the one it joined, and none survive the batch.
func TestReadBatchFollowsChunksAlreadyInFlight(t *testing.T) {
	for _, tc := range []struct {
		name    string
		abandon bool
		want    string
	}{{"complete", false, "leader's value"}, {"abandon", true, "busy"}} {
		t.Run(tc.name, func(t *testing.T) {
			env := newTestEnv(t, "aes-sha256")
			s := env.open(t)
			defer s.Close()

			free := allocWrite(t, s, []byte("free"))
			busy := allocWrite(t, s, []byte("busy"))
			s.rcache.purge()

			// The test leads busy's flight, standing in for a concurrent
			// reader mid-fetch.
			lead, _ := s.flights.claim(busy)
			if lead == nil {
				t.Fatal("claim(busy) found a flight with no reader active")
			}
			done := make(chan []BatchRead, 1)
			go func() { done <- s.ReadBatch([]ChunkID{free, busy}) }()
			waitForJoiners(t, s, busy, &lead.flight, 1)

			// The batch claimed free before joining busy; it must release
			// free's flight while the test still holds busy's.
			sh := s.flights.shard(free)
			for deadline := time.Now().Add(time.Minute); ; {
				sh.mu.Lock()
				airborne := sh.m[free] != nil
				sh.mu.Unlock()
				if !airborne {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the batch waits on busy's flight while still leading free's")
				}
				runtime.Gosched()
			}

			if tc.abandon {
				s.flights.abandon(busy, &lead.flight)
			} else {
				s.flights.complete(busy, &lead.flight, []byte(tc.want), nil)
			}
			res := <-done
			if res[0].Err != nil || string(res[0].Data) != "free" {
				t.Fatalf("free chunk: %q, %v", res[0].Data, res[0].Err)
			}
			if res[1].Err != nil || string(res[1].Data) != tc.want {
				t.Fatalf("followed chunk: %q, %v; want %q", res[1].Data, res[1].Err, tc.want)
			}
			for _, cid := range []ChunkID{free, busy} {
				probe, _ := s.flights.claim(cid)
				if probe == nil {
					t.Fatalf("chunk %d's flight still registered after the batch", cid)
				}
				s.flights.abandon(cid, &probe.flight)
			}
		})
	}
}

// writeHoledRun commits n chunks of payload size bytes in one batch, so
// their records sit next to each other in one segment, then rewrites every
// odd chunk in a later commit. The odd records move to the log tail and the
// even survivors are left separated by dead holes. It returns the even
// chunks, their payloads, and the dead locations the odd chunks left.
func writeHoledRun(t *testing.T, s *Store, n, size int) (evens []ChunkID, payloads [][]byte, dead []Location) {
	t.Helper()
	b := s.NewBatch()
	var odds []ChunkID
	for i := 0; i < n; i++ {
		cid, err := s.AllocateChunkID()
		if err != nil {
			t.Fatalf("AllocateChunkID: %v", err)
		}
		p := bytes.Repeat([]byte{byte(i + 1)}, size)
		b.Write(cid, p)
		if i%2 == 0 {
			evens = append(evens, cid)
			payloads = append(payloads, p)
		} else {
			odds = append(odds, cid)
		}
	}
	if err := s.Commit(b, true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	for _, cid := range odds {
		dead = append(dead, chunkLoc(t, s, cid).loc)
	}
	b = s.NewBatch()
	for _, cid := range odds {
		b.Write(cid, []byte("moved to the tail"))
	}
	if err := s.Commit(b, true); err != nil {
		t.Fatalf("Commit(rewrite): %v", err)
	}
	seg := chunkLoc(t, s, evens[0]).loc.Seg
	for _, cid := range evens {
		if got := chunkLoc(t, s, cid).loc.Seg; got != seg {
			t.Fatalf("setup: survivors span segments %d and %d", seg, got)
		}
	}
	return evens, payloads, dead
}

// TestReadBatchCoalescesAcrossHoles checks that survivors separated by the
// dead records a later commit left behind come back from one coalesced
// segment read, and that hole bytes are never parsed or validated: damage
// inside a hole fails no chunk, while damage inside a member record fails
// only that chunk.
func TestReadBatchCoalescesAcrossHoles(t *testing.T) {
	for _, tc := range []struct {
		name string
		// damage corrupts the store after the holes exist; it returns the
		// index of the survivor expected to fail, or -1.
		damage func(t *testing.T, env *testEnv, s *Store, evens []ChunkID, dead []Location) int
	}{
		{"clean", func(*testing.T, *testEnv, *Store, []ChunkID, []Location) int { return -1 }},
		{"flip-in-hole", func(t *testing.T, env *testEnv, _ *Store, _ []ChunkID, dead []Location) int {
			d := dead[len(dead)/2]
			if err := env.fs.FlipBit(segmentName(d.Seg), int64(d.Off)+int64(d.Len)/2, 5); err != nil {
				t.Fatalf("FlipBit: %v", err)
			}
			return -1
		}},
		{"flip-in-member", func(t *testing.T, env *testEnv, s *Store, evens []ChunkID, _ []Location) int {
			rotChunk(t, env, s, evens[3])
			return 3
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newTestEnv(t, "aes-sha256")
			env.cfg.SegmentSize = 64 << 10
			s := env.open(t)
			defer s.Close()

			evens, payloads, dead := writeHoledRun(t, s, 16, 200)
			bad := tc.damage(t, env, s, evens, dead)
			s.rcache.purge()
			before := s.Stats()

			res := s.ReadBatch(evens)
			for i, r := range res {
				if i == bad {
					if !errors.Is(r.Err, ErrTampered) {
						t.Fatalf("damaged member %d: err = %v, want ErrTampered", i, r.Err)
					}
					continue
				}
				if r.Err != nil || !bytes.Equal(r.Data, payloads[i]) {
					t.Fatalf("survivor %d: %q, %v", i, r.Data, r.Err)
				}
			}
			st := s.Stats()
			if got := st.CoalescedReads - before.CoalescedReads; got != 1 {
				t.Fatalf("coalesced reads = %d, want the survivors in 1", got)
			}
			if got := st.CoalescedChunks - before.CoalescedChunks; got != int64(len(evens)) {
				t.Fatalf("coalesced chunks = %d, want %d", got, len(evens))
			}
		})
	}
}

// TestCoalescePlansRules pins the merge rule on synthetic plans: records in
// one segment merge across holes up to coalesceGap, never across a larger
// hole, a segment boundary, a span past coalesceMax, a record still in the
// write-behind buffer, or a plan without a segment.
func TestCoalescePlansRules(t *testing.T) {
	segA, segB := &segment{}, &segment{}
	plan := func(seg *segment, num uint64, off, n uint32) *readPlan {
		return &readPlan{
			e:        entry{loc: Location{Seg: num, Off: off, Len: n}},
			seg:      seg,
			buf:      make([]byte, n),
			fromFile: int64(n),
		}
	}
	const rec = 1 << 10
	for _, tc := range []struct {
		name  string
		plans []*readPlan
		want  []int // plans per task, in (segment, offset) order
	}{
		{"adjacent", []*readPlan{plan(segA, 1, 0, rec), plan(segA, 1, rec, rec)}, []int{2}},
		{"hole-at-limit", []*readPlan{plan(segA, 1, 0, rec), plan(segA, 1, rec+coalesceGap, rec)}, []int{2}},
		{"hole-past-limit", []*readPlan{plan(segA, 1, 0, rec), plan(segA, 1, rec+coalesceGap+1, rec)}, []int{1, 1}},
		{"unsorted-holes", []*readPlan{plan(segA, 1, 4*rec, rec), plan(segA, 1, 0, rec), plan(segA, 1, 2*rec, rec)}, []int{3}},
		{"different-segments", []*readPlan{plan(segA, 1, 0, rec), plan(segB, 2, rec, rec)}, []int{1, 1}},
		// Records one coalesceGap apart: every hole is within the limit,
		// and the 17th record would stretch the span past coalesceMax.
		{"span-past-max", func() []*readPlan {
			var ps []*readPlan
			for off := uint32(0); off <= coalesceMax; off += coalesceGap {
				ps = append(ps, plan(segA, 1, off, rec))
			}
			return ps
		}(), []int{coalesceMax / coalesceGap, 1}},
		// A plan that found damage while planning has no segment.
		{"damaged-member", []*readPlan{plan(segA, 1, 0, 0), plan(nil, 1, rec, 0)}, []int{1, 1}},
		{"write-behind-member", []*readPlan{plan(segA, 1, 0, rec), func() *readPlan {
			p := plan(segA, 1, rec, rec)
			p.fromFile = rec / 2
			return p
		}()}, []int{1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tasks := coalescePlans(tc.plans)
			var got []int
			for _, task := range tasks {
				got = append(got, len(task))
				for i, p := range task {
					if i > 0 && planCompare(task[i-1], p) >= 0 {
						t.Fatalf("task plans out of (segment, offset) order")
					}
				}
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("tasks = %v, want %v", got, tc.want)
			}
		})
	}
}
