package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tdb/internal/lru"
)

// Directed tests for cleaning cycles that span commits: victims evacuated
// by one post-commit step stay on disk until a later step closes the cycle
// with a checkpoint.

// newCycleEnv configures small segments and a one-byte clean step, so each
// post-commit step evacuates about one victim and cycles stay open across
// many commits.
func newCycleEnv(t *testing.T) *testEnv {
	env := newTestEnv(t, "aes-sha256")
	env.cfg.SegmentSize = 4 << 10
	env.cfg.MaxUtilization = 0.5
	env.cfg.CleanStepBytes = 1
	return env
}

// cycleChurn overwrites random chunks with durable commits and remembers
// every acknowledged value.
type cycleChurn struct {
	s     *Store
	ids   []ChunkID
	want  map[ChunkID][]byte
	rng   *rand.Rand
	round int
}

func newCycleChurn(t *testing.T, s *Store, chunks int) *cycleChurn {
	t.Helper()
	c := &cycleChurn{s: s, want: map[ChunkID][]byte{}, rng: rand.New(rand.NewSource(5))}
	for i := 0; i < chunks; i++ {
		v := bytes.Repeat([]byte{byte(i)}, 100)
		cid := allocWrite(t, s, v)
		c.ids = append(c.ids, cid)
		c.want[cid] = v
	}
	return c
}

// commit writes `writes` random chunks in one durable commit. A commit
// that returns ErrMaintenance stands, so its values are acknowledged too.
func (c *cycleChurn) commit(writes int) error {
	c.round++
	b := c.s.NewBatch()
	staged := map[ChunkID][]byte{}
	for k := 0; k < writes; k++ {
		cid := c.ids[c.rng.Intn(len(c.ids))]
		v := []byte(fmt.Sprintf("round-%d-%d-%s", c.round, k, bytes.Repeat([]byte("x"), 80)))
		b.Write(cid, v)
		staged[cid] = v
	}
	err := c.s.Commit(b, true)
	if err == nil || errors.Is(err, ErrMaintenance) {
		for cid, v := range staged {
			c.want[cid] = v
		}
	}
	return err
}

// mustCommit is commit that fails the test on any error.
func (c *cycleChurn) mustCommit(t *testing.T, writes int) {
	t.Helper()
	if err := c.commit(writes); err != nil {
		t.Fatalf("commit round %d: %v", c.round, err)
	}
}

// untilOpenCycle commits until a step leaves a cycle open with pending
// victims and returns them.
func (c *cycleChurn) untilOpenCycle(t *testing.T) []uint64 {
	t.Helper()
	for i := 0; i < 3000; i++ {
		c.mustCommit(t, 4)
		if v, closing := cycleState(c.s); len(v) > 0 && !closing {
			return v
		}
	}
	t.Fatal("no cleaning cycle stayed open across a commit")
	return nil
}

// check reads every acknowledged value back.
func (c *cycleChurn) check(t *testing.T, s *Store) {
	t.Helper()
	for cid, v := range c.want {
		got, err := s.Read(cid)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Read(%d) = %q, %v; want %q", cid, got, err, v)
		}
	}
}

// cycleState returns the open cycle's pending victims and whether a close
// is owed.
func cycleState(s *Store) ([]uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.cleanVictims), s.cleanClosing
}

// segmentsOnDisk reports which of nums still have a segment file.
func segmentsOnDisk(t *testing.T, env *testEnv, nums []uint64) []uint64 {
	t.Helper()
	names, err := env.mem.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	var out []uint64
	for _, num := range nums {
		if slices.Contains(names, segmentName(num)) {
			out = append(out, num)
		}
	}
	return out
}

// untilFreed commits until none of nums has a segment file left.
func (c *cycleChurn) untilFreed(t *testing.T, env *testEnv, nums []uint64) {
	t.Helper()
	for i := 0; i < 3000; i++ {
		if len(segmentsOnDisk(t, env, nums)) == 0 {
			return
		}
		c.mustCommit(t, 4)
	}
	t.Fatalf("victims %v never reclaimed", segmentsOnDisk(t, env, nums))
}

func TestCleanCycleSpansCommits(t *testing.T) {
	env := newCycleEnv(t)
	s := env.open(t)
	defer s.Close()
	c := newCycleChurn(t, s, 40)
	for i := 0; i < 600; i++ {
		c.mustCommit(t, 4)
	}
	st := s.Stats()
	if st.CleanCycles == 0 || st.Cleanings <= 2*st.CleanCycles {
		t.Fatalf("%d victims over %d cycles: cycles should batch many one-victim steps",
			st.Cleanings, st.CleanCycles)
	}
	c.check(t, s)
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestCleanCycleCrashMidCycle(t *testing.T) {
	for _, hardened := range []bool{false, true} {
		t.Run(fmt.Sprintf("copiesHardened=%v", hardened), func(t *testing.T) {
			env := newCycleEnv(t)
			s := env.open(t)
			c := newCycleChurn(t, s, 40)
			victims := c.untilOpenCycle(t)
			if hardened {
				// Commit on until a later commit's sync has covered an
				// earlier step's copies while the cycle is still open.
				for {
					c.mustCommit(t, 4)
					cur, closing := cycleState(s)
					if closing || len(cur) == 0 {
						victims = c.untilOpenCycle(t)
						continue
					}
					if len(cur) > len(victims) && slices.Equal(cur[:len(victims)], victims) {
						victims = cur
						break
					}
					victims = cur
				}
			}
			if on := segmentsOnDisk(t, env, victims); len(on) != len(victims) {
				t.Fatalf("open cycle freed victims early: %v of %v on disk", on, victims)
			}
			env.mem.Crash()

			s2 := env.open(t)
			defer s2.Close()
			if err := s2.Verify(); err != nil {
				t.Fatalf("Verify after mid-cycle crash: %v", err)
			}
			c.s = s2
			c.check(t, s2)
			c.untilFreed(t, env, victims)
			c.check(t, s2)
			if err := s2.Verify(); err != nil {
				t.Fatalf("Verify after reclaiming: %v", err)
			}
		})
	}
}

func TestCleanCycleSnapshotMidCycle(t *testing.T) {
	env := newCycleEnv(t)
	s := env.open(t)
	defer s.Close()
	c := newCycleChurn(t, s, 40)
	victims := c.untilOpenCycle(t)
	snap, err := s.TakeSnapshot()
	if err != nil {
		t.Fatalf("TakeSnapshot: %v", err)
	}
	frozen := map[ChunkID][]byte{}
	for cid, v := range c.want {
		frozen[cid] = v
	}
	snapContent := func() map[ChunkID][]byte {
		got := map[ChunkID][]byte{}
		err := snap.ForEach(func(cid ChunkID, _ []byte, ciphertext []byte) error {
			plain, err := env.suite.Decrypt(ciphertext)
			got[cid] = plain
			return err
		})
		if err != nil {
			t.Fatalf("snapshot ForEach: %v", err)
		}
		return got
	}

	cycles := s.Stats().CleanCycles
	for i := 0; s.Stats().CleanCycles == cycles; i++ {
		if i == 3000 {
			t.Fatal("cycle never closed with a snapshot open")
		}
		c.mustCommit(t, 4)
	}
	if on := segmentsOnDisk(t, env, victims); len(on) != len(victims) {
		t.Fatalf("close freed snapshot-pinned victims: %v of %v on disk", on, victims)
	}
	got := snapContent()
	if len(got) != len(frozen) {
		t.Fatalf("snapshot holds %d chunks, want %d", len(got), len(frozen))
	}
	for cid, v := range frozen {
		if !bytes.Equal(got[cid], v) {
			t.Fatalf("snapshot chunk %d = %q after the close, want %q", cid, got[cid], v)
		}
	}

	snap.Close()
	c.untilFreed(t, env, victims)
	c.check(t, s)
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestCleanCycleFailedCloseRetries(t *testing.T) {
	env := newCycleEnv(t)
	env.cfg.DisableAutoCheckpoint = true
	env.cfg.Retry.Sleep = func(time.Duration) {}
	s := env.open(t)
	defer s.Close()
	c := newCycleChurn(t, s, 40)
	c.untilOpenCycle(t)

	// Every superblock write fails past the retry bound, so any checkpoint
	// fails; commits themselves never write the superblock once its
	// deferred sync has been paid.
	env.fs.SetFaultFilter(func(name string) bool { return name == superblockName })
	armed := false
	var victims []uint64
	for i := 0; ; i++ {
		if i == 3000 {
			t.Fatal("no cycle close failed")
		}
		s.mu.Lock()
		superDirty := s.superDirty
		s.mu.Unlock()
		if !superDirty && !armed {
			env.fs.SetTransientProb(0, 1, 100)
			armed = true
		}
		err := c.commit(4)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrMaintenance) {
			t.Fatalf("commit failed outright: %v", err)
		}
		if cur, closing := cycleState(s); closing && len(cur) > 0 {
			victims = cur
			break
		}
		// An unblocking checkpoint inside a step failed, not a close; the
		// step's victims stay pending. Disarm and try the next cycle.
		env.fs.SetTransientProb(0, 0, 0)
		armed = false
	}
	env.fs.SetTransientProb(0, 0, 0)
	if on := segmentsOnDisk(t, env, victims); len(on) != len(victims) {
		t.Fatalf("failed close freed victims: %v of %v on disk", on, victims)
	}
	cycles := s.Stats().CleanCycles
	c.mustCommit(t, 4)
	if got := s.Stats().CleanCycles; got != cycles+1 {
		t.Fatalf("next commit closed %d cycles, want 1", got-cycles)
	}
	if on := segmentsOnDisk(t, env, victims); len(on) != 0 {
		t.Fatalf("retried close left victims %v on disk", on)
	}
	c.check(t, s)
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestCleanCycleIdleCleanCloses(t *testing.T) {
	env := newCycleEnv(t)
	s := env.open(t)
	defer s.Close()
	c := newCycleChurn(t, s, 40)
	victims := c.untilOpenCycle(t)
	cycles := s.Stats().CleanCycles
	if err := s.Clean(); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	if v, closing := cycleState(s); len(v) != 0 || closing {
		t.Fatalf("Clean left cycle open: victims %v closing %v", v, closing)
	}
	if got := s.Stats().CleanCycles; got != cycles+1 {
		t.Fatalf("Clean closed %d cycles, want 1", got-cycles)
	}
	if on := segmentsOnDisk(t, env, victims); len(on) != 0 {
		t.Fatalf("Clean left victims %v on disk", on)
	}
	c.check(t, s)
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestCleanCycleDirtyMapCap(t *testing.T) {
	// 300 chunks under fanout 16 make a map of about 20 nodes, several
	// times half of a 4 KiB pool.
	run := func(pool *lru.Pool) Stats {
		env := newCycleEnv(t)
		env.cfg.Fanout = 16
		env.cfg.CachePool = pool
		s := env.open(t)
		defer s.Close()
		c := newCycleChurn(t, s, 300)
		half := pool.Budget() / 2
		for i := 0; i < 1500; i++ {
			c.mustCommit(t, 1)
			s.mu.Lock()
			open := len(s.cleanVictims) > 0
			dirty := s.lm.dirtyBytes
			s.mu.Unlock()
			if open && half > 0 && dirty >= half {
				t.Fatalf("commit %d left a cycle open over %d dirty map bytes (cap %d)", i, dirty, half)
			}
		}
		c.check(t, s)
		if err := s.Verify(); err != nil {
			t.Fatalf("Verify: %v", err)
		}
		return s.Stats()
	}
	capped := run(lru.NewPool(4 << 10))
	free := run(lru.NewPool(64 << 20))
	if capped.CleanCycles == 0 {
		t.Fatal("cleaner never closed a cycle")
	}
	if capped.CleanCycles <= free.CleanCycles {
		t.Fatalf("cap closed %d cycles, uncapped run %d: the cap should close cycles early",
			capped.CleanCycles, free.CleanCycles)
	}
}

// TestCleanCycleCrashSweep lands power losses inside open cleaning cycles:
// seeded churn of durable and nondurable commits runs until a cycle stays
// open, then the store crashes a few writes later (wherever that falls:
// the next commit, a cleaning step, the closing checkpoint). Recovery must
// surface a prefix of the commit log holding every acknowledged durable
// commit, and verify clean.
func TestCleanCycleCrashSweep(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, wb := range []bool{false, true} {
			for _, lose := range []bool{false, true} {
				crashInOpenCycle(t, seed, wb, lose)
			}
		}
	}
}

func crashInOpenCycle(t *testing.T, seed int64, wb, lose bool) {
	t.Helper()
	name := fmt.Sprintf("seed %d writeBehind %v loseUnsynced %v", seed, wb, lose)
	env := newCycleEnv(t)
	env.cfg.DisableAutoCheckpoint = true
	env.cfg.Retry.Sleep = func(time.Duration) {}
	env.cfg.WriteBehind = -1
	if wb {
		env.cfg.WriteBehind = 256 << 10
	}
	env.fs.SetLoseUnsynced(lose)
	rng := rand.New(rand.NewSource(seed))
	s := env.open(t)
	const slots = 30
	var ids []ChunkID
	for i := 0; i < slots; i++ {
		cid, err := s.AllocateChunkID()
		if err != nil {
			t.Fatalf("%s: AllocateChunkID: %v", name, err)
		}
		ids = append(ids, cid)
	}
	type commit struct {
		vals    map[int]string
		durable bool
		acked   bool
	}
	var log []commit
	armAfter := 50 + rng.Intn(300)
	armed := false
	for round := 0; !env.fs.Crashed(); round++ {
		if round == 5000 {
			t.Fatalf("%s: store never crashed", name)
		}
		if !armed && round >= armAfter {
			if v, closing := cycleState(s); len(v) > 0 && !closing {
				env.fs.SetWriteBudget(int64(rng.Intn(12)))
				armed = true
			}
		}
		b := s.NewBatch()
		staged := map[int]string{}
		for k := 0; k < 1+rng.Intn(4); k++ {
			slot := rng.Intn(slots)
			v := fmt.Sprintf("r%d-k%d-%s", round, k, bytes.Repeat([]byte("v"), 200))
			b.Write(ids[slot], []byte(v))
			staged[slot] = v
		}
		durable := rng.Intn(2) == 0
		err := s.Commit(b, durable)
		log = append(log, commit{vals: staged, durable: durable, acked: err == nil || errors.Is(err, ErrMaintenance)})
		if err != nil && !env.fs.Crashed() {
			t.Fatalf("%s: commit round %d: %v", name, round, err)
		}
	}
	if lose {
		if err := env.fs.CrashLoseUnsynced(); err != nil {
			t.Fatalf("%s: CrashLoseUnsynced: %v", name, err)
		}
	} else {
		env.mem.Crash()
	}
	env.fs.SetLoseUnsynced(false)
	env.fs.SetWriteBudget(-1)
	s2, err := Open(env.cfg)
	if err != nil {
		t.Fatalf("%s: recovery: %v", name, err)
	}
	defer s2.Close()
	if err := s2.Verify(); err != nil {
		t.Fatalf("%s: Verify after recovery: %v", name, err)
	}
	got := map[int]string{}
	for slot, cid := range ids {
		if v, err := s2.Read(cid); err == nil {
			got[slot] = string(v)
		}
	}
	// The shortest legal prefix ends at the last acknowledged durable
	// commit; any longer prefix may also survive.
	minLen := 0
	for i, c := range log {
		if c.acked && c.durable {
			minLen = i + 1
		}
	}
	state := map[int]string{}
	for k := 0; k <= len(log); k++ {
		if k > 0 {
			for slot, v := range log[k-1].vals {
				state[slot] = v
			}
		}
		if k >= minLen && maps.Equal(state, got) {
			return
		}
	}
	t.Fatalf("%s: recovered state matches no commit prefix of length >= %d (log %d commits)", name, minLen, len(log))
}
