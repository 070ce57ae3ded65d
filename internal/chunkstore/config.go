package chunkstore

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"tdb/internal/lru"
	"tdb/internal/platform"
	"tdb/internal/sec"
)

// defaultWriteBehind resolves the write-behind default once per process: the
// TDB_WRITEBEHIND environment variable when set (the CI fault suites run with
// it both on and off so neither mode rots), otherwise 256 KiB.
var defaultWriteBehind = sync.OnceValue(func() int {
	switch v := os.Getenv("TDB_WRITEBEHIND"); v {
	case "", "on", "true":
		return 256 << 10
	case "off", "false", "0":
		return -1
	default:
		if n, err := strconv.Atoi(v); err == nil && n != 0 {
			return n
		}
		return 256 << 10
	}
})

// GroupCommitConfig configures the durable-commit coordinator. When enabled,
// concurrent durable commits coalesce into group-commit rounds: one log sync
// plus one one-way-counter advance hardens every commit record of the round
// (leader/follower; see groupcommit.go). The §3.2.2 ordering guarantee is
// preserved — the round's sync covers all earlier nondurable commits too.
//
// Group commit trades failure semantics for throughput: with it disabled
// (the default), a durable commit whose log sync fails is rolled back
// entirely and the batch stays retryable; with it enabled, the commit is
// already applied in memory when the deferred sync runs, so a sync failure
// surfaces the error from Commit while the state remains applied
// nondurably (a later durable commit or Close may still harden it).
type GroupCommitConfig struct {
	// Enabled turns group commit on. The zero value (off) preserves the
	// immediate sync-per-commit behavior.
	Enabled bool
	// MaxDelay bounds a round leader's batching window. The window stays
	// open only while announced durable commits are still inbound (pickled
	// or encrypting but not yet appended) — it closes the moment nothing
	// more is imminently arriving, so an idle store never waits out the
	// full delay. 0 disables the window entirely: the leader syncs
	// immediately, and coalescing still emerges naturally from commits
	// that append while a sync is in flight.
	MaxDelay time.Duration
	// MaxOps closes the batching window early once this many commits are
	// waiting on the round, bounding per-commit latency under sustained
	// load. 0 selects 64.
	MaxOps int
}

// Config configures a chunk store.
type Config struct {
	// Store is the untrusted store holding segments and the superblock.
	Store platform.UntrustedStore
	// Counter is the one-way counter used for replay detection. Required
	// when UseCounter is true.
	Counter platform.OneWayCounter
	// Suite provides encryption, hashing, and MACs. Required.
	Suite sec.Suite
	// UseCounter controls whether durable commits increment the one-way
	// counter. The paper's security-off configuration skips the counter
	// (§7.3); by convention callers set this to Suite.Name() != "null".
	UseCounter bool

	// SegmentSize is the soft maximum size of a log segment file. Default
	// 256 KiB.
	SegmentSize int
	// Fanout is the location map tree fanout. Default 64.
	Fanout int
	// MaxUtilization is the maximal fraction of segment bytes occupied by
	// live chunks before the cleaner runs (the paper's "database
	// utilization"; default 0.60, §7.3).
	MaxUtilization float64
	// CheckpointBytes is the residual log size that triggers an automatic
	// checkpoint. Default 4 MiB: checkpoints rewrite the dirty portion of
	// the location map, so frequent checkpoints inflate write volume; the
	// paper defers them to idle periods (§3.2.1).
	CheckpointBytes int64
	// CleanStepBytes is the per-commit step of a cleaning cycle: the most
	// live data one post-commit cleaner step copies, bounding per-commit
	// overhead (§3.2.1). A cycle spans as many steps as it needs and
	// publishes them all with one checkpoint when it closes. Default one
	// segment.
	CleanStepBytes int64
	// CachePool is the shared LRU pool for map nodes; one pool may be
	// shared with the object store's object cache (paper §4.2.2). If nil a
	// private 4 MiB pool is created.
	CachePool *lru.Pool
	// ReadCacheBytes bounds the validated-plaintext read cache, which serves
	// repeat reads without taking the store mutex. 0 selects the default
	// (4 MiB); a negative value disables the cache entirely.
	ReadCacheBytes int64
	// CommitWorkers is the number of goroutines used to encrypt and hash a
	// batch's payloads during commit preparation. 0 selects one worker per
	// CPU; 1 prepares inline on the committing goroutine.
	CommitWorkers int
	// PrefetchWorkers bounds the goroutines one ReadBatch call fans its
	// segment reads, hash validations, and decryptions across. 0 selects
	// one per CPU capped at 8; 1 executes the batch inline on the calling
	// goroutine.
	PrefetchWorkers int
	// DisableAutoClean turns off post-commit cleaning (the benchmarks'
	// idle-cleaning experiments drive the cleaner explicitly).
	DisableAutoClean bool
	// DisableAutoCheckpoint turns off the automatic residual-size
	// checkpoint trigger.
	DisableAutoCheckpoint bool
	// WriteBehind caps the in-memory tail buffer that batches record appends
	// into one large WriteAt per flush point (group-commit round sync, cap
	// overflow, segment seal, checkpoint, cleaning, scrub, snapshot, close).
	// 0 selects the default: the TDB_WRITEBEHIND environment variable when
	// set ("off"/"0"/"false" disables, an integer sets the cap in bytes),
	// otherwise 256 KiB. A negative value disables buffering, restoring the
	// WriteAt-per-record behavior. Durability is unaffected either way —
	// every fsync flushes first, and unflushed bytes of a crash are exactly
	// the nondurable suffix recovery already discards.
	WriteBehind int
	// Retry bounds how raw segment and superblock I/O retries transient
	// storage errors (platform.ErrTransient). Zero fields select defaults:
	// 4 attempts with 1ms backoff doubling to a 50ms cap.
	Retry RetryPolicy
	// GroupCommit coalesces concurrent durable commits into shared log
	// syncs and counter advances. Disabled by default.
	GroupCommit GroupCommitConfig
}

func (c *Config) fillDefaults() error {
	if c.Store == nil {
		return fmt.Errorf("%w: config requires a Store", ErrUsage)
	}
	if c.Suite == nil {
		return fmt.Errorf("%w: config requires a Suite", ErrUsage)
	}
	if c.UseCounter && c.Counter == nil {
		return fmt.Errorf("%w: UseCounter requires a Counter", ErrUsage)
	}
	if c.SegmentSize == 0 {
		c.SegmentSize = 256 << 10
	}
	if c.SegmentSize < 4<<10 {
		return fmt.Errorf("%w: segment size %d too small", ErrUsage, c.SegmentSize)
	}
	if c.Fanout == 0 {
		c.Fanout = 64
	}
	if c.Fanout < 2 || c.Fanout > 4096 {
		return fmt.Errorf("%w: fanout %d out of range [2,4096]", ErrUsage, c.Fanout)
	}
	if c.MaxUtilization == 0 {
		c.MaxUtilization = 0.60
	}
	if c.MaxUtilization < 0.05 || c.MaxUtilization > 0.97 {
		return fmt.Errorf("%w: max utilization %.2f out of range [0.05,0.97]", ErrUsage, c.MaxUtilization)
	}
	if c.CheckpointBytes == 0 {
		c.CheckpointBytes = 4 << 20
	}
	if c.CleanStepBytes == 0 {
		c.CleanStepBytes = int64(c.SegmentSize)
	}
	if c.CachePool == nil {
		c.CachePool = lru.NewPool(4 << 20)
	}
	if c.ReadCacheBytes == 0 {
		c.ReadCacheBytes = 4 << 20
	}
	if c.CommitWorkers < 0 {
		return fmt.Errorf("%w: commit workers %d negative", ErrUsage, c.CommitWorkers)
	}
	if c.PrefetchWorkers < 0 {
		return fmt.Errorf("%w: prefetch workers %d negative", ErrUsage, c.PrefetchWorkers)
	}
	if c.PrefetchWorkers == 0 {
		c.PrefetchWorkers = runtime.GOMAXPROCS(0)
		if c.PrefetchWorkers > 8 {
			c.PrefetchWorkers = 8
		}
	}
	if c.WriteBehind == 0 {
		c.WriteBehind = defaultWriteBehind()
	}
	if c.GroupCommit.MaxDelay < 0 {
		return fmt.Errorf("%w: group commit delay %v negative", ErrUsage, c.GroupCommit.MaxDelay)
	}
	if c.GroupCommit.MaxOps < 0 {
		return fmt.Errorf("%w: group commit ops %d negative", ErrUsage, c.GroupCommit.MaxOps)
	}
	if c.GroupCommit.Enabled && c.GroupCommit.MaxOps == 0 {
		c.GroupCommit.MaxOps = 64
	}
	c.Retry.fillDefaults()
	return nil
}
