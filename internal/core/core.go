// Package core assembles TDB's layers — chunk store, object store,
// collection store, and backup store over the platform substrates — into
// the embedded database engine the paper describes (§2, Figure 1).
//
// The modular layering is preserved: applications that need only trusted
// chunk storage can use the chunk store alone (the paper's "minimal
// configuration"), while the full engine opened here provides typed
// objects, automatically indexed collections, and validated backups, all
// protected against malicious corruption and unauthorized reading.
package core

import (
	"errors"
	"fmt"
	"time"

	"tdb/internal/backupstore"
	"tdb/internal/chunkstore"
	"tdb/internal/collection"
	"tdb/internal/lru"
	"tdb/internal/objectstore"
	"tdb/internal/platform"
	"tdb/internal/sec"
)

// Options configures a database.
type Options struct {
	// Dir is the directory holding the database (untrusted store). Leave
	// empty and set Store to supply a custom store (tests use in-memory
	// stores).
	Dir string
	// Store overrides Dir with a custom untrusted store.
	Store platform.UntrustedStore

	// Secret is the device secret all keys derive from. On a real device it
	// lives in ROM or tamper-responsive SRAM; here the caller provides it
	// (or sets SecretFile to manage it as a file, like the paper's
	// emulation).
	Secret []byte
	// SecretFile, when set (and Secret empty), stores/loads the device
	// secret under this name in the untrusted store. Development
	// convenience only: a secret the attacker can read protects nothing.
	SecretFile string

	// Suite names the crypto suite: "3des-sha1" (the paper's TDB-S,
	// default), "aes-sha256", or "null" (security off — the paper's plain
	// TDB).
	Suite string

	// Counter is the one-way counter for replay detection. Nil uses a
	// counter emulated as a file in the store, exactly as the paper's
	// evaluation does (§7.2). Ignored for the "null" suite.
	Counter platform.OneWayCounter

	// Archive receives backups; nil disables the backup API.
	Archive platform.ArchivalStore

	// Registry holds the application's persistent classes. The collection
	// store's classes are registered automatically. Nil creates an empty
	// registry.
	Registry *objectstore.Registry

	// CacheBytes is the one budget for decoded objects and location map
	// nodes, which share one LRU order (default 4 MiB, the paper's
	// benchmark configuration). Every decoded object the object store
	// keeps — for 2PL, snapshot and prefetching readers alike — counts
	// against it; the plaintext read cache has its own ReadCacheBytes.
	CacheBytes int64
	// SegmentSize, Fanout, MaxUtilization, CheckpointBytes, CleanStepBytes
	// tune the chunk store (zero values select defaults; see
	// chunkstore.Config). CleanStepBytes is the per-commit step of a
	// cleaning cycle; a cycle spans commits and ends in one checkpoint.
	SegmentSize     int
	Fanout          int
	MaxUtilization  float64
	CheckpointBytes int64
	CleanStepBytes  int64
	// DisableAutoClean and DisableAutoCheckpoint defer maintenance to
	// explicit Clean/Checkpoint calls (idle-time cleaning).
	DisableAutoClean      bool
	DisableAutoCheckpoint bool

	// WriteBehind caps the chunk store's in-memory tail buffer, which
	// batches log appends into one large write per flush point. 0 selects
	// the default (TDB_WRITEBEHIND env override, else 256 KiB); negative
	// disables buffering. Durability guarantees are unchanged either way
	// (see chunkstore.Config.WriteBehind).
	WriteBehind int

	// ScanPrefetch is the default sliding-window depth iterators prefetch
	// ahead of their cursor: planned, coalesced, and decrypted off-mutex,
	// landing in the read cache just before dereference. 0 selects the
	// default (256 objects); negative disables. Iterator.SetPrefetch
	// overrides per scan.
	ScanPrefetch int

	// ReadCacheBytes bounds the chunk store's validated-plaintext read
	// cache, where prefetched chunks land and concurrent scanners share
	// each other's fetches (default 4 MiB; see
	// chunkstore.Config.ReadCacheBytes). Negative disables the cache.
	ReadCacheBytes int64

	// Retry governs how transient storage I/O errors are retried (zero
	// fields select the defaults; see chunkstore.RetryPolicy).
	Retry chunkstore.RetryPolicy

	// GroupCommit coalesces concurrent durable commits into shared log
	// syncs and one-way-counter advances (disabled by default; see
	// chunkstore.GroupCommitConfig for the semantics trade-off).
	GroupCommit chunkstore.GroupCommitConfig

	// LockTimeout bounds object lock waits (deadlock breaking); zero
	// selects the default.
	LockTimeout time.Duration
	// DisableLocking turns off transactional locking for strictly
	// single-threaded use (§4.2.3).
	DisableLocking bool
	// ReadonlyChecks enables the debug validation of read-only opens.
	ReadonlyChecks bool
}

// DB is an open TDB database.
type DB struct {
	opts    Options
	store   platform.UntrustedStore
	suite   sec.Suite
	counter platform.OneWayCounter
	pool    *lru.Pool

	chunks  *chunkstore.Store
	objects *objectstore.Store
	cols    *collection.Store
	backups *backupstore.Manager
}

// Open opens or creates a database. Opening an existing database performs
// full crash recovery and tamper validation; ErrTampered (from the
// chunkstore package) signals corruption or replay of a stale copy.
func Open(opts Options) (*DB, error) {
	db := &DB{opts: opts}
	if err := db.setup(); err != nil {
		return nil, err
	}
	cs, err := chunkstore.Open(db.chunkConfig())
	if err != nil {
		return nil, err
	}
	db.chunks = cs
	if err := db.layerUp(); err != nil {
		cs.Close()
		return nil, err
	}
	return db, nil
}

// setup resolves stores, suite, counter, registry, and cache pool.
func (db *DB) setup() error {
	opts := &db.opts
	switch {
	case opts.Store != nil:
		db.store = opts.Store
	case opts.Dir != "":
		ds, err := platform.NewDirStore(opts.Dir)
		if err != nil {
			return err
		}
		db.store = ds
	default:
		return errors.New("core: Options require Dir or Store")
	}

	secret := opts.Secret
	if len(secret) == 0 && opts.SecretFile != "" {
		fs, err := platform.NewFileSecret(db.store, opts.SecretFile, 32)
		if err != nil {
			return err
		}
		secret, err = fs.Secret()
		if err != nil {
			return err
		}
	}
	suiteName := opts.Suite
	if suiteName == "" {
		suiteName = "3des-sha1"
	}
	if suiteName != "null" && len(secret) == 0 {
		return errors.New("core: a device secret is required unless Suite is \"null\"")
	}
	if suiteName == "null" && len(secret) == 0 {
		secret = []byte("tdb-null-suite") // unused by the null suite
	}
	suite, err := sec.NewSuite(suiteName, secret)
	if err != nil {
		return err
	}
	db.suite = suite

	if suiteName != "null" {
		db.counter = opts.Counter
		if db.counter == nil {
			ctr, err := platform.NewFileCounter(db.store, "counter")
			if err != nil {
				return err
			}
			db.counter = ctr
		}
	}

	if opts.Registry == nil {
		opts.Registry = objectstore.NewRegistry()
	}
	collection.RegisterClasses(opts.Registry)

	budget := opts.CacheBytes
	if budget == 0 {
		budget = 4 << 20
	}
	db.pool = lru.NewPool(budget)
	return nil
}

func (db *DB) chunkConfig() chunkstore.Config {
	return chunkstore.Config{
		Store:                 db.store,
		Counter:               db.counter,
		Suite:                 db.suite,
		UseCounter:            db.suite.Name() != "null",
		SegmentSize:           db.opts.SegmentSize,
		Fanout:                db.opts.Fanout,
		MaxUtilization:        db.opts.MaxUtilization,
		CheckpointBytes:       db.opts.CheckpointBytes,
		CleanStepBytes:        db.opts.CleanStepBytes,
		CachePool:             db.pool,
		DisableAutoClean:      db.opts.DisableAutoClean,
		DisableAutoCheckpoint: db.opts.DisableAutoCheckpoint,
		WriteBehind:           db.opts.WriteBehind,
		ReadCacheBytes:        db.opts.ReadCacheBytes,
		Retry:                 db.opts.Retry,
		GroupCommit:           db.opts.GroupCommit,
	}
}

// layerUp builds the object and collection stores over db.chunks.
func (db *DB) layerUp() error {
	os, err := objectstore.Open(objectstore.Config{
		Chunks:         db.chunks,
		Registry:       db.opts.Registry,
		CachePool:      db.pool,
		LockTimeout:    db.opts.LockTimeout,
		DisableLocking: db.opts.DisableLocking,
		ReadonlyChecks: db.opts.ReadonlyChecks,
		ScanPrefetch:   db.opts.ScanPrefetch,
	})
	if err != nil {
		return err
	}
	db.objects = os
	cols, err := collection.NewStore(os)
	if err != nil {
		return err
	}
	db.cols = cols
	if db.opts.Archive != nil {
		db.backups = backupstore.NewManager(db.chunks, db.opts.Archive, db.suite)
	}
	return nil
}

// Close checkpoints and closes the database.
func (db *DB) Close() error {
	if db.backups != nil {
		db.backups.Close()
	}
	return db.objects.Close()
}

// Begin starts a collection transaction — the primary application API.
func (db *DB) Begin() *collection.CTransaction { return db.cols.Begin() }

// BeginReadOnly starts a snapshot collection transaction: it observes a
// consistent committed state, takes no object locks, never blocks on
// concurrent writers, and can never fail with ErrLockTimeout. Mutating
// operations fail with objectstore.ErrReadOnlyTxn. Ideal for the
// read-heavy traffic of a DRM meter store — rights checks, audits,
// reports — running alongside committing writers.
func (db *DB) BeginReadOnly() *collection.CTransaction { return db.cols.BeginReadOnly() }

// BeginObject starts a raw object transaction for applications using the
// object store directly. Databases that use collections must not mutate
// collection objects through this interface.
func (db *DB) BeginObject() *objectstore.Txn { return db.objects.Begin() }

// BeginObjectReadOnly starts a raw snapshot object transaction (the
// object-store analogue of BeginReadOnly).
func (db *DB) BeginObjectReadOnly() *objectstore.Txn { return db.objects.BeginReadOnly() }

// Objects exposes the object store layer.
func (db *DB) Objects() *objectstore.Store { return db.objects }

// Chunks exposes the chunk store layer.
func (db *DB) Chunks() *chunkstore.Store { return db.chunks }

// Collections exposes the collection store layer.
func (db *DB) Collections() *collection.Store { return db.cols }

// Verify audits the whole database against its Merkle tree.
func (db *DB) Verify() error { return db.chunks.Verify() }

// Checkpoint forces a location map checkpoint (idle-time maintenance).
func (db *DB) Checkpoint() error { return db.chunks.Checkpoint() }

// Clean compacts the log (idle-time cleaning, §3.2.1).
func (db *DB) Clean() error { return db.chunks.Clean() }

// Stats reports storage statistics.
func (db *DB) Stats() chunkstore.Stats { return db.chunks.Stats() }

// Scrub audits every live chunk against the Merkle tree and reports (and
// quarantines) the damaged ones. Unlike Verify, which fails on the first
// problem, Scrub is damage-tolerant: it enumerates everything wrong so the
// damage can be repaired from backups.
func (db *DB) Scrub() (*chunkstore.ScrubReport, error) { return db.chunks.Scrub() }

// Repair heals the damaged chunks in a scrub report from the archive's
// backup chain, then re-scrubs to prove the store is whole.
func (db *DB) Repair(report *chunkstore.ScrubReport) (*backupstore.RepairResult, error) {
	if db.opts.Archive == nil {
		return nil, errors.New("core: no archive configured")
	}
	return backupstore.Repair(db.chunks, db.opts.Archive, db.suite, report)
}

// BackupFull writes a full backup to the archive.
func (db *DB) BackupFull() (backupstore.Info, error) {
	if db.backups == nil {
		return backupstore.Info{}, errors.New("core: no archive configured")
	}
	return db.backups.Full()
}

// BackupIncremental writes an incremental backup containing the changes
// since the previous backup in this session (falling back to a full backup
// when there is none).
func (db *DB) BackupIncremental() (backupstore.Info, error) {
	if db.backups == nil {
		return backupstore.Info{}, errors.New("core: no archive configured")
	}
	return db.backups.Incremental()
}

// Restore rebuilds a database from the archive's backup chain into the
// location described by opts (which must name a fresh store) and opens it.
// Every stream is validated; tampered or out-of-order backups are rejected.
func Restore(opts Options, archive platform.ArchivalStore) (*DB, error) {
	db := &DB{opts: opts}
	if err := db.setup(); err != nil {
		return nil, err
	}
	cs, err := chunkstore.Open(db.chunkConfig())
	if err != nil {
		return nil, err
	}
	if cs.Stats().Chunks != 0 {
		cs.Close()
		return nil, errors.New("core: restore target is not empty")
	}
	chain, err := backupstore.Chain(archive, db.suite)
	if err != nil {
		cs.Close()
		return nil, err
	}
	names := make([]string, len(chain))
	for i, c := range chain {
		names[i] = c.Name
	}
	if err := backupstore.Restore(cs, archive, db.suite, names); err != nil {
		cs.Close()
		return nil, err
	}
	db.chunks = cs
	if err := db.layerUp(); err != nil {
		cs.Close()
		return nil, err
	}
	return db, nil
}

// String describes the configuration.
func (db *DB) String() string {
	return fmt.Sprintf("tdb(%s, cache %d)", db.suite.Name(), db.pool.Budget())
}
