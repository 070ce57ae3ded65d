// Full-collection scan experiments: the workload the iterator prefetch
// pipeline (DESIGN.md §7.8) optimizes. A collection 4× the cache budget is
// swept end to end in key order by concurrent scanners, once with the
// prefetch window disabled (window 0 — the pre-pipeline point-read behavior,
// kept as the in-file baseline) and once with the default window, so the
// scans/s ratio and the coalesced-read / prefetch-hit counters record what
// the pipeline buys. The scan-vs-writer variant adds a continuous durable
// writer, checking the pipeline holds up while the log churns underneath;
// the scan-fragmented variant rewrites every 8th object before the sweep, so
// the loaded run is broken by the dead records updates leave behind.
//
// Like the TPC-B harness (tpcb.BenchEnv), the storage substrate is the
// simulated mechanical disk with the paper's parameters — here with read
// charging on, modeling the cold scans the cache cannot absorb — and the
// reported throughput combines host CPU time with simulated disk time. That
// is what makes the coalescing measurable: a point-read sweep pays one seek
// and rotation per record, a coalesced sweep pays them once per segment run.
// Results join BENCH_objstore.json as scan_runs rows.
package main

import (
	"fmt"
	"sync"
	"time"

	//tdblint:ignore secret-hygiene deterministic benchmark workload generation; no secret material
	"math/rand"

	"tdb"
	"tdb/internal/platform"
)

// scanRunResult is one scan configuration's measurements.
type scanRunResult struct {
	Workload string `json:"workload"`
	Scanners int    `json:"scanners"`
	// Window is the iterator prefetch depth; 0 disables the pipeline and
	// reproduces the pre-prefetch point-read scan, so window-0 rows are the
	// baseline the nonzero-window rows are read against.
	Window        int     `json:"prefetch_window"`
	Objects       int     `json:"objects"`
	Scans         int     `json:"scans"`
	ScansPerSec   float64 `json:"scans_per_sec"`
	ObjectsPerSec float64 `json:"objects_per_sec"`
	// CPUMillisPerScan and DiskMillisPerScan split the modeled scan cost
	// into host-CPU and simulated-disk components (the tpcb.Result split).
	CPUMillisPerScan  float64 `json:"cpu_ms_per_scan"`
	DiskMillisPerScan float64 `json:"disk_ms_per_scan"`
	// CoalescedReadsPerScan and PrefetchedChunksPerScan attribute a
	// throughput change: a regression with unchanged coalescing is a
	// scheduling problem, one with collapsed coalescing means the batch
	// planner stopped merging adjacent records.
	CoalescedReadsPerScan   float64 `json:"coalesced_reads_per_scan"`
	PrefetchedChunksPerScan float64 `json:"prefetched_chunks_per_scan"`
	// PrefetchHits counts prefetched chunks later consumed through the read
	// cache; PrefetchWasted counts ones evicted with the tag still set
	// (which includes chunks consumed through the warmed object cache
	// instead — the scan fast path — so wasted is an upper bound).
	PrefetchHits   int64 `json:"prefetch_hits"`
	PrefetchWasted int64 `json:"prefetch_wasted"`
	// ReadSlowPaths counts chunk reads that fell back to the exclusive-lock
	// path (non-resident map nodes, invalidated plans) — the reads the batch
	// planner could not coalesce.
	ReadSlowPaths       int64   `json:"read_slow_paths"`
	WriterCommitsPerSec float64 `json:"writer_commits_per_sec,omitempty"`
}

// benchTrack is the scan experiment's persistent class: an indexed id plus a
// payload sized so the collection comfortably overflows the cache budget and
// scans must pull from the chunk store.
type benchTrack struct {
	ID      int64
	Payload []byte
}

const benchTrackClass = tdb.ClassID(9002)

func (o *benchTrack) ClassID() tdb.ClassID { return benchTrackClass }
func (o *benchTrack) Pickle(p *tdb.Pickler) {
	p.Int64(o.ID)
	p.BytesVal(o.Payload)
}
func (o *benchTrack) Unpickle(u *tdb.Unpickler) error {
	o.ID = u.Int64()
	o.Payload = u.BytesVal()
	return u.Err()
}

// trackByID is a BTree index, so iteration order is key order — which, for
// ids inserted in sequence in one transaction, is also physical log order:
// the layout the batch planner can coalesce.
func trackByID() tdb.GenericIndexer {
	return tdb.NewIndexer("id", true, tdb.BTree,
		func(t *benchTrack) tdb.IntKey { return tdb.IntKey(t.ID) })
}

// scanShape sizes one scan experiment. Smoke mode shrinks everything so the
// pre-merge gate finishes in seconds; the full shape makes the collection
// 4× the cache budget so every sweep is disk-bound.
type scanShape struct {
	objects  int
	payload  int
	scansPer int
}

func scanShapeFor(smoke bool) scanShape {
	if smoke {
		return scanShape{objects: 256, payload: 4 << 10, scansPer: 1}
	}
	// One sweep per scanner: the measured point is N concurrent scanners
	// over the same collection. Back-to-back sweeps per scanner would
	// stagger the scanners after the first lap (whoever finishes first laps
	// the field), turning the steady state into a measurement of desynced
	// solo scans rather than concurrent ones.
	return scanShape{objects: 4096, payload: 4 << 10, scansPer: 1}
}

// scanEnv is the scan experiment's storage stack: a simulated disk with read
// charging over an in-memory store, shared across reopens so the layout (and
// the virtual clock) persists.
type scanEnv struct {
	disk *platform.SimDisk
	ctr  platform.OneWayCounter
	oids []tdb.ObjectID
}

func scanDiskParams() platform.DiskParams {
	p := platform.DefaultDiskParams()
	p.ChargeReads = true
	return p
}

func (e *scanEnv) open() (*tdb.DB, error) {
	reg := tdb.NewRegistry()
	reg.Register(benchTrackClass, func() tdb.Object { return &benchTrack{} })
	return tdb.Open(tdb.Options{
		Store:                 e.disk,
		Suite:                 "aes-sha256",
		Counter:               e.ctr,
		Secret:                []byte("tdbbench-scan-device-secret-0123"),
		Registry:              reg,
		DisableAutoClean:      true,
		DisableAutoCheckpoint: true,
		// Sized to the collection: every configuration starts on a cold,
		// freshly loaded store, so each chunk is read from disk exactly once
		// per sweep fleet — concurrent scanners share each other's fetches
		// however far the scheduler lets one drift ahead, and the measured
		// ratio isolates what the batch planner saves (seeks coalesced away)
		// instead of scheduler luck.
		ReadCacheBytes: 32 << 20,
	})
}

// scanWindow is the prefetch depth the pipeline rows run at: the engine's
// default iterator window (Options.ScanPrefetch left zero).
const scanWindow = 256

// fragmentEvery is the stride of the tracks scan-fragmented rewrites.
const fragmentEvery = 8

// newScanEnv builds the stack and loads the tracks collection. Like the
// objstore disk variants, maintenance is deferred to isolate the measured
// path (the paper's §7.3 experiments drive cleaning separately; the chaos
// suite and scan tests cover scans racing the cleaner): with background
// cleaning on, every writer commit turns an initial-segment record into
// garbage, and the cleaner continuously evacuates exactly the records being
// scanned — the measurement becomes cleaner-scheduling noise, double-charging
// every relocated batch.
func newScanEnv(shape scanShape) (*scanEnv, *tdb.DB, error) {
	e := &scanEnv{
		disk: platform.NewSimDisk(platform.NewMemStore(), scanDiskParams()),
		ctr:  platform.NewMemCounter(),
	}
	db, err := e.open()
	if err != nil {
		return nil, nil, err
	}
	txn := db.Begin()
	tracks, err := txn.CreateCollection("tracks", trackByID())
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	payload := make([]byte, shape.payload)
	for i := 0; i < shape.objects; i++ {
		oid, err := tracks.Insert(&benchTrack{ID: int64(i + 1), Payload: payload})
		if err != nil {
			db.Close()
			return nil, nil, err
		}
		e.oids = append(e.oids, oid)
	}
	if err := txn.Commit(true); err != nil {
		db.Close()
		return nil, nil, err
	}
	return e, db, nil
}

// fragment rewrites every fragmentEvery-th track in one durable transaction.
// Each rewrite moves the object's record to the log tail and leaves a dead
// record inside the loaded run: the layout a stream of updates produces,
// where a planner that merges only touching records pays a seek per hole.
func (e *scanEnv) fragment(db *tdb.DB) error {
	ot := db.BeginObject()
	for i := 0; i < len(e.oids); i += fragmentEvery {
		ref, err := tdb.OpenWritable[*benchTrack](ot, e.oids[i])
		if err != nil {
			ot.Abort()
			return err
		}
		// The loaded tracks share one payload slice until a reopen; give the
		// rewritten track its own.
		tr := ref.Deref()
		tr.Payload = append([]byte(nil), tr.Payload...)
		tr.Payload[0]++
	}
	return ot.Commit(true)
}

// reopen closes db and reopens it over the same store so every cache starts
// cold: each configuration's first sweep measures the chunk store, not the
// previous configuration's leftovers.
func (e *scanEnv) reopen(db *tdb.DB) (*tdb.DB, error) {
	if err := db.Close(); err != nil {
		return nil, err
	}
	return e.open()
}

// sweepTracks runs one full-collection snapshot scan at the given prefetch
// window and returns the object count.
func sweepTracks(db *tdb.DB, window int) (int, error) {
	txn := db.BeginReadOnly()
	defer txn.Abort()
	h, err := txn.ReadCollection("tracks")
	if err != nil {
		return 0, err
	}
	it, err := h.Query(trackByID())
	if err != nil {
		return 0, err
	}
	defer it.Close()
	it.SetPrefetch(window)
	count := 0
	for it.Next() {
		tr, err := tdb.ReadAs[*benchTrack](it)
		if err != nil {
			return 0, fmt.Errorf("dereference at %d: %w", count, err)
		}
		if tr.ID == 0 {
			return 0, fmt.Errorf("torn object at %d", count)
		}
		count++
	}
	return count, nil
}

// runScanConfig measures one (scanners, window) point: each scanner performs
// scansPer full sweeps; withWriter adds a continuous durable single-object
// updater so prefetched chunks race live commits and cleaning.
func runScanConfig(e *scanEnv, db *tdb.DB, shape scanShape, workload string, scanners, window int, withWriter bool) (scanRunResult, error) {
	stop := make(chan struct{})
	var writerCommits int64
	var writerErr error
	var wgWriter sync.WaitGroup
	if withWriter {
		// The writer is paced, not flat-out: it runs at host-wall speed while
		// the scans are billed simulated-disk time, so an unthrottled loop
		// would retire thousands of commits per sweep — scattering most of
		// the collection to the log tail and measuring a fully fragmented
		// layout instead of a scan racing a live writer. A short sleep per
		// commit plus a total cap keeps the churn proportional to the data.
		maxCommits := len(e.oids) / 16
		wgWriter.Add(1)
		go func() {
			defer wgWriter.Done()
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < maxCommits; i++ {
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(2 * time.Millisecond)
				ot := db.BeginObject()
				ref, err := tdb.OpenWritable[*benchTrack](ot, e.oids[rng.Intn(len(e.oids))])
				if err != nil {
					ot.Abort()
					writerErr = err
					return
				}
				ref.Deref().Payload[i%shape.payload]++
				if err := ot.Commit(true); err != nil {
					writerErr = err
					return
				}
				writerCommits++
			}
		}()
	}

	before := db.Stats()
	diskBefore := e.disk.Elapsed()
	counts := make([]int, scanners)
	errs := make([]error, scanners)
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < scanners; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < shape.scansPer; i++ {
				n, err := sweepTracks(db, window)
				if err != nil {
					errs[s] = err
					return
				}
				if n != shape.objects {
					errs[s] = fmt.Errorf("scan returned %d objects, want %d", n, shape.objects)
					return
				}
				counts[s]++
			}
		}(s)
	}
	wg.Wait()
	cpu := time.Since(start)
	if withWriter {
		close(stop)
		wgWriter.Wait()
		if writerErr != nil {
			return scanRunResult{}, fmt.Errorf("writer: %w", writerErr)
		}
	}
	for _, err := range errs {
		if err != nil {
			return scanRunResult{}, err
		}
	}
	diskTime := e.disk.Elapsed() - diskBefore
	delta := statsDelta(before, db.Stats())

	scans := 0
	for _, c := range counts {
		scans += c
	}
	modeled := cpu + diskTime
	return scanRunResult{
		Workload:                workload,
		Scanners:                scanners,
		Window:                  window,
		Objects:                 shape.objects,
		Scans:                   scans,
		ScansPerSec:             float64(scans) / modeled.Seconds(),
		ObjectsPerSec:           float64(scans*shape.objects) / modeled.Seconds(),
		CPUMillisPerScan:        float64(cpu) / float64(time.Millisecond) / float64(scans),
		DiskMillisPerScan:       float64(diskTime) / float64(time.Millisecond) / float64(scans),
		CoalescedReadsPerScan:   float64(delta.CoalescedReads) / float64(scans),
		PrefetchedChunksPerScan: float64(delta.PrefetchedChunks) / float64(scans),
		PrefetchHits:            delta.PrefetchHits,
		PrefetchWasted:          delta.PrefetchWasted,
		ReadSlowPaths:           delta.ReadSlowPaths,
		WriterCommitsPerSec:     float64(writerCommits) / modeled.Seconds(),
	}, nil
}

// scanStatsDelta holds the prefetch-counter movement over one configuration.
type scanStatsDelta struct {
	CoalescedReads   int64
	PrefetchedChunks int64
	PrefetchHits     int64
	PrefetchWasted   int64
	ReadSlowPaths    int64
}

func statsDelta(before, after tdb.Stats) scanStatsDelta {
	return scanStatsDelta{
		CoalescedReads:   after.CoalescedReads - before.CoalescedReads,
		PrefetchedChunks: after.PrefetchedChunks - before.PrefetchedChunks,
		PrefetchHits:     after.PrefetchHits - before.PrefetchHits,
		PrefetchWasted:   after.PrefetchWasted - before.PrefetchWasted,
		ReadSlowPaths:    after.ReadSlowPaths - before.ReadSlowPaths,
	}
}

// runScanExperiments sweeps the scan configurations and appends rows to the
// report. Every (workload, scanners) pair runs window 0 first — the
// pre-pipeline baseline row — then the default window on a freshly
// reopened (cold-cache) database, so each pair of adjacent rows is a
// before/after comparison on identical data.
func runScanExperiments(report *objstoreReport, smoke bool) error {
	shape := scanShapeFor(smoke)
	fmt.Println("== Scan pipeline: full-collection sweeps, prefetch off vs on ==")
	fmt.Printf("   %d objects x %d B on the simulated disk (reads charged), %d sweeps per scanner\n",
		shape.objects, shape.payload, shape.scansPer)

	type scanPoint struct {
		workload   string
		scanners   int
		withWriter bool
		fragmented bool
	}
	points := []scanPoint{
		{workload: "scan-heavy", scanners: 1},
		{workload: "scan-heavy", scanners: 8},
		{workload: "scan-vs-writer", scanners: 8, withWriter: true},
		{workload: "scan-fragmented", scanners: 1, fragmented: true},
	}
	if smoke {
		points = []scanPoint{
			{workload: "scan-heavy", scanners: 8},
			{workload: "scan-vs-writer", scanners: 8, withWriter: true},
			{workload: "scan-fragmented", scanners: 1, fragmented: true},
		}
	}
	for _, pt := range points {
		for _, window := range []int{0, scanWindow} {
			// A fresh store per configuration: a writer fragments the layout
			// as it runs (updated objects' current versions scatter to the
			// log tail), so sharing one store would hand later rows a
			// different — degraded — physical layout than earlier ones. The
			// reopen after load makes every cache start cold on top of the
			// identical sequential layout.
			e, db, err := newScanEnv(shape)
			if err != nil {
				return err
			}
			if pt.fragmented {
				if err := e.fragment(db); err != nil {
					db.Close()
					return fmt.Errorf("scan %s: %w", pt.workload, err)
				}
			}
			if db, err = e.reopen(db); err != nil {
				return err
			}
			res, err := runScanConfig(e, db, shape, pt.workload, pt.scanners, window, pt.withWriter)
			if cerr := db.Close(); err == nil && cerr != nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("scan %s x%d w%d: %w", pt.workload, pt.scanners, window, err)
			}
			report.ScanRuns = append(report.ScanRuns, res)
			fmt.Printf("  %-15s %d scanners w%-3d %8.2f scans/s %9.0f objs/s   cpu %7.1fms + disk %8.1fms /scan   coalesced %6.1f/scan   prefetched %7.1f/scan   hits %6d   wasted %5d   slow %5d   writer %5.0f commits/s\n",
				res.Workload, res.Scanners, res.Window, res.ScansPerSec, res.ObjectsPerSec,
				res.CPUMillisPerScan, res.DiskMillisPerScan, res.CoalescedReadsPerScan,
				res.PrefetchedChunksPerScan, res.PrefetchHits, res.PrefetchWasted,
				res.ReadSlowPaths, res.WriterCommitsPerSec)
		}
	}
	fmt.Println()
	return nil
}
