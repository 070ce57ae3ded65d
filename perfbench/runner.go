package main

import (
	"errors"
	"fmt"
	"math"
	//tdblint:ignore secret-hygiene deterministic benchmark workload generation; no secret material
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"tdb"
	"tdb/internal/platform"
)

// opKind classifies an operation; each kind gets its own latency figures.
type opKind uint8

const (
	opCommit opKind = iota // durable read-write transaction
	opRead                 // snapshot point lookup
	opScan                 // snapshot read of a run of objects
	numKinds
)

var (
	kindNames = [numKinds]string{"commit", "read", "scan"}
	kindSpans = [numKinds]spanName{spOpCommit, spOpRead, spOpScan}
)

// minSamples is the fewest operations of each kind the workload runs that
// the untraced windows of a traced run must time, so that the p99 it reports has ten samples beyond
// it.
const minSamples = 1000

// windows is the number of parts a run's operations are divided into.
// Counters are read and CPU time is taken at every window boundary; a
// traced run alternates untraced and traced windows, so the tracing
// overhead it reports is not skewed by the store's drift over the run.
const windows = 20

// workload is one seeded closed-loop workload.
type workload interface {
	// setup opens a fresh database on st, loads it, and reopens it cold.
	setup(st *stack) error
	db() *tdb.DB
	// open reopens the database on its stack after close.
	open() error
	// step runs one operation on behalf of c. It returns an error only
	// when the run must fail: a wrong result or an unexpected engine error.
	step(c *client) error
	// check verifies the database against what clients saw acknowledged.
	check(st *stack) error
	// liveBytes is the pickled size of the user objects now live.
	liveBytes() int64
	// close closes the database and drops the workload's reference to it.
	close() error
}

// sample is one timed operation. Its modeled latency is host wall time
// plus the simulated-disk time charged while it ran.
type sample struct {
	host, disk time.Duration
	kind       opKind
	// maint reports that a checkpoint or cleaning ran during a commit
	// (recorded in traced windows only).
	maint bool
}

func (s sample) modeled() time.Duration { return s.host + s.disk }

// client is one closed-loop client: it sends its next operation only after
// the previous one returned.
type client struct {
	id   int
	rng  *rand.Rand
	db   *tdb.DB
	disk *platform.SimDisk
	tr   *tracer // nil while tracing is off

	samples           []sample
	attempted, failed [numKinds]int64
	lockTimeouts      int64

	kind opKind
	t0   time.Time
	d0   time.Duration
	m0   int64
	root spanRef
}

// maintenance counts the checkpoints and cleanings the store has run.
func maintenance(db *tdb.DB) int64 {
	st := db.Stats()
	return st.Checkpoints + st.Cleanings
}

// start begins timing an operation of the given kind. Input generation
// happens before it and result checks after finish, so neither is timed.
func (c *client) start(kind opKind) {
	c.kind = kind
	c.attempted[kind]++
	if c.tr != nil && kind == opCommit {
		c.m0 = maintenance(c.db)
	}
	c.root = c.tr.beginOp(kindSpans[kind])
	c.d0 = c.disk.Elapsed()
	c.t0 = time.Now()
}

// finish stops timing the operation start began and reports whether it
// succeeded. A lock timeout is a failed operation, not a failed run, so it
// returns (false, nil); any other error fails the run.
func (c *client) finish(err error) (bool, error) {
	host := time.Since(c.t0)
	disk := c.disk.Elapsed() - c.d0
	c.root.endOp()
	if err != nil {
		c.failed[c.kind]++
		if errors.Is(err, tdb.ErrLockTimeout) {
			c.lockTimeouts++
			return false, nil
		}
		return false, fmt.Errorf("%s: %w", kindNames[c.kind], err)
	}
	s := sample{host: host, disk: disk, kind: c.kind}
	if c.tr != nil && c.kind == opCommit {
		s.maint = maintenance(c.db) != c.m0
	}
	c.samples = append(c.samples, s)
	return true, nil
}

// enter opens a span around one call into a layer.
func (c *client) enter(name spanName) spanRef { return c.tr.enter(name) }

// snap is the state of every counter at a window boundary.
type snap struct {
	at     time.Time
	cpu    time.Duration
	disk   time.Duration
	io     ioCounts
	chunks tdb.Stats
	// dbBytes is the device's size and live the pickled size of the user
	// objects then live.
	dbBytes, live int64
}

func takeSnap(w workload, st *stack) snap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return snap{
		at: time.Now(), cpu: cpu, disk: st.disk.Elapsed(), io: st.store.counts(), chunks: w.db().Stats(),
		dbBytes: st.mem.TotalSize(), live: w.liveBytes(),
	}
}

// chunkDelta is the growth of the chunk store's counters.
type chunkDelta struct {
	hits, misses, slowPaths                int64
	coalescedReads, coalescedChunks        int64
	prefetched, prefetchHits, prefetchWast int64
	checkpoints, cleanings, cleanedBytes   int64
}

func chunkDiff(a, b tdb.Stats) chunkDelta {
	return chunkDelta{
		hits:            b.ReadCacheHits - a.ReadCacheHits,
		misses:          b.ReadCacheMisses - a.ReadCacheMisses,
		slowPaths:       b.ReadSlowPaths - a.ReadSlowPaths,
		coalescedReads:  b.CoalescedReads - a.CoalescedReads,
		coalescedChunks: b.CoalescedChunks - a.CoalescedChunks,
		prefetched:      b.PrefetchedChunks - a.PrefetchedChunks,
		prefetchHits:    b.PrefetchHits - a.PrefetchHits,
		prefetchWast:    b.PrefetchWasted - a.PrefetchWasted,
		checkpoints:     b.Checkpoints - a.Checkpoints,
		cleanings:       b.Cleanings - a.Cleanings,
		cleanedBytes:    b.CleanedBytes - a.CleanedBytes,
	}
}

func (d chunkDelta) add(o chunkDelta) chunkDelta {
	return chunkDelta{
		d.hits + o.hits, d.misses + o.misses, d.slowPaths + o.slowPaths,
		d.coalescedReads + o.coalescedReads, d.coalescedChunks + o.coalescedChunks,
		d.prefetched + o.prefetched, d.prefetchHits + o.prefetchHits, d.prefetchWast + o.prefetchWast,
		d.checkpoints + o.checkpoints, d.cleanings + o.cleanings, d.cleanedBytes + o.cleanedBytes,
	}
}

// phase accumulates the windows of one mode (untraced or traced).
type phase struct {
	windows           int
	wall, disk        time.Duration
	io                ioCounts
	chunks            chunkDelta
	samples           []sample
	attempted, failed [numKinds]int64
	lockTimeouts      int64
	// cpuMsPerOp holds each window's process CPU time (every thread: the
	// clients, the engine's goroutines and the collector) per operation.
	cpuMsPerOp []float64
	// dbPerLive holds the device's size over the live user bytes at the
	// end of each window.
	dbPerLive []float64
	// versionChains and cachedObjects sum the object store's gauges,
	// sampled at the end of each window.
	versionChains, cachedObjects int64
}

func (p *phase) addWindow(a, b snap, w workload, clients []*client) {
	p.windows++
	p.wall += b.at.Sub(a.at)
	p.disk += b.disk - a.disk
	p.io = p.io.add(b.io.sub(a.io))
	p.chunks = p.chunks.add(chunkDiff(a.chunks, b.chunks))
	n := 0
	for _, c := range clients {
		n += len(c.samples)
		p.samples = append(p.samples, c.samples...)
		c.samples = c.samples[:0]
		for k := range numKinds {
			p.attempted[k] += c.attempted[k]
			p.failed[k] += c.failed[k]
		}
		c.attempted, c.failed = [numKinds]int64{}, [numKinds]int64{}
		p.lockTimeouts += c.lockTimeouts
		c.lockTimeouts = 0
	}
	p.dbPerLive = append(p.dbPerLive, div(float64(b.dbBytes), float64(b.live)))
	if n > 0 {
		p.cpuMsPerOp = append(p.cpuMsPerOp, ms(b.cpu-a.cpu)/float64(n))
	}
	objs := w.db().Objects().Stats()
	p.versionChains += int64(objs.VersionChains)
	p.cachedObjects += int64(objs.CachedObjects)
}

func (p *phase) ops() int64 {
	var n int64
	for _, a := range p.attempted {
		n += a
	}
	return n
}

func (p *phase) totalFailed() int64 {
	var n int64
	for _, f := range p.failed {
		n += f
	}
	return n
}

// runConfig describes one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// ops, when positive, replaces the operation count derived from
	// seconds and runs it in one window (self-test).
	ops int
	// smoke shrinks the workload's data set (self-test).
	smoke bool
	// setups is how many times the set-up is repeated; setup_s is the
	// median and the last set-up is the one measured.
	setups   int
	traceDir string
}

// outcome is everything one invocation measured.
type outcome struct {
	setup    []float64
	phases   [2]phase // untraced, traced
	spans    [numSpanNames]spanStat
	dropped  int64
	heapMiB  float64
	util     float64
	checkErr error
}

// run sets the workload up, drives its clients, and checks the result. An
// error means the run produced no result; a failed correctness check is
// reported in outcome.checkErr.
func run(cfg runConfig) (*outcome, error) {
	sp, ok := specByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	out := &outcome{}
	var w workload
	var st *stack
	for k := 0; k < max(cfg.setups, 1); k++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		var err error
		if st, err = newStack(sp.chargeReads); err != nil {
			return nil, err
		}
		w = sp.newWorkload(cfg.seed, cfg.smoke)
		t0, d0 := time.Now(), st.disk.Elapsed()
		if err := w.setup(st); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
		out.setup = append(out.setup, (time.Since(t0) + st.disk.Elapsed() - d0).Seconds())
	}
	defer func() {
		if w.db() != nil {
			w.close()
		}
	}()

	clients := make([]*client, sp.clients)
	for i := range clients {
		clients[i] = &client{
			id:   i,
			rng:  rand.New(rand.NewSource(cfg.seed*7919 + int64(i) + 1)),
			db:   w.db(),
			disk: st.disk,
		}
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	runtime.GC()
	perClient, parts := cfg.ops, 1
	if perClient == 0 {
		perClient, parts = int(math.Round(cfg.seconds*sp.rate))/sp.clients, windows
	}
	for win := range parts {
		traced := cfg.trace && (parts == 1 || win%2 == 1)
		installTracers(st, clients, rec, traced)
		n := perClient*(win+1)/parts - perClient*win/parts
		a := takeSnap(w, st)
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range n {
					if err := w.step(c); err != nil {
						errs[i] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		b := takeSnap(w, st)
		idx := 0
		if traced {
			idx = 1
		}
		out.phases[idx].addWindow(a, b, w, clients)
		if err := errors.Join(errs...); err != nil {
			installTracers(st, clients, nil, false)
			out.checkErr = err
			return out, nil
		}
	}
	installTracers(st, clients, nil, false)

	out.util = w.db().Stats().Utilization
	heap, err := engineHeap(w, clients)
	if err != nil {
		return nil, err
	}
	out.heapMiB = heap
	if err := w.open(); err != nil {
		return nil, fmt.Errorf("%s reopen: %w", sp.name, err)
	}

	if rec != nil {
		out.spans = rec.analyze()
		out.dropped = rec.dropped
		if cfg.traceDir != "" {
			path := fmt.Sprintf("%s/%s-seed%d.tsv", cfg.traceDir, sp.name, cfg.seed)
			if err := rec.writeFile(path); err != nil {
				return nil, fmt.Errorf("writing trace: %w", err)
			}
		}
	}
	if cfg.ops == 0 && cfg.trace {
		for k := range numKinds {
			n := countKind(out.phases[0].samples, opKind(k))
			if out.phases[0].attempted[k] > 0 && n < minSamples {
				return nil, fmt.Errorf("%s: only %d %s samples, need %d for a p99", sp.name, n, kindNames[k], minSamples)
			}
		}
	}
	out.checkErr = w.check(st)
	return out, nil
}

// engineHeap is the heap the open database holds, in MiB: the live heap
// after a forced collection, less the live heap once the database is closed
// and collected. The simulated device stays in memory for both readings, so
// its bytes cancel out. A checkpoint first leaves Close nothing to write,
// so the device does not grow between the readings.
func engineHeap(w workload, clients []*client) (float64, error) {
	if err := w.db().Checkpoint(); err != nil {
		return 0, err
	}
	before := liveHeap()
	for _, c := range clients {
		c.db = nil
	}
	if err := w.close(); err != nil {
		return 0, err
	}
	return float64(int64(before)-int64(liveHeap())) / (1 << 20), nil
}

func liveHeap() uint64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return mem.HeapAlloc
}

// installTracers turns tracing on or off for the next window. On a
// single-client workload, File calls are parented to the client's open
// span; with several clients they are recorded unparented.
func installTracers(st *stack, clients []*client, rec *recorder, on bool) {
	if !on {
		for _, c := range clients {
			c.tr = nil
		}
		st.store.tracer.Store(nil)
		return
	}
	for _, c := range clients {
		c.tr = newTracer(rec, false)
	}
	if len(clients) == 1 {
		st.store.tracer.Store(clients[0].tr)
	} else {
		st.store.tracer.Store(newTracer(rec, true))
	}
}

func countKind(samples []sample, k opKind) int {
	n := 0
	for _, s := range samples {
		if s.kind == k {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the sorted modeled latencies of one kind, in ms.
func latencies(samples []sample, k opKind) []float64 {
	var v []float64
	for _, s := range samples {
		if s.kind == k {
			v = append(v, ms(s.modeled()))
		}
	}
	sort.Float64s(v)
	return v
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
