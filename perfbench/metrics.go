package main

import "time"

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEnd computes the user-visible metrics from the untraced windows.
func endToEnd(o *outcome) []metric {
	p := &o.phases[0]
	modeled := (p.wall + p.disk).Seconds()
	commits := float64(countKind(p.samples, opCommit))
	return []metric{
		{"setup_s", "s", median(o.setup)},
		{"commit_p50_ms", "ms", percentile(latencies(p.samples, opCommit), 0.50)},
		{"commits_per_s", "1/s", div(commits, modeled)},
		{"ops_per_s", "1/s", div(float64(len(p.samples)), modeled)},
		{"bytes_written_per_commit", "B", div(float64(p.io.writeBytes), commits)},
		{"syncs_per_commit", "count", div(float64(p.io.syncOps), commits)},
		{"db_bytes_per_live_byte", "ratio", mean(p.dbPerLive)},
		{"heap_mb", "MiB", o.heapMiB},
	}
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return div(sum, float64(len(v)))
}

// hostPerOp is a phase's mean host wall time per operation.
func hostPerOp(p *phase) time.Duration {
	var host time.Duration
	for _, s := range p.samples {
		host += s.host
	}
	if len(p.samples) == 0 {
		return 0
	}
	return host / time.Duration(len(p.samples))
}

// maintenanceStall is the mean modeled latency of commits during which a
// checkpoint or cleaning ran, minus that of the other commits.
func maintenanceStall(samples []sample) float64 {
	var sum [2]time.Duration
	var n [2]int
	for _, s := range samples {
		if s.kind != opCommit {
			continue
		}
		i := 0
		if s.maint {
			i = 1
		}
		sum[i] += s.modeled()
		n[i]++
	}
	if n[0] == 0 || n[1] == 0 {
		return 0
	}
	return ms(sum[1]/time.Duration(n[1]) - sum[0]/time.Duration(n[0]))
}

// perLayer computes the layer metrics from the traced windows, plus the
// tracing overhead against the untraced windows of the same run. The
// latency figures and the CPU time per operation come from the untraced
// windows. They are not end-to-end metrics because host time dominates them
// on some workload, and host time wanders with the load of the shared
// machine more than a bound allows.
func perLayer(o *outcome) []metric {
	t := &o.phases[1]
	ops := float64(len(t.samples))
	commits := float64(countKind(t.samples, opCommit))
	scans := float64(countKind(t.samples, opScan))
	traced := float64(t.windows)
	c := t.chunks

	perCall := func(n spanName) float64 {
		return div(us(o.spans[n].total), float64(o.spans[n].calls))
	}
	var self = map[string]time.Duration{}
	var calls float64
	for n := range numSpanNames {
		self[n.layer()] += o.spans[n].self
		calls += float64(o.spans[n].calls)
	}
	var platform time.Duration
	for _, n := range []spanName{spFileRead, spFileWrite, spFileSync, spFileMeta} {
		platform += o.spans[n].total
	}
	u := &o.phases[0]
	overhead := 0.0
	if h := hostPerOp(u); h > 0 {
		overhead = (float64(hostPerOp(t))/float64(h) - 1) * 100
	}
	commit := latencies(u.samples, opCommit)
	read := latencies(u.samples, opRead)
	scan := latencies(u.samples, opScan)
	return []metric{
		{"commit_p99_ms", "ms", percentile(commit, 0.99)},
		{"read_p50_ms", "ms", percentile(read, 0.50)},
		{"read_p99_ms", "ms", percentile(read, 0.99)},
		{"scan_p50_ms", "ms", percentile(scan, 0.50)},
		{"scan_p99_ms", "ms", percentile(scan, 0.99)},
		{"host_ms_per_op", "ms", median(u.cpuMsPerOp)},

		{"collection.open.us", "us", perCall(spColOpen)},
		{"collection.query.us", "us", perCall(spColQuery)},
		{"collection.next_read.us", "us", perCall(spColNextRead)},
		{"collection.write.us", "us", perCall(spColWrite)},
		{"collection.insert.us", "us", perCall(spColInsert)},
		{"collection.close.us", "us", perCall(spColClose)},
		{"collection.commit.us", "us", perCall(spColCommit)},
		{"collection.self_us_per_op", "us", div(us(self["collection"]), ops)},

		{"objectstore.open_readonly.us", "us", perCall(spObjOpenRO)},
		{"objectstore.open_writable.us", "us", perCall(spObjOpenRW)},
		{"objectstore.commit.us", "us", perCall(spObjCommit)},
		{"objectstore.self_us_per_op", "us", div(us(self["objectstore"]), ops)},
		{"objectstore.lock_timeouts", "count", float64(t.lockTimeouts)},
		{"objectstore.version_chains", "count", div(float64(t.versionChains), traced)},
		{"objectstore.cached_objects", "count", div(float64(t.cachedObjects), traced)},

		{"chunkstore.read_cache.hit_ratio", "ratio", div(float64(c.hits), float64(c.hits+c.misses))},
		{"chunkstore.read_cache.misses_per_op", "count", div(float64(c.misses), ops)},
		{"chunkstore.read_slow_paths_per_kop", "count", div(1000*float64(c.slowPaths), ops)},
		{"chunkstore.coalesced_chunks_per_read", "count", div(float64(c.coalescedChunks), float64(c.coalescedReads))},
		{"chunkstore.prefetch.hit_ratio", "ratio", div(float64(c.prefetchHits), float64(c.prefetched))},
		{"chunkstore.prefetch.wasted_per_scan", "count", div(float64(c.prefetchWast), scans)},
		{"chunkstore.checkpoints_per_kcommit", "count", div(1000*float64(c.checkpoints), commits)},
		{"chunkstore.cleanings_per_kcommit", "count", div(1000*float64(c.cleanings), commits)},
		{"chunkstore.cleaned_bytes_per_commit", "B", div(float64(c.cleanedBytes), commits)},
		{"chunkstore.maintenance_stall_ms", "ms", maintenanceStall(t.samples)},
		{"chunkstore.utilization", "ratio", o.util},

		{"platform.disk_ms_per_op", "ms", div(ms(t.disk), ops)},
		{"platform.sync_ops_per_commit", "count", div(float64(t.io.syncOps), commits)},
		{"platform.write_ops_per_commit", "count", div(float64(t.io.writeOps), commits)},
		{"platform.read_ops_per_op", "count", div(float64(t.io.readOps), ops)},
		{"platform.read_bytes_per_op", "B", div(float64(t.io.readBytes), ops)},
		{"platform.host_us_per_op", "us", div(us(platform), ops)},

		{"harness.self_us_per_op", "us", div(us(self["op"]), ops)},
		{"trace.overhead_pct", "%", overhead},
		{"trace.spans_per_op", "count", div(calls, ops)},
		{"trace.dropped_spans", "count", float64(o.dropped)},
	}
}
