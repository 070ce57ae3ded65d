package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanName identifies what a span times: an operation root, a call into
// one layer's public API, or a platform File call.
type spanName uint8

const (
	spOpCommit spanName = iota
	spOpRead
	spOpScan
	spColOpen
	spColQuery
	spColNextRead
	spColWrite
	spColInsert
	spColClose
	spColCommit
	spObjOpenRO
	spObjOpenRW
	spObjCommit
	spFileRead
	spFileWrite
	spFileSync
	spFileMeta
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op.commit", "op.read", "op.scan",
	"collection.open", "collection.query", "collection.next_read", "collection.write",
	"collection.insert", "collection.close", "collection.commit",
	"objectstore.open_readonly", "objectstore.open_writable", "objectstore.commit",
	"platform.read", "platform.write", "platform.sync", "platform.meta",
}

// layer is the part of a span name before the dot: op, collection,
// objectstore or platform.
func (n spanName) layer() string {
	s := spanNames[n]
	return s[:strings.IndexByte(s, '.')]
}

// maxSpans caps a traced run's memory (32 B a span); spans past it are
// counted as dropped.
const maxSpans = 2 << 20

type span struct {
	start, end int64 // ns since the recorder's epoch; end < 0 while open
	parent, op int32 // span indexes; -1 for none
	name       spanName
}

// recorder keeps every span of a traced run in memory; they are analysed
// and written out when the run ends.
type recorder struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) open(name spanName, parent, op int32) int32 {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{start: now, end: -1, parent: parent, op: op, name: name})
	return int32(len(r.spans) - 1)
}

func (r *recorder) close(i int32) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// tracer is one client's view of the recorder: it tracks the client's
// current operation and innermost open span, so calls made inside a span
// become its children. A nil *tracer records nothing, which is the whole
// cost of tracing when it is off.
type tracer struct {
	rec *recorder
	// unparented tracers record File calls as parentless totals: with
	// several clients a File call cannot be attributed to one of them.
	unparented bool
	op, cur    atomic.Int32
}

func newTracer(rec *recorder, unparented bool) *tracer {
	t := &tracer{rec: rec, unparented: unparented}
	t.op.Store(-1)
	t.cur.Store(-1)
	return t
}

// spanRef is an open span; the zero value (no tracer) is a no-op.
type spanRef struct {
	t         *tracer
	i, parent int32
}

// child opens a leaf span under the current one without making it current
// (File calls, which may come from engine goroutines).
func (t *tracer) child(name spanName) spanRef {
	if t == nil {
		return spanRef{}
	}
	parent, op := int32(-1), int32(-1)
	if !t.unparented {
		parent, op = t.cur.Load(), t.op.Load()
	}
	i := t.rec.open(name, parent, op)
	if i < 0 {
		return spanRef{}
	}
	return spanRef{t: t, i: i, parent: parent}
}

// enter opens a span under the current one and makes it current.
func (t *tracer) enter(name spanName) spanRef {
	ref := t.child(name)
	if ref.t != nil {
		t.cur.Store(ref.i)
	}
	return ref
}

// leave closes a span opened by enter and restores its parent as current.
func (ref spanRef) leave() {
	if ref.t == nil {
		return
	}
	ref.t.rec.close(ref.i)
	ref.t.cur.Store(ref.parent)
}

// beginOp opens an operation root.
func (t *tracer) beginOp(name spanName) spanRef {
	if t == nil {
		return spanRef{}
	}
	i := t.rec.open(name, -1, -1)
	if i < 0 {
		return spanRef{}
	}
	t.op.Store(i)
	t.cur.Store(i)
	return spanRef{t: t, i: i, parent: -1}
}

// endOp closes an operation root.
func (ref spanRef) endOp() {
	if ref.t == nil {
		return
	}
	ref.t.rec.close(ref.i)
	ref.t.cur.Store(-1)
	ref.t.op.Store(-1)
}

// spanStat sums one span name: calls, total duration, and self time (the
// duration minus the part of it that child spans cover).
type spanStat struct {
	calls       int64
	total, self time.Duration
}

// analyze sums the closed spans by name.
func (r *recorder) analyze() [numSpanNames]spanStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.spans)
	first := make([]int32, n)
	next := make([]int32, n)
	for i := range first {
		first[i] = -1
	}
	for i := n - 1; i >= 0; i-- {
		if p := r.spans[i].parent; p >= 0 {
			next[i] = first[p]
			first[p] = int32(i)
		}
	}
	var stats [numSpanNames]spanStat
	var ivs [][2]int64
	for i := range r.spans {
		s := r.spans[i]
		if s.end < s.start {
			continue
		}
		ivs = ivs[:0]
		for c := first[i]; c >= 0; c = next[c] {
			cs := r.spans[c]
			lo, hi := max(cs.start, s.start), min(cs.end, s.end)
			if cs.end >= cs.start && hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, reach int64
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		st := &stats[s.name]
		st.calls++
		st.total += time.Duration(s.end - s.start)
		st.self += time.Duration(s.end - s.start - covered)
	}
	return stats
}

// writeFile writes every span as one tab-separated line: index, operation,
// parent, name, start and end in ns since the run's epoch.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span\top\tparent\tname\tstart_ns\tend_ns")
	r.mu.Lock()
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.op, s.parent, spanNames[s.name], s.start, s.end)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
