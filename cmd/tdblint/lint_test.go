package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func runOn(t *testing.T, root string, only ...string) []Finding {
	t.Helper()
	mod, err := loadModule(root)
	if err != nil {
		t.Fatalf("loadModule(%s): %v", root, err)
	}
	enabled := make(map[string]bool)
	if len(only) == 0 {
		for _, n := range analyzerNames {
			enabled[n] = true
		}
	} else {
		for _, n := range only {
			enabled[n] = true
		}
	}
	l := &linter{mod: mod, enabled: enabled}
	return l.run()
}

// TestFixtureFindings asserts the exact diagnostics over the fixture module:
// one positive and one negative case per analyzer (negatives are silent, so
// only the positives appear), plus the reasonless- and unknown-analyzer
// ignore rejections.
func TestFixtureFindings(t *testing.T) {
	want := []string{
		`internal/chunkstore/clock.go:11: [clock-injection] bare time.Sleep in clock-injected code; thread the injectable clock (see chunkstore.RetryPolicy.Sleep) so tests stay deterministic`,
		`internal/chunkstore/clock.go:16: [clock-injection] bare time.Now in clock-injected code; thread the injectable clock (see chunkstore.RetryPolicy.Sleep) so tests stay deterministic`,
		`internal/chunkstore/flow.go:32: [plaintext-flow] plaintext decrypted at internal/chunkstore/flow.go:31 reaches writeRaw → (fixmod/internal/platform.File).WriteAt without passing through sec.Suite.Encrypt; encrypt before handing bytes to the untrusted store`,
		`internal/chunkstore/flow.go:38: [plaintext-flow] caller-supplied plaintext parameter "plain" of leakParam reaches writeRaw → (fixmod/internal/platform.File).WriteAt without passing through sec.Suite.Encrypt; encrypt before handing bytes to the untrusted store`,
		`internal/chunkstore/flow.go:50: [plaintext-flow] plaintext decrypted at internal/chunkstore/flow.go:43 reaches writeRaw → (fixmod/internal/platform.File).WriteAt without passing through sec.Suite.Encrypt; encrypt before handing bytes to the untrusted store`,
		`internal/chunkstore/ignore.go:15: [bare-ignore] //tdblint:ignore without a reason; document why the invariant does not apply here`,
		`internal/chunkstore/ignore.go:16: [err-taxonomy] fmt.Errorf without %w mints an unclassifiable error; wrap a package sentinel or the underlying cause`,
		`internal/chunkstore/ignore.go:21: [bare-ignore] //tdblint:ignore names unknown analyzer "spellcheck"`,
		`internal/chunkstore/ignore.go:22: [err-taxonomy] fmt.Errorf without %w mints an unclassifiable error; wrap a package sentinel or the underlying cause`,
		`internal/chunkstore/ignore.go:28: [bare-ignore] //tdblint:ignore for clock-injection suppressed nothing; remove the stale directive`,
		`internal/chunkstore/lockedio.go:21: [locked-io] (fixmod/internal/platform.File).WriteAt called while s.mu is held; move I/O and crypto off the critical section or declare a serialization point (*Locked / //tdblint:serial)`,
		`internal/chunkstore/lockedio.go:21: [raw-io-funnel] direct (fixmod/internal/platform.File).WriteAt bypasses the retry/write-behind funnel; route raw file I/O through RetryPolicy.run (the segmentSet/superblock helpers)`,
		`internal/chunkstore/lockedio.go:29: [locked-io] call reaches platform/sec work while s.mu is held (digest → (fixmod/internal/sec.Suite).Hash); move it off the critical section or declare a serialization point (*Locked / //tdblint:serial)`,
		`internal/chunkstore/lockedio.go:39: [raw-io-funnel] direct (fixmod/internal/platform.File).WriteAt bypasses the retry/write-behind funnel; route raw file I/O through RetryPolicy.run (the segmentSet/superblock helpers)`,
		`internal/chunkstore/lockedio.go:51: [raw-io-funnel] direct (fixmod/internal/platform.File).WriteAt bypasses the retry/write-behind funnel; route raw file I/O through RetryPolicy.run (the segmentSet/superblock helpers)`,
		`internal/chunkstore/lockorder.go:23: [lock-order] chunkstore.door.mu acquired while chunkstore.wall.mu is held creates a cycle in the module lock graph (chunkstore.wall.mu → chunkstore.door.mu → chunkstore.wall.mu); take module mutexes in one global order`,
		`internal/chunkstore/lockorder.go:38: [lock-order] chunkstore.wall.mu acquired while chunkstore.door.mu is held (via grabWall) creates a cycle in the module lock graph (chunkstore.door.mu → chunkstore.wall.mu → chunkstore.door.mu); take module mutexes in one global order`,
		`internal/chunkstore/prefetch.go:114: [locked-io] (fixmod/internal/sec.Suite).Decrypt called while p.mu is held; move I/O and crypto off the critical section or declare a serialization point (*Locked / //tdblint:serial)`,
		`internal/chunkstore/rawio.go:19: [raw-io-funnel] direct (fixmod/internal/platform.File).ReadAt bypasses the retry/write-behind funnel; route raw file I/O through RetryPolicy.run (the segmentSet/superblock helpers)`,
		`internal/chunkstore/rawio.go:24: [raw-io-funnel] direct (fixmod/internal/platform.File).Truncate bypasses the retry/write-behind funnel; route raw file I/O through RetryPolicy.run (the segmentSet/superblock helpers)`,
		`internal/chunkstore/rawio.go:29: [raw-io-funnel] direct (fixmod/internal/platform.File).Sync bypasses the retry/write-behind funnel; route raw file I/O through RetryPolicy.run (the segmentSet/superblock helpers)`,
		`internal/chunkstore/readpath.go:128: [locked-io] (fixmod/internal/sec.Suite).Decrypt called while s.mu is held; move I/O and crypto off the critical section or declare a serialization point (*Locked / //tdblint:serial)`,
		`internal/chunkstore/readpath.go:136: [lock-order] chunkstore.rshard.mu acquired while chunkstore.rstore.mu is held creates a cycle in the module lock graph (chunkstore.rstore.mu → chunkstore.rshard.mu → chunkstore.rstore.mu); take module mutexes in one global order`,
		`internal/chunkstore/readpath.go:152: [lock-order] chunkstore.rstore.mu acquired while chunkstore.rshard.mu is held (via reserve) creates a cycle in the module lock graph (chunkstore.rshard.mu → chunkstore.rstore.mu → chunkstore.rshard.mu); take module mutexes in one global order`,
		`internal/chunkstore/taxonomy.go:14: [err-taxonomy] sentinel comparison err == ErrGone; use errors.Is so wrapped chains still match`,
		`internal/chunkstore/taxonomy.go:24: [err-taxonomy] errors.New inside a function body mints an unclassifiable error; wrap a package sentinel with fmt.Errorf("...: %w", ErrX) instead`,
		`internal/chunkstore/taxonomy.go:29: [err-taxonomy] fmt.Errorf without %w mints an unclassifiable error; wrap a package sentinel or the underlying cause`,
		`internal/chunkstore/unlockpath.go:14: [unlock-path] return while t.mu is held and its Unlock is not deferred (locked at line 12)`,
		`internal/chunkstore/unlockpath.go:23: [unlock-path] t.mu.Lock() with no deferred or subsequent Unlock in leak`,
		`internal/objectstore/cache.go:24: [lock-order] objectstore.objCache.mu acquired while objectstore.versionTable.mu is held creates a cycle in the module lock graph (objectstore.versionTable.mu → objectstore.objCache.mu → objectstore.versionTable.mu); take module mutexes in one global order`,
		`internal/objectstore/cache.go:42: [lock-order] objectstore.versionTable.mu acquired while objectstore.objCache.mu is held (via chained) creates a cycle in the module lock graph (objectstore.objCache.mu → objectstore.versionTable.mu → objectstore.objCache.mu); take module mutexes in one global order`,
		`internal/objectstore/mvcc.go:38: [locked-io] call reaches platform/sec work while vt.mu is held (Read → readLocked → (fixmod/internal/platform.File).ReadAt); move it off the critical section or declare a serialization point (*Locked / //tdblint:serial)`,
		`internal/sec/hygiene.go:7: [secret-hygiene] "macKey" flows into fmt.Sprintf; secret material must never be formatted or logged`,
		`internal/sec/hygiene.go:19: [secret-hygiene] "ivSeed" flows into fmt.Sprintf; secret material must never be formatted or logged`,
		`internal/sec/keys.go:18: [plaintext-flow] key material derived at internal/sec/keys.go:17 reaches (fixmod/internal/platform.File).WriteAt without passing through sec.Suite.Encrypt; encrypt before handing bytes to the untrusted store`,
		`internal/workload/workload.go:6: [secret-hygiene] math/rand imported outside _test.go; use crypto/rand near secret material`,
	}
	findings := runOn(t, filepath.Join("testdata", "src", "fixmod"))
	var got []string
	for _, f := range findings {
		got = append(got, f.String())
	}
	if len(got) != len(want) {
		t.Errorf("got %d findings, want %d", len(got), len(want))
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			t.Errorf("missing finding: %s", want[i])
		case i >= len(want):
			t.Errorf("unexpected finding: %s", got[i])
		case got[i] != want[i]:
			t.Errorf("finding %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// TestFixturePerAnalyzer verifies -only style selection: each analyzer run
// alone reports exactly its own findings (plus the always-on ignore
// hygiene).
func TestFixturePerAnalyzer(t *testing.T) {
	counts := map[string]int{
		"locked-io":       5, // lockedio.go ×2, readpath.go ×1 (decrypt under RLock), prefetch.go ×1 (decrypt under the pool mutex), the cross-package snapshot-path case in objectstore/mvcc.go
		"err-taxonomy":    5, // taxonomy.go ×3, ignore.go ×2 (bare directives suppress nothing)
		"secret-hygiene":  3,
		"clock-injection": 2,
		"unlock-path":     2,
		"raw-io-funnel":   6, // rawio.go ×3, lockedio.go ×3 (raw WriteAt under a mutex is doubly wrong)
		"plaintext-flow":  4, // flow.go ×3 (decrypt, plaintext param, field stash), keys.go ×1
		"lock-order":      6, // both edges of the wall/door cycle in lockorder.go, of the rstore/rshard cycle in readpath.go, and of the versionTable/objCache cycle in objectstore/cache.go
	}
	for name, want := range counts {
		findings := runOn(t, filepath.Join("testdata", "src", "fixmod"), name)
		got := 0
		for _, f := range findings {
			if f.Analyzer == name {
				got++
			} else if f.Analyzer != "bare-ignore" {
				t.Errorf("-only %s reported foreign analyzer %s: %s", name, f.Analyzer, f)
			}
		}
		if got != want {
			t.Errorf("-only %s: %d findings, want %d", name, got, want)
		}
	}
}

// TestReasonlessIgnoreRejected pins the suppression discipline: a
// reasonless directive is reported and does not silence the finding it
// covers, while a reasoned one both survives and silences.
func TestReasonlessIgnoreRejected(t *testing.T) {
	findings := runOn(t, filepath.Join("testdata", "src", "fixmod"), "err-taxonomy")
	var bare, suppressedLine, bareLine bool
	for _, f := range findings {
		if f.Analyzer == "bare-ignore" && strings.Contains(f.Message, "without a reason") {
			bare = true
		}
		if strings.HasSuffix(f.Pos.Filename, "ignore.go") {
			switch f.Pos.Line {
			case 9: // reasoned suppression covers this fmt.Errorf
				suppressedLine = true
			case 16: // reasonless suppression must not cover this one
				bareLine = true
			}
		}
	}
	if !bare {
		t.Error("reasonless //tdblint:ignore was not reported")
	}
	if suppressedLine {
		t.Error("reasoned //tdblint:ignore failed to suppress its finding")
	}
	if !bareLine {
		t.Error("reasonless //tdblint:ignore silenced the finding it covers")
	}
}

// TestLiveTreeClean is the gate test: the repository itself must be
// finding-free. A reintroduced violation anywhere in the module fails this
// test (and `make lint`, which `make check` runs).
func TestLiveTreeClean(t *testing.T) {
	findings := runOn(t, filepath.Join("..", ".."))
	for _, f := range findings {
		t.Errorf("live tree: %s", f)
	}
}

// TestJSONOutput covers -json: one JSON object per finding per line, and
// the classic rendering stays byte-identical without the flag.
func TestJSONOutput(t *testing.T) {
	findings := []Finding{
		{Pos: token.Position{Filename: "a/b.go", Line: 7}, Analyzer: "plaintext-flow", Message: `plaintext reaches the store`},
		{Pos: token.Position{Filename: "c.go", Line: 12}, Analyzer: "lock-order", Message: "cycle"},
	}
	var buf bytes.Buffer
	printFindings(&buf, findings, true)
	type line struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	var got []line
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("unmarshal %q: %v", sc.Text(), err)
		}
		got = append(got, l)
	}
	want := []line{
		{"a/b.go", 7, "plaintext-flow", "plaintext reaches the store"},
		{"c.go", 12, "lock-order", "cycle"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d JSON lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: got %+v, want %+v", i, got[i], want[i])
		}
	}

	buf.Reset()
	printFindings(&buf, findings, false)
	plain := "a/b.go:7: [plaintext-flow] plaintext reaches the store\nc.go:12: [lock-order] cycle\n"
	if buf.String() != plain {
		t.Errorf("plain output:\n got  %q\n want %q", buf.String(), plain)
	}
}

func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers("", "")
	if err != nil || len(all) != len(analyzerNames) {
		t.Fatalf("default selection: %v, %v", all, err)
	}
	one, err := selectAnalyzers("locked-io", "")
	if err != nil || len(one) != 1 || !one["locked-io"] {
		t.Fatalf("-only locked-io: %v, %v", one, err)
	}
	skipped, err := selectAnalyzers("", "unlock-path")
	if err != nil || skipped["unlock-path"] || len(skipped) != len(analyzerNames)-1 {
		t.Fatalf("-skip unlock-path: %v, %v", skipped, err)
	}
	if _, err := selectAnalyzers("bogus", ""); err == nil {
		t.Fatal("-only bogus: expected error")
	}
	if _, err := selectAnalyzers("", "bogus"); err == nil {
		t.Fatal("-skip bogus: expected error")
	}
}
