package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"tdb"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

const smokeOps = 400

func smokeRun(t *testing.T, name string, trace bool) *outcome {
	t.Helper()
	out, err := run(runConfig{workload: name, seed: 7, trace: trace, ops: smokeOps, smoke: true, setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.checkErr != nil {
		t.Fatalf("correctness check: %v", out.checkErr)
	}
	return out
}

// checkEmitted fails unless got holds exactly the metrics of want, with
// the same units.
func checkEmitted(t *testing.T, got []metric, want []struct{ Name, Unit string }, nonzero bool) {
	t.Helper()
	units := map[string]string{}
	for _, m := range got {
		units[m.name] = m.unit
		if nonzero && m.value <= 0 {
			t.Errorf("%s = %v, want a positive value", m.name, m.value)
		}
	}
	for _, w := range want {
		if u, ok := units[w.Name]; !ok {
			t.Errorf("%s not emitted", w.Name)
		} else if u != w.Unit {
			t.Errorf("%s emitted in %q, BENCHMARK.json says %q", w.Name, u, w.Unit)
		}
		delete(units, w.Name)
	}
	for name := range units {
		t.Errorf("%s emitted but not declared in BENCHMARK.json", name)
	}
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks that each reports every declared metric, that both runs did the
// same operations, and that the trace holds one root span per operation.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(specs))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			plain := smokeRun(t, w.Name, false)
			traced := smokeRun(t, w.Name, true)
			checkEmitted(t, endToEnd(plain), spec.EndToEnd, true)
			checkEmitted(t, perLayer(traced), spec.PerLayer, false)

			p, tr := &plain.phases[0], &traced.phases[1]
			if p.attempted != tr.attempted || p.failed != tr.failed {
				t.Errorf("untraced run attempted %v failed %v; traced run attempted %v failed %v",
					p.attempted, p.failed, tr.attempted, tr.failed)
			}
			roots := traced.spans[spOpCommit].calls + traced.spans[spOpRead].calls + traced.spans[spOpScan].calls
			if roots != tr.ops() || traced.dropped != 0 {
				t.Errorf("trace holds %d operation spans (%d dropped) for %d operations", roots, traced.dropped, tr.ops())
			}
			if tr.ops() != int64(smokeOps*mustSpec(t, w.Name).clients) {
				t.Errorf("traced run attempted %d operations, want %d per client", tr.ops(), smokeOps)
			}
		})
	}
}

func mustSpec(t *testing.T, name string) spec {
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return sp
}

// TestBrokenInputFailsCheck damages each workload's database through the
// public API after a smoke run, the way a lost write would, and expects the
// correctness check to fail.
func TestBrokenInputFailsCheck(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(w workload) error
	}{
		{"tpcb", func(w workload) error { // drop one History row
			tw := w.(*tpcbWorkload)
			ct := tw.d.Begin()
			h, err := ct.WriteCollection("history", tw.historyIx)
			if err != nil {
				return err
			}
			it, err := h.Query(tw.historyIx)
			if err != nil {
				return err
			}
			if !it.Next() {
				return os.ErrNotExist
			}
			if err := it.Delete(); err != nil {
				return err
			}
			if err := it.Close(); err != nil {
				return err
			}
			return ct.Commit(true)
		}},
		{"meters", func(w workload) error { // count a play nobody acknowledged
			mw := w.(*metersWorkload)
			txn := mw.d.BeginObject()
			m, err := tdb.OpenWritable[*meter](txn, mw.meters[0])
			if err != nil {
				return err
			}
			m.Deref().Plays++
			return txn.Commit(true)
		}},
		{"catalog", func(w workload) error { // write a version nobody acknowledged
			cw := w.(*catalogWorkload)
			cw.versions[3]++
			var c client
			err := cw.runUpdate(&c, cw.makeItem(3, cw.versions[3]))
			cw.versions[3]--
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := mustSpec(t, tc.name)
			st, err := newStack(sp.chargeReads)
			if err != nil {
				t.Fatal(err)
			}
			w := sp.newWorkload(7, true)
			if err := w.setup(st); err != nil {
				t.Fatal(err)
			}
			defer w.close()
			c := &client{rng: rand.New(rand.NewSource(1)), db: w.db(), disk: st.disk}
			for range 200 {
				if err := w.step(c); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.check(st); err != nil {
				t.Fatalf("intact database failed its check: %v", err)
			}
			if err := tc.break_(w); err != nil {
				t.Fatal(err)
			}
			if err := w.check(st); err == nil {
				t.Fatal("check passed on a damaged database")
			}
		})
	}
}

// TestUntracedPathDoesNotAllocate pins the recorder's cost when tracing is
// off: opening and closing spans and counting File calls allocate nothing.
func TestUntracedPathDoesNotAllocate(t *testing.T) {
	st, err := newStack(false)
	if err != nil {
		t.Fatal(err)
	}
	f, err := st.store.Create("probe")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	c := &client{disk: st.disk}
	allocs := testing.AllocsPerRun(100, func() {
		c.start(opRead)
		ref := c.enter(spColQuery)
		if _, err := f.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		ref.leave()
		c.samples = c.samples[:0]
		if _, err := c.finish(nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("untraced operation allocated %v times", allocs)
	}
}
