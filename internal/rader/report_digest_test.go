package rader_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/peerset"
	"repro/internal/progs"
	"repro/internal/rader"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/spbags"
	"repro/internal/specgen"
	"repro/internal/spplus"
	"repro/internal/trace"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/report_digests.golden")

// reportDigestRuns enumerates the report-parity matrix, one line per run,
// "name sha256 bytes" over the run's JSON document:
//   - every corpus entry under each race-reporting detector at the two
//     canonical schedules (json.Marshal of the core.Report);
//   - every benchmark at small scale under SP+ and SP-bags at the three
//     Figure 7 schedules (likewise);
//   - the report.FromCoverage document of a 1-worker §7 sweep of every
//     benchmark at small scale and of ReducerBench(40);
//   - Peer-Set, SP-bags and SP+ on malformed streams in which a child
//     returns with no Sync after its own spawn (see malformedProg).
//
// The file is an external test package because internal/report imports
// rader.
func reportDigestRuns(t *testing.T) []string {
	t.Helper()
	var lines []string
	add := func(name string, doc []byte, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(doc)
		lines = append(lines, fmt.Sprintf("%s %s %d", name, hex.EncodeToString(sum[:]), len(doc)))
	}
	digest := func(name string, prog func(*cilk.Ctx), det rader.DetectorName, spec cilk.StealSpec) {
		out, err := rader.Run(prog, rader.Config{Detector: det, Spec: spec})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		doc, err := json.Marshal(out.Report)
		add(name, doc, err)
	}
	for _, e := range corpus.All() {
		for _, det := range []rader.DetectorName{rader.PeerSet, rader.SPBags, rader.SPPlus, rader.Depa} {
			for _, s := range []struct {
				name string
				spec cilk.StealSpec
			}{{"nosteals", cilk.NoSteals{}}, {"stealall", cilk.StealAll{}}} {
				digest(fmt.Sprintf("corpus/%s/%s/%s", e.Name, det, s.name), e.Build(mem.NewAllocator()), det, s.spec)
			}
		}
	}
	for _, app := range apps.All() {
		k := specgen.Measure(app.Build(mem.NewAllocator(), apps.Small).Prog).MaxSyncBlock
		for _, det := range []rader.DetectorName{rader.SPPlus, rader.SPBags} {
			for _, s := range []struct {
				name string
				spec cilk.StealSpec
			}{
				{"nosteals", nil},
				{fmt.Sprintf("bydepth%d", max(1, k/2)), sched.ByDepth{D: max(1, k/2)}},
				{fmt.Sprintf("random1k%d", k), sched.Random{Seed: 1, K: k}},
			} {
				ins := app.Build(mem.NewAllocator(), apps.Small)
				digest(fmt.Sprintf("apps/%s/%s/%s", app.Name, det, s.name), ins.Prog, det, s.spec)
			}
		}
	}
	sweep := func(name string, factory func() func(*cilk.Ctx)) {
		doc, err := report.FromCoverage(rader.Sweep(factory, rader.SweepOptions{Workers: 1})).Marshal()
		add("sweep/"+name, doc, err)
	}
	for _, app := range apps.All() {
		sweep(app.Name, func() func(*cilk.Ctx) { return app.Build(mem.NewAllocator(), apps.Small).Prog })
	}
	sweep("reducerbench40", func() func(*cilk.Ctx) { return progs.ReducerBench(mem.NewAllocator(), 40) })
	for _, spawned := range []bool{true, false} {
		for _, s := range []struct {
			name string
			spec cilk.StealSpec
		}{{"nosteals", cilk.NoSteals{}}, {"stealall", cilk.StealAll{}}} {
			var buf bytes.Buffer
			tw := trace.NewWriter(&buf)
			cilk.Run(malformedProg(spawned), cilk.Config{Spec: s.spec, Hooks: tw})
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}
			at := syncIndex(t, buf.Bytes(), "g")
			for _, det := range []core.Detector{peerset.New(), spbags.New(), spplus.New()} {
				name := fmt.Sprintf("malformed/spawned=%v/%s/%s", spawned, det.Name(), s.name)
				if _, err := trace.Replay(bytes.NewReader(buf.Bytes()), faults.New(det.(cilk.Hooks), faults.Plan{Kind: faults.Drop, At: at})); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				doc, err := json.Marshal(det.Report())
				add(name, doc, err)
			}
		}
	}
	return lines
}

// malformedProg is the stream shape that leaves a non-empty bag behind
// once the Sync of frame g is dropped from it: g spawns h (which writes
// and reads memory and updates the reducer) and then calls k (which reads
// the reducer and writes memory while h is outstanding), so g returns with
// h still in its P bag (SP+, SP-bags) and k in its SP bag (Peer-Set). g is
// itself spawned or called. The parent then syncs and touches the same
// locations and reducer from its own strands and from fresh children,
// whose bags may take the slots that g's emptied bags gave back.
func malformedProg(spawned bool) func(*cilk.Ctx) {
	x := mem.NewAllocator().Alloc("x", 2)
	return func(c *cilk.Ctx) {
		r := c.NewReducer("sum", progs.SumMonoid, 0)
		g := func(g *cilk.Ctx) {
			g.Spawn("h", func(h *cilk.Ctx) {
				h.Store(x.At(0))
				h.Load(x.At(1))
				h.Update(r, func(_ *cilk.Ctx, v any) any { return v.(int) + 1 })
			})
			g.Call("k", func(k *cilk.Ctx) {
				k.Value(r)
				k.Store(x.At(1))
			})
		}
		if spawned {
			c.Spawn("g", g)
		} else {
			c.Call("g", g)
		}
		c.Sync()
		for i := 0; i < 3; i++ {
			c.Spawn("later", func(l *cilk.Ctx) {
				l.Load(x.At(0))
				l.Store(x.At(1))
			})
			c.Call("after", func(a *cilk.Ctx) {
				a.Store(x.At(0))
				a.Value(r)
			})
			c.Sync()
		}
		c.Load(x.At(0))
		c.Value(r)
	}
}

// syncSpy records the index of the first Sync event of a labelled frame,
// counting every event the way a faults.Injector does.
type syncSpy struct {
	cilk.Empty
	inj   *faults.Injector
	label string
	at    int64
}

func (s *syncSpy) Sync(f *cilk.Frame) {
	if f.Label == s.label && s.at < 0 {
		s.at = s.inj.Events() - 1
	}
}

// syncIndex returns the 0-based event index, as faults.Plan counts it, of
// the first Sync of the frame labelled label in a recorded trace.
func syncIndex(t *testing.T, data []byte, label string) int64 {
	t.Helper()
	spy := &syncSpy{label: label, at: -1}
	spy.inj = faults.New(spy, faults.Plan{Kind: faults.Drop, At: -1})
	if _, err := trace.Replay(bytes.NewReader(data), spy.inj); err != nil {
		t.Fatal(err)
	}
	if spy.at < 0 {
		t.Fatalf("no Sync of %q in trace", label)
	}
	return spy.at
}

// TestReportDigests pins the byte-exact JSON document of every run in the
// parity matrix. Any change to which races a detector or sweep keeps, in
// what order, or how their accesses and provenance render, changes a
// digest. The golden is the parity gate for optimizations of the
// reporting path: it must never be regenerated to absorb such a change.
func TestReportDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs and sweeps every benchmark at small scale")
	}
	path := filepath.Join("testdata", "report_digests.golden")
	got := strings.Join(reportDigestRuns(t), "\n") + "\n"
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-digests to create): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(want) != len(have) {
		t.Fatalf("golden has %d runs, matrix has %d", len(want), len(have))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Errorf("report digest drift:\n got  %s\n want %s", have[i], want[i])
		}
	}
}
