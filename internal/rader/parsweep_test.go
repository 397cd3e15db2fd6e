package rader

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/progs"
	"repro/internal/specgen"
	"repro/internal/streamerr"
)

// The deque contract the scheduler's locality story rests on: the owner
// pops the deepest (most recently pushed) unit, a thief steals the
// shallowest (oldest) one.
func TestDequeOwnerPopsDeepThiefStealsShallow(t *testing.T) {
	ws := newWSSched(nil, 1)
	w := ws.workers[0]
	for seq := 1; seq <= 3; seq++ {
		ws.push(w, unitTask{seedSeq: seq})
	}
	if tk, ok := w.pop(); !ok || tk.seedSeq != 3 {
		t.Fatalf("owner pop got seq %d (ok=%v), want deepest 3", tk.seedSeq, ok)
	}
	if tk, ok := w.stealTop(); !ok || tk.seedSeq != 1 {
		t.Fatalf("steal got seq %d (ok=%v), want shallowest 1", tk.seedSeq, ok)
	}
	if tk, ok := w.stealTop(); !ok || tk.seedSeq != 2 {
		t.Fatalf("second steal got seq %d (ok=%v), want 2", tk.seedSeq, ok)
	}
	if _, ok := w.pop(); ok {
		t.Fatal("pop succeeded on an empty deque")
	}
	if _, ok := w.stealTop(); ok {
		t.Fatal("steal succeeded on an empty deque")
	}
}

// Stealing the root unit is the one steal that moves the entire sweep —
// snapshot-less, carrying the Peer-Set piggyback with it. Running a
// two-worker scheduler on the thief's goroutine alone makes that steal
// deterministic: worker 1's deque is empty, so its first unit must come
// from worker 0, and every subsequent unit is its own. The stolen sweep
// must still resolve every group and carry the piggybacked verdict.
func TestRootUnitSteal(t *testing.T) {
	e := mustEntry(t, "figure1-shallow-copy")
	factory := func() func(*cilk.Ctx) { return e.Build(mem.NewAllocator()) }
	ref := sweepEntry(e, SweepOptions{Workers: 1})

	profile, probes, err := measureProbes(factory)
	if err != nil {
		t.Fatal(err)
	}
	fam := specgen.NewFamily(profile)
	sel := specgen.SampleFamily(fam, probes, 0, 0)
	var unitsDone int
	s := &prefixSweep{
		factory: factory,
		clock:   newSweepClock(0),
		fam:     fam, sel: sel,
		trie:     specgen.BuildTrieIndexed(len(sel), func(pos int) cilk.StealSpec { return fam.At(sel[pos]) }, probes),
		progress: newProgressSink(func(p SweepProgress) { unitsDone = p.UnitsDone }),
	}
	s.results = make([]runVerdict, len(s.trie.Groups))
	s.progress.start(len(s.trie.Groups))
	ws := newWSSched(s, 2)
	s.sched = ws
	ws.push(ws.workers[0], unitTask{node: s.trie.Root, root: true})
	ws.run(ws.workers[1])

	if got := ws.steals.Load(); got != 1 {
		t.Errorf("steals = %d, want exactly the root steal", got)
	}
	if got := ws.handoffs.Load(); got != 0 {
		t.Errorf("handoffs = %d; the root unit carries no snapshot", got)
	}
	if unitsDone != len(s.trie.Groups) {
		t.Fatalf("resolved %d of %d groups", unitsDone, len(s.trie.Groups))
	}
	if s.psErr != nil {
		t.Fatalf("root unit failed: %v", s.psErr)
	}

	got, want := map[string]bool{}, map[string]bool{}
	var viewReads []string
	for g, res := range s.results {
		if res.err != nil {
			t.Fatalf("group %d failed: %v", g, res.err)
		}
		for _, r := range res.races {
			got[r.String()] = true
		}
		if res.viewReads != nil {
			for _, r := range res.viewReads.Races() {
				viewReads = append(viewReads, r.String())
			}
		}
	}
	for _, f := range ref.Races {
		want[f.Race.String()] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stolen sweep races differ from reference:\ngot  %v\nwant %v", got, want)
	}
	wantVR := []string(nil)
	for _, r := range ref.ViewReads.Races() {
		wantVR = append(wantVR, r.String())
	}
	if !reflect.DeepEqual(viewReads, wantVR) {
		t.Errorf("piggybacked Peer-Set verdict differs:\ngot  %v\nwant %v", viewReads, wantVR)
	}
}

// stealSensitive builds a program that is ostensibly deterministic but
// panics under any schedule that steals before the mid-loop reducer read:
// a stolen continuation runs on a fresh identity view, so the read
// observes fewer updates than the serial elision would. Specifications
// stealing at probe readAt or earlier fail mid-run, before the probes
// behind the read ever fire — exactly the situation where a prefix unit
// dies with branch subtrees still unspawned and must respawn them live.
func stealSensitive(k, readAt int) func(*cilk.Ctx) {
	return func(c *cilk.Ctx) {
		r := c.NewReducer("acc", progs.SumMonoid, 0)
		for i := 0; i < k; i++ {
			if i == readAt {
				if got := c.Value(r).(int); got != i {
					panic("partial reducer view observed")
				}
			}
			c.Spawn("w", func(c *cilk.Ctx) {
				c.Update(r, func(_ *cilk.Ctx, v any) any { return v.(int) + 1 })
			})
		}
		c.Sync()
	}
}

// A seeded unit that panics mid-run fails exactly its own group; the
// failure must land on the same specifications, with the same error text,
// as the naive sweep — at any worker count — and every group must still
// run exactly once.
func TestSweepPanicInSeededUnits(t *testing.T) {
	factory := func() func(*cilk.Ctx) { return stealSensitive(6, 3) }
	var byWorkers []*CoverageResult
	for _, workers := range []int{1, 8} {
		prefix := Sweep(factory, SweepOptions{Workers: workers})
		naive := Sweep(factory, SweepOptions{Workers: workers, Naive: true})
		if prefix.Stats.Strategy != "prefix" {
			t.Fatalf("strategy %q, want prefix", prefix.Stats.Strategy)
		}
		requireEquivalent(t, prefix, naive)
		if len(prefix.Failures) == 0 {
			t.Fatal("no specification panicked; the program is not steal-sensitive")
		}
		if prefix.SpecsRun == 0 {
			t.Fatal("every specification failed; the serial base schedule should survive")
		}
		st := prefix.Stats
		if units := st.SnapshotHits + st.SnapshotMisses; units != int64(st.Groups) {
			t.Errorf("ran %d units for %d groups; each group must run exactly once", units, st.Groups)
		}
		byWorkers = append(byWorkers, prefix)
	}
	if !reflect.DeepEqual(byWorkers[0].Races, byWorkers[1].Races) ||
		!reflect.DeepEqual(byWorkers[0].Failures, byWorkers[1].Failures) {
		t.Errorf("panicking sweep differs across worker counts:\n1 worker:  %v / %v\n8 workers: %v / %v",
			byWorkers[0].Races, byWorkers[0].Failures, byWorkers[1].Races, byWorkers[1].Failures)
	}
}

// When the root unit dies mid-spine (here: an event budget abort), the
// sibling subtrees behind its unreached branch points are respawned as
// snapshot-less live units — and a thief must be able to steal those like
// any other unit. Driving the scheduler by hand makes the scenario
// deterministic: worker 1 steals the root, the budget kills it after it
// pushed only some of its branches, then worker 0 steals from worker 1's
// deque — seeded siblings first (shallowest), then the respawns — and
// every group still settles exactly once.
func TestStealDuringFailedPrefixRespawn(t *testing.T) {
	e := mustEntry(t, "figure1-shallow-copy")
	factory := func() func(*cilk.Ctx) { return e.Build(mem.NewAllocator()) }
	profile, probes, err := measureProbes(factory)
	if err != nil {
		t.Fatal(err)
	}
	fam := specgen.NewFamily(profile)
	sel := specgen.SampleFamily(fam, probes, 0, 0)
	var unitsDone int
	s := &prefixSweep{
		factory: factory,
		opts:    SweepOptions{EventBudget: 20}, // aborts the root unit mid-spine
		clock:   newSweepClock(0),
		fam:     fam, sel: sel,
		trie:     specgen.BuildTrieIndexed(len(sel), func(pos int) cilk.StealSpec { return fam.At(sel[pos]) }, probes),
		progress: newProgressSink(func(p SweepProgress) { unitsDone = p.UnitsDone }),
	}
	s.results = make([]runVerdict, len(s.trie.Groups))
	s.progress.start(len(s.trie.Groups))
	ws := newWSSched(s, 2)
	s.sched = ws
	ws.push(ws.workers[0], unitTask{node: s.trie.Root, root: true})

	rootT, ok := ws.workers[0].stealTop()
	if !ok {
		t.Fatal("root unit not stealable")
	}
	s.runUnit(rootT, ws.workers[1])
	if s.psErr == nil {
		t.Fatal("budget did not abort the root unit; the respawn path never ran")
	}

	seededStolen, respawnsStolen := 0, 0
	for {
		tk, ok := ws.workers[1].stealTop()
		if !ok {
			break
		}
		if tk.snap == nil {
			respawnsStolen++
		} else {
			seededStolen++
		}
		s.runUnit(tk, ws.workers[0])
	}
	for { // drain anything the stolen units pushed onto worker 0
		tk, ok := ws.workers[0].pop()
		if !ok {
			break
		}
		s.runUnit(tk, ws.workers[0])
	}
	if respawnsStolen == 0 {
		t.Errorf("no snapshot-less respawned unit was stolen (stole %d seeded)", seededStolen)
	}
	if seededStolen == 0 {
		t.Errorf("no seeded unit was stolen before the respawns")
	}
	if unitsDone != len(s.trie.Groups) {
		t.Fatalf("resolved %d of %d groups", unitsDone, len(s.trie.Groups))
	}
}

// Every steal after the root carries the divergence snapshot with it. A
// two-worker schedule where worker 0 runs only the root unit and worker 1
// then drains the scheduler makes every remaining unit a steal from
// worker 0's deque — so handoffs must count exactly the seeded units.
func TestSnapshotHandoffOnSteal(t *testing.T) {
	e := mustEntry(t, "reduce-strand-race-hidden")
	factory := func() func(*cilk.Ctx) { return e.Build(mem.NewAllocator()) }
	profile, probes, err := measureProbes(factory)
	if err != nil {
		t.Fatal(err)
	}
	fam := specgen.NewFamily(profile)
	sel := specgen.SampleFamily(fam, probes, 0, 0)
	var unitsDone int
	s := &prefixSweep{
		factory: factory,
		clock:   newSweepClock(0),
		fam:     fam, sel: sel,
		trie:     specgen.BuildTrieIndexed(len(sel), func(pos int) cilk.StealSpec { return fam.At(sel[pos]) }, probes),
		progress: newProgressSink(func(p SweepProgress) { unitsDone = p.UnitsDone }),
	}
	s.results = make([]runVerdict, len(s.trie.Groups))
	s.progress.start(len(s.trie.Groups))
	ws := newWSSched(s, 2)
	s.sched = ws
	ws.push(ws.workers[0], unitTask{node: s.trie.Root, root: true})

	rootT, _ := ws.workers[0].pop()
	s.runUnit(rootT, ws.workers[0])
	ws.pending.Add(-1)
	ws.run(ws.workers[1])

	if want := int64(len(s.trie.Groups) - 1); ws.steals.Load() != want {
		t.Errorf("steals = %d, want every non-root unit (%d)", ws.steals.Load(), want)
	}
	if ws.handoffs.Load() == 0 {
		t.Error("no stolen unit carried a snapshot")
	}
	if got, hits := ws.handoffs.Load(), s.hits.Load(); got != hits {
		t.Errorf("handoffs = %d, seeded units = %d; every seeded unit was stolen here", got, hits)
	}
	if unitsDone != len(s.trie.Groups) {
		t.Fatalf("resolved %d of %d groups", unitsDone, len(s.trie.Groups))
	}
}

// Deque stress: an 8-worker sweep of a reducer_bench-style family (~6000
// groups) must actually distribute work while resolving every group
// exactly once, and the steal/handoff accounting must hold its invariant:
// only snapshot-less units (the root, failure respawns) can be stolen
// without a handoff. Run under -race this is the concurrency test of the
// deques, parking protocol and snapshot refcounts.
func TestSweepDequeStressEightWorkers(t *testing.T) {
	factory := func() func(*cilk.Ctx) { return progs.ReducerBench(mem.NewAllocator(), 32) }
	cr := Sweep(factory, SweepOptions{Workers: 8})
	if !cr.Complete() {
		t.Fatalf("stress sweep failed: %v", cr.Failures)
	}
	st := cr.Stats
	if st.Strategy != "prefix" || st.Workers != 8 {
		t.Fatalf("ran strategy %q at %d workers, want prefix at 8", st.Strategy, st.Workers)
	}
	if units := st.SnapshotHits + st.SnapshotMisses; units != int64(st.Groups) {
		t.Errorf("ran %d units for %d groups", units, st.Groups)
	}
	if st.Steals == 0 {
		t.Errorf("8-worker sweep of %d groups recorded no steals", st.Groups)
	}
	if st.Handoffs < st.Steals-st.SnapshotMisses {
		t.Errorf("handoffs = %d with %d steals and %d snapshot-less units; stolen seeded units must hand off",
			st.Handoffs, st.Steals, st.SnapshotMisses)
	}
	if len(st.WorkerBusy) != 8 {
		t.Errorf("WorkerBusy has %d lanes, want 8", len(st.WorkerBusy))
	}
}

// A deadline expiring while stolen units are still queued and in flight
// must split the family cleanly at any worker count: finished units keep
// their verdicts, expired units — including whole subtrees settled by a
// deadline skip, which must still release their seed snapshots — fail
// with KindDeadline, and no specification goes unaccounted.
func TestSweepDeadlineMidSteal(t *testing.T) {
	factory := func() func(*cilk.Ctx) { return slowFlat(7, 2*time.Millisecond) }
	cr := Sweep(factory, SweepOptions{Workers: 8, Timeout: 60 * time.Millisecond})
	if cr.Complete() {
		t.Fatalf("sweep of %d specs in 60ms reports Complete", cr.SpecsRun)
	}
	if cr.SpecsRun == 0 {
		t.Fatal("no unit finished before the deadline; timeout too tight for this machine")
	}
	if cr.SpecsRun+len(cr.Failures) < 92 {
		t.Fatalf("specs unaccounted for: %d ran + %d failed, want 92 settled", cr.SpecsRun, len(cr.Failures))
	}
	deadlineFailures := 0
	for _, sf := range cr.Failures {
		var se *streamerr.Error
		if !errors.As(sf.Err, &se) {
			t.Fatalf("failure %v is not a stream error", sf)
		}
		if se.Kind == streamerr.KindDeadline {
			deadlineFailures++
		}
	}
	if deadlineFailures == 0 {
		t.Fatalf("no deadline failure among %d failures", len(cr.Failures))
	}
}
