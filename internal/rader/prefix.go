package rader

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/specgen"
	"repro/internal/spplus"
	"repro/internal/streamerr"
)

// The prefix-sharing sweep makes each unit's cost proportional to its
// specification's divergent suffix instead of the whole execution. The
// family's specs are grouped by longest common prefix of steal decisions
// into a trie (specgen.BuildTrieIndexed, expanded lazily as units walk
// it); each trie leaf is one group of stream-identical specs and is
// analysed exactly once. A sweep unit walks the leftmost path of its
// subtree: it re-executes the program with the SP+ detector gated off for
// the shared prefix, restores the detector from the snapshot captured at
// the subtree's divergence probe, and lets the gate open there. At each
// branch node on its path it captures a fresh copy-on-write snapshot and
// pushes one unit per sibling subtree onto its own deque — the
// work-stealing scheduler in parsweep.go distributes those units across
// workers, handing the snapshot off with each stolen unit. The
// budget/deadline guard sits outside the gate, so every unit counts the
// full event stream — budget and deadline aborts land on the same event,
// with the same error text, as the naive per-spec sweep.

// SweepStats accounts for how a sweep was executed. It is diagnostic
// output: two sweeps over the same program are equivalent iff their
// canonical CoverageResult fields match, regardless of Stats. The
// scheduling fields (Workers, Steals, Handoffs, PagesPooled, WorkerBusy)
// are nondeterministic across runs and never enter the report document;
// the sampling fields (SpecsTotal, Sampled, CoverageFraction, Confidence)
// are deterministic and do.
type SweepStats struct {
	// Strategy is "prefix" or "naive".
	Strategy string
	// SnapshotHits counts sweep units seeded from a detector snapshot;
	// SnapshotMisses counts units that ran fully live (the root unit, and
	// any fallback unit respawned after a failure upstream of its subtree).
	SnapshotHits   int64
	SnapshotMisses int64
	// EventsSkipped is the total number of instrumentation events the
	// prefix gates suppressed — work the naive sweep would have fed to a
	// live detector.
	EventsSkipped int64
	// PagesCopied counts shadow-memory pages cloned by copy-on-write
	// across all units — the cost side of forking detectors.
	PagesCopied int64
	// Groups is the number of distinct event streams the family collapsed
	// to (specs with identical steal decisions and reduce mode share one).
	Groups int

	// Workers is the scheduler width the sweep ran at.
	Workers int
	// Steals counts units taken from another worker's deque; Handoffs
	// counts the stolen units that carried a snapshot across workers (the
	// rest ran live — root and failure-respawn units).
	Steals   int64
	Handoffs int64
	// PagesPooled is the shadow-page free-list residency summed over the
	// workers' pooled detectors at sweep end (each list capped, so a
	// 10^4-spec sweep cannot hoard pages unboundedly).
	PagesPooled int
	// WorkerBusy is each worker's total unit time in nanoseconds — thread
	// CPU time on Linux, per-unit wall time elsewhere. Max over workers is
	// the sweep's critical path — the scaling measure on hosts with fewer
	// cores than workers, where wall-time billing would charge every lane
	// for time spent preempted.
	WorkerBusy []int64

	// SpecsTotal is the full family size; when the sweep was sampled,
	// Sampled is set, CoverageFraction is the fraction of the family that
	// ran, and Confidence carries the human-readable caveat. All four are
	// deterministic for a given (program, options) and are part of the
	// report document.
	SpecsTotal       int
	Sampled          bool
	CoverageFraction float64
	Confidence       string
}

// unitTask is one schedulable sweep unit: analyse the leftmost leaf group
// of node, seeded from snap at divergence probe seedSeq. A nil snap means
// the unit runs fully live from the first event (the root unit, and
// fallback units respawned after an upstream failure).
type unitTask struct {
	node    *specgen.TrieNode
	snap    *snapRef
	seedSeq int
	root    bool
}

// prefixSweep is the shared state of one prefix-sharing sweep run.
type prefixSweep struct {
	factory func() func(*cilk.Ctx)
	opts    SweepOptions
	clock   sweepClock

	fam  *specgen.Family
	sel  []int // family indices the sweep runs (all, or the sample)
	trie *specgen.Trie

	results []runVerdict // one slot per trie group, each written once
	psErr   error        // root-unit failure, doubling as the peer-set loss

	sched    *wsSched
	progress *progressSink

	hits, misses, skipped, pages atomic.Int64
}

// specAt returns the specification at position pos of the selection.
func (s *prefixSweep) specAt(pos int) cilk.StealSpec { return s.fam.At(s.sel[pos]) }

// sweepPrefix runs the §7 sweep with prefix sharing on the work-stealing
// scheduler. Equivalence contract: the returned CoverageResult's canonical
// fields (Profile, SpecsRun, ViewReads, Races, Failures, TotalReports) are
// byte-identical to the naive per-specification sweep's, at any worker
// count and under the same sampling options.
func sweepPrefix(factory func() func(*cilk.Ctx), opts SweepOptions, workers int, clock sweepClock) *CoverageResult {
	cr := &CoverageResult{ViewReads: &core.Report{}, Stats: SweepStats{Strategy: "prefix", Workers: workers}}

	pspan := opts.Trace.Start("profile")
	profile, probes, err := measureProbes(factory)
	pspan.End()
	if err != nil {
		cr.Failures = append(cr.Failures, SpecFailure{Spec: "profile", Err: err})
		return cr
	}
	cr.Profile = profile

	fam := specgen.NewFamily(profile)
	sel := specgen.SampleFamily(fam, probes, opts.SampleSpecs, opts.SampleSeed)
	applySampleStats(&cr.Stats, fam.Len(), len(sel))
	s := &prefixSweep{
		factory: factory, opts: opts, clock: clock,
		fam: fam, sel: sel,
		trie:     specgen.BuildTrieIndexed(len(sel), func(pos int) cilk.StealSpec { return fam.At(sel[pos]) }, probes),
		progress: newProgressSink(opts.OnProgress),
	}
	s.results = make([]runVerdict, len(s.trie.Groups))
	cr.Stats.Groups = len(s.trie.Groups)
	s.progress.start(len(s.trie.Groups))

	ws := newWSSched(s, workers)
	s.sched = ws
	ws.push(ws.workers[0], unitTask{node: s.trie.Root, root: true})
	ws.runAll()

	cr.Stats.SnapshotHits = s.hits.Load()
	cr.Stats.SnapshotMisses = s.misses.Load()
	cr.Stats.EventsSkipped = s.skipped.Load()
	cr.Stats.PagesCopied = s.pages.Load()
	cr.Stats.Steals = ws.steals.Load()
	cr.Stats.Handoffs = ws.handoffs.Load()
	for _, w := range ws.workers {
		cr.Stats.WorkerBusy = append(cr.Stats.WorkerBusy, w.busy.Nanoseconds())
		cr.Stats.PagesPooled += w.pooled
	}

	// Replicate each group's verdict to every member specification in
	// selection order, so the shared collect step attributes each race to
	// the same first specification as the naive sweep.
	cspan := opts.Trace.Start("collect")
	groupOf := make([]int, len(sel))
	for g, members := range s.trie.Groups {
		for _, pos := range members {
			groupOf[pos] = g
		}
	}
	cr.collect(len(sel), func(pos int) *runVerdict { return &s.results[groupOf[pos]] },
		func(pos int) string { return sched.Format(s.specAt(pos)) }, s.psErr)
	cspan.Arg("specs", cr.SpecsRun).Arg("races", len(cr.Races)).
		Arg("failures", len(cr.Failures)).End()
	return cr
}

// applySampleStats fills the deterministic sampling fields shared by both
// sweep strategies.
func applySampleStats(st *SweepStats, total, selected int) {
	st.SpecsTotal = total
	st.CoverageFraction = 1
	if total > 0 {
		st.CoverageFraction = float64(selected) / float64(total)
	}
	if selected < total {
		st.Sampled = true
		st.Confidence = confidenceNote(selected, total)
	}
}

// confidenceNote renders the deterministic caveat attached to a sampled
// sweep's stats (and report document): a sampled sweep proves races it
// finds, but its clean verdict covers only the schedules it ran.
func confidenceNote(selected, total int) string {
	return fmt.Sprintf("sampled %d of %d specifications (%.1f%% of the family, "+
		"stratified by first-steal subtree); a clean verdict covers only the sampled schedules",
		selected, total, 100*float64(selected)/float64(total))
}

func deadlineSkip() error {
	return streamerr.Errorf("rader", streamerr.KindDeadline,
		"sweep deadline exceeded before specification ran")
}

// runUnit analyses the leftmost leaf group of t.node on worker w, and
// pushes one unit per sibling subtree at each branch node on the way down.
func (s *prefixSweep) runUnit(t unitTask, w *sweepWorker) {
	if s.clock.expired() {
		t.snap.release(w)
		err := deadlineSkip()
		groups := t.node.Leaves(nil)
		for _, g := range groups {
			s.results[g] = runVerdict{err: err}
		}
		if t.root {
			s.psErr = err
		}
		// A deadline skip settles every leaf group under the node at once.
		s.progress.unitDone(len(groups), 0, 0, 0)
		return
	}

	var branches []*specgen.TrieNode
	n := t.node
	for {
		s.trie.Expand(n)
		if n.IsLeaf() {
			break
		}
		branches = append(branches, n)
		n = n.Children[0]
	}
	leaf := n.Group
	leafSpec := s.specAt(s.trie.Groups[leaf][0])
	// Span methods accept nil, but formatting the name and boxing the
	// args would still cost every unit of an untraced sweep.
	var span *obs.Span
	if s.opts.Trace != nil {
		span = s.opts.Trace.StartTID(w.id+1, "spec:"+sched.Format(leafSpec))
	}

	det := w.detPool.Get().(*spplus.Detector)
	det.Reset()
	pagesBefore := int64(det.PagesCopied())
	seeded := t.snap != nil
	if seeded {
		det.Restore(t.snap.snap)
		t.snap.release(w)
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	gate := w.gate
	gate.Rearm(det, !seeded)

	// nextBranch is shared with the recovery path: sibling subtrees of
	// branch nodes the failing unit never reached must still be analysed,
	// so they are respawned as fully live units.
	nextBranch := 0
	unitRaces := 0
	defer func() {
		skipped := gate.Skipped()
		pages := int64(det.PagesCopied()) - pagesBefore
		s.skipped.Add(skipped)
		s.pages.Add(pages)
		if p := recover(); p != nil {
			err := streamerr.FromPanic("rader", p)
			s.results[leaf] = runVerdict{err: err}
			unitRaces = 0
			if t.root {
				s.psErr = err
			}
			for _, b := range branches[nextBranch:] {
				for _, child := range b.Children[1:] {
					s.sched.push(w, unitTask{node: child})
				}
			}
			span.Arg("error", err.Error()).End()
		}
		// Resolved one leaf group, by verdict or by failure.
		s.progress.unitDone(1, unitRaces, skipped, pages)
		det.Reset()
		w.pooled = det.PagesPooled()
		w.detPool.Put(det)
	}()

	onProbe := func(ci cilk.ContInfo) {
		if ci.Seq < 1 || ci.Seq > len(s.trie.Probes) || !s.trie.Probes[ci.Seq-1].Matches(ci) {
			panic(streamerr.Errorf("rader", streamerr.KindState,
				"continuation probe %d diverged from the recorded sequence; program is not ostensibly deterministic", ci.Seq))
		}
		for nextBranch < len(branches) && ci.Seq == branches[nextBranch].Seq {
			b := branches[nextBranch]
			nextBranch++
			ref := newSnapRef(det.SnapshotInto(w.takeSnap()), len(b.Children)-1)
			for _, child := range b.Children[1:] {
				s.sched.push(w, unitTask{node: child, snap: ref, seedSeq: b.Seq})
			}
		}
	}
	spec := cilk.NewGatedSpec(leafSpec, gate, t.seedSeq, onProbe)

	var hooks cilk.Hooks = gate
	var ps core.Detector
	if t.root {
		// The root unit's leftmost leaf is the all-serial group (the
		// no-steal edge sorts first at every branch), so — exactly like the
		// naive sweep's first unit — the schedule-independent Peer-Set pass
		// piggybacks on its execution.
		psDet, psHooks, _ := NewDetector(PeerSet)
		ps = psDet
		hooks = cilk.MultiHooks(psHooks, gate)
	}
	if s.opts.EventBudget > 0 || s.opts.Timeout > 0 {
		hooks = newGuard(hooks, s.opts.EventBudget, s.clock.deadline())
	}

	w.ex.Run(s.factory(), cilk.Config{Spec: spec, Hooks: hooks})

	res := runVerdict{
		races: append([]core.Race(nil), det.Report().Races()...),
		total: det.Report().Total(),
	}
	if ps != nil {
		res.viewReads = ps.Report()
	}
	s.results[leaf] = res
	unitRaces = det.Report().Distinct()
	if span != nil {
		span.Arg("races", unitRaces).
			Arg("skipped", gate.Skipped()).
			Arg("seed", t.seedSeq).End()
	}
}

// measureProbes profiles one program instance and records its continuation
// probes, containing any panic the program (or profiler) raises.
func measureProbes(factory func() func(*cilk.Ctx)) (p specgen.Profile, probes []specgen.ProbeRecord, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = streamerr.FromPanic("rader", r)
		}
	}()
	p, probes = specgen.MeasureProbes(factory())
	return p, probes, nil
}
