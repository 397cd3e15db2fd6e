// Package rader is the tool layer tying programs, schedules and detectors
// together — the Go analogue of the paper's Rader prototype (§8). It runs
// a Cilk program under a chosen detector and steal specification, returns
// the race report together with the stolen-continuation labels needed to
// replay the schedule, and drives the §7 coverage sweep that checks every
// execution of an ostensibly deterministic program by running SP+ once per
// generated specification.
//
// The layer is hardened: Run recovers panics out of the program or the
// analysis into typed *streamerr.Error values, enforces an optional
// per-run event budget and deadline, and the sweep isolates each
// specification so one poisoned run degrades into a CoverageResult.Failures
// entry instead of killing the whole multi-hundred-execution sweep.
package rader

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/depa"
	"repro/internal/ehlabel"
	"repro/internal/obs"
	"repro/internal/offsetspan"
	"repro/internal/peerset"
	"repro/internal/sched"
	"repro/internal/spbags"
	"repro/internal/specgen"
	"repro/internal/spplus"
	"repro/internal/streamerr"
)

// DetectorName selects the analysis run alongside the program.
type DetectorName string

// The available analyses. None and EmptyTool are the two baselines of the
// evaluation: no instrumentation at all, and instrumentation calling no-op
// hooks.
const (
	None      DetectorName = "none"
	EmptyTool DetectorName = "empty"
	PeerSet   DetectorName = "peer-set"
	SPBags    DetectorName = "sp-bags"
	SPPlus    DetectorName = "sp+"
	// OffsetSpan is the Mellor-Crummey labeling detector of §9's related
	// work, included as a second reducer-oblivious baseline.
	OffsetSpan DetectorName = "offset-span"
	// EnglishHebrew is the Nudler-Rudolph labeling detector, the earliest
	// scheme §9 surveys.
	EnglishHebrew DetectorName = "english-hebrew"
	// Depa is the order-maintenance detector: DePa-style (depth,
	// fork-path) strand timestamps with a sharded parallel detection
	// phase. Verdicts are byte-identical to SP-bags; it additionally
	// reports parallel-machinery statistics.
	Depa DetectorName = "depa"
	// All runs the paper's three detectors — Peer-Set, SP-bags and SP+ —
	// over a single execution (or a single trace decode) in one pass,
	// producing a merged Outcome with one report per detector.
	All DetectorName = "all"
)

// AllDetectors is the canonical detector order of an All run; every
// merged outcome, report document and cache layout lists detectors in
// this order.
var AllDetectors = []DetectorName{PeerSet, SPBags, SPPlus}

// ParseDetector validates a detector name.
func ParseDetector(s string) (DetectorName, error) {
	switch DetectorName(s) {
	case None, EmptyTool, PeerSet, SPBags, SPPlus, OffsetSpan, EnglishHebrew, Depa, All:
		return DetectorName(s), nil
	default:
		return "", fmt.Errorf("rader: unknown detector %q (have none, empty, peer-set, sp-bags, sp+, offset-span, english-hebrew, depa, all)", s)
	}
}

// Config selects the analysis, schedule and resource limits for one run.
type Config struct {
	Detector DetectorName
	Spec     cilk.StealSpec
	// EventBudget aborts the run with a StreamBudget error once the
	// instrumentation stream exceeds this many events (0 = unlimited).
	EventBudget int64
	// Deadline aborts the run with a StreamDeadline error once the clock
	// passes it (zero time = no deadline). The check is amortized over
	// events, so a run with no instrumentation is not interrupted.
	Deadline time.Time
	// Wrap, when set, wraps the assembled hook chain (detector plus any
	// guard) before the run — the seam the fault-injection harness uses
	// to perturb the stream a detector sees.
	Wrap func(cilk.Hooks) cilk.Hooks
	// Trace, when set, collects a span per run phase (nil disables span
	// collection at zero cost — the obs nil fast path).
	Trace *obs.Trace
}

// Outcome reports one analysed run.
type Outcome struct {
	Detector DetectorName
	Report   *core.Report // nil for None and EmptyTool
	Result   *cilk.Result
	Duration time.Duration
	// Stats holds the detector's disjoint-set accounting when available.
	Stats core.Stats
	// Replay is the textual steal specification reproducing this
	// schedule, reported alongside races for regression testing (§8).
	Replay string
	// Counts is the detector's per-event-class accounting when available.
	Counts obs.EventCounts
	// Parallel holds the depa detector's parallel-machinery statistics
	// (nil for the other detectors).
	Parallel *depa.ParallelStats
	// All holds the per-detector outcomes of an All run, in AllDetectors
	// order. Report and Stats mirror the first entry so callers that only
	// look at the merged Outcome still see a verdict.
	All []DetectorOutcome
}

// DetectorOutcome is one detector's verdict within a merged All run.
type DetectorOutcome struct {
	Detector DetectorName
	Report   *core.Report
	Stats    core.Stats
	Counts   obs.EventCounts
}

// NewDetector constructs a fresh instance of the named detector. The two
// baselines have no analysis: None yields (nil, nil, nil) and EmptyTool
// yields no-op hooks with a nil detector. Every other name yields a
// detector that doubles as the hook chain to attach.
func NewDetector(name DetectorName) (core.Detector, cilk.Hooks, error) {
	switch name {
	case None, "":
		return nil, nil, nil
	case EmptyTool:
		return nil, cilk.Empty{}, nil
	case PeerSet:
		d := peerset.New()
		return d, d, nil
	case SPBags:
		d := spbags.New()
		return d, d, nil
	case SPPlus:
		d := spplus.New()
		return d, d, nil
	case OffsetSpan:
		d := offsetspan.New()
		return d, d, nil
	case EnglishHebrew:
		d := ehlabel.New()
		return d, d, nil
	case Depa:
		d := depa.New()
		return d, d, nil
	default:
		return nil, nil, fmt.Errorf("rader: bad detector %q", name)
	}
}

// NewAllDetectors constructs fresh instances of the paper's three
// detectors in AllDetectors order, for callers that drive a trace replay
// themselves (each detector doubles as its cilk.Hooks chain).
func NewAllDetectors() []core.Detector {
	dets := make([]core.Detector, len(AllDetectors))
	for i, name := range AllDetectors {
		d, _, err := NewDetector(name)
		if err != nil || d == nil {
			panic(fmt.Sprintf("rader: AllDetectors contains non-detector %q", name))
		}
		dets[i] = d
	}
	return dets
}

// Run executes prog once under cfg. A panic out of the program, the
// detector, or the budget/deadline guard is recovered and returned as a
// *streamerr.Error; the process never dies on a misbehaving run.
func Run(prog func(*cilk.Ctx), cfg Config) (out *Outcome, err error) {
	if cfg.Detector == All {
		return RunDetectors(prog, AllDetectors, cfg)
	}
	det, hooks, err := NewDetector(cfg.Detector)
	if err != nil {
		return nil, err
	}
	if dd, ok := det.(*depa.Detector); ok {
		dd.Trace = cfg.Trace
	}
	if cfg.EventBudget > 0 || !cfg.Deadline.IsZero() {
		hooks = newGuard(hooks, cfg.EventBudget, cfg.Deadline)
	}
	if cfg.Wrap != nil {
		hooks = cfg.Wrap(hooks)
	}
	defer func() {
		if p := recover(); p != nil {
			out = nil
			err = streamerr.FromPanic("rader", p)
		}
	}()
	span := cfg.Trace.Start("run:" + string(cfg.Detector))
	start := time.Now()
	res := cilk.Run(prog, cilk.Config{Spec: cfg.Spec, Hooks: hooks})
	dur := time.Since(start)
	out = &Outcome{
		Detector: cfg.Detector,
		Result:   res,
		Duration: dur,
		Replay:   sched.Format(sched.FromSteals(res.Steals, orderOf(cfg.Spec))),
	}
	span.Arg("frames", res.Frames).Arg("spawns", res.Spawns).
		Arg("loads", res.Loads).Arg("stores", res.Stores)
	if det != nil {
		out.Report = det.Report()
		if sp, ok := det.(core.StatsProvider); ok {
			out.Stats = sp.Stats()
		}
		if ec, ok := det.(core.EventCountsProvider); ok {
			out.Counts = ec.EventCounts()
		}
		if pp, ok := det.(depa.ParallelStatsProvider); ok {
			ps := pp.ParallelStats()
			out.Parallel = &ps
		}
		span.Arg("races", out.Report.Distinct())
	}
	span.End()
	return out, nil
}

// RunDetectors executes prog once with every named detector attached to
// the same hook stream via cilk.MultiHooks — the live-run counterpart of
// trace.ReplayAll. The budget/deadline guard and cfg.Wrap enclose the
// whole fan-out, so a guard abort or injected fault is observed (or not)
// by all detectors identically. The merged Outcome carries Detector ==
// All when names is the canonical set, per-detector verdicts in All, and
// the first detector's Report/Stats as its headline verdict.
func RunDetectors(prog func(*cilk.Ctx), names []DetectorName, cfg Config) (out *Outcome, err error) {
	dets := make([]core.Detector, 0, len(names))
	chains := make([]cilk.Hooks, 0, len(names))
	for _, name := range names {
		det, hooks, err := NewDetector(name)
		if err != nil {
			return nil, err
		}
		if det == nil {
			return nil, fmt.Errorf("rader: detector %q has no analysis to fan out", name)
		}
		dets = append(dets, det)
		chains = append(chains, hooks)
	}
	hooks := cilk.MultiHooks(chains...)
	if cfg.EventBudget > 0 || !cfg.Deadline.IsZero() {
		hooks = newGuard(hooks, cfg.EventBudget, cfg.Deadline)
	}
	if cfg.Wrap != nil {
		hooks = cfg.Wrap(hooks)
	}
	defer func() {
		if p := recover(); p != nil {
			out = nil
			err = streamerr.FromPanic("rader", p)
		}
	}()
	span := cfg.Trace.Start("run:all")
	start := time.Now()
	res := cilk.Run(prog, cilk.Config{Spec: cfg.Spec, Hooks: hooks})
	dur := time.Since(start)
	out = &Outcome{
		Detector: All,
		Result:   res,
		Duration: dur,
		Replay:   sched.Format(sched.FromSteals(res.Steals, orderOf(cfg.Spec))),
		All:      make([]DetectorOutcome, len(dets)),
	}
	span.Arg("frames", res.Frames).Arg("spawns", res.Spawns).
		Arg("loads", res.Loads).Arg("stores", res.Stores).End()
	for i, det := range dets {
		// The fan-out shares one execution, so per-detector wall time is
		// not separable; each detector still gets a zero-length span at the
		// collection point carrying its verdict and event accounting.
		dspan := cfg.Trace.Start("detector:" + det.Name())
		do := DetectorOutcome{Detector: names[i], Report: det.Report()}
		if sp, ok := det.(core.StatsProvider); ok {
			do.Stats = sp.Stats()
		}
		if ec, ok := det.(core.EventCountsProvider); ok {
			do.Counts = ec.EventCounts()
			for _, a := range do.Counts.Args() {
				dspan.Arg(a.Key, a.Value)
			}
		}
		dspan.Arg("races", do.Report.Distinct()).End()
		out.All[i] = do
	}
	if len(out.All) > 0 {
		out.Report = out.All[0].Report
		out.Stats = out.All[0].Stats
		out.Counts = out.All[0].Counts
	}
	return out, nil
}

// MustRun is Run for callers that know the run cannot fail (a live
// program under no budget or injection): it panics on error.
func MustRun(prog func(*cilk.Ctx), cfg Config) *Outcome {
	out, err := Run(prog, cfg)
	if err != nil {
		panic(err)
	}
	return out
}

func orderOf(spec cilk.StealSpec) cilk.ReduceOrder {
	if spec == nil {
		return cilk.ReduceAtSync
	}
	return spec.Order()
}

// CoverageFinding records which specification elicited a race.
type CoverageFinding struct {
	Spec string
	Race core.Race
	text string // Race.String(), rendered once at collect
}

// SpecFailure records one sweep unit that failed instead of producing a
// verdict: the specification (or pseudo-stage "profile" / "peer-set") and
// the typed error explaining why.
type SpecFailure struct {
	Spec string
	Err  error
}

// String implements fmt.Stringer.
func (sf SpecFailure) String() string { return fmt.Sprintf("[%s] %v", sf.Spec, sf.Err) }

// CoverageResult summarizes a §7 sweep.
type CoverageResult struct {
	Profile   specgen.Profile
	SpecsRun  int
	ViewReads *core.Report // Peer-Set result (schedule-independent)
	// Races holds one representative finding per distinct determinacy
	// race, with the specification that elicited it.
	Races []CoverageFinding
	// Failures lists sweep units that produced an error instead of a
	// verdict: a poisoned specification, a budget or deadline abort, a
	// panicking program. The remaining specifications' results are still
	// reported — a sweep degrades, it does not die.
	Failures []SpecFailure
	// Stats accounts for how the sweep executed (prefix sharing vs naive,
	// snapshot and copy-on-write counters). It is diagnostic, not part of
	// the canonical verdict: two equivalent sweeps may differ here.
	Stats SweepStats
	total int
}

// Clean reports whether the sweep found no race. A sweep with Failures
// can still be Clean; use Complete to check that every unit ran.
func (cr *CoverageResult) Clean() bool {
	return cr.ViewReads.Empty() && len(cr.Races) == 0
}

// Complete reports whether every sweep unit produced a verdict.
func (cr *CoverageResult) Complete() bool { return len(cr.Failures) == 0 }

// TotalReports counts raw race reports across the sweep.
func (cr *CoverageResult) TotalReports() int { return cr.total }

// SweepOptions configures a hardened §7 sweep.
type SweepOptions struct {
	// Workers is the number of goroutines running per-specification SP+
	// analyses (<1 means 1).
	Workers int
	// EventBudget bounds each run's event stream (0 = unlimited).
	EventBudget int64
	// Timeout bounds the whole sweep. Specifications not finished (or not
	// started) by the deadline are reported in Failures as
	// deadline-exceeded; completed specifications keep their results.
	Timeout time.Duration
	// Wrap, when set, wraps the hook chain of the run for each
	// specification index — the fault-injection seam. Index -1 is the
	// Peer-Set pass. Wrapped sweeps always take the naive path: injection
	// is addressed per specification index, which has no meaning for a
	// shared-prefix unit covering many specifications at once.
	Wrap func(index int, spec cilk.StealSpec, hooks cilk.Hooks) cilk.Hooks
	// Naive forces the per-specification sweep, disabling prefix sharing.
	// The default sweep groups specifications by longest common prefix of
	// steal decisions and analyses each shared prefix once, seeding the
	// divergent suffixes from copy-on-write detector snapshots; both paths
	// produce byte-identical canonical CoverageResults.
	Naive bool
	// SampleSpecs, when positive and below the family size, caps how many
	// specifications the sweep runs: the budget-aware sampler
	// (specgen.SampleFamily) picks that many coverage-guided — stratified
	// by first-steal divergence point, always keeping the all-serial base
	// schedule — and the sweep reports Sampled, CoverageFraction and a
	// Confidence note in its Stats. Sampling is deterministic for a given
	// seed and applies identically to every sweep strategy, so naive and
	// prefix sweeps of a sampled family still produce byte-identical
	// canonical results.
	SampleSpecs int
	// SampleSeed seeds the sampler's shuffle (0 is a valid, fixed seed —
	// never wall-clock randomness, which would break result caching).
	SampleSeed uint64
	// Trace, when set, collects per-phase spans: "profile", "peer-set",
	// one "spec:<name>" per sweep unit (on the worker's lane), and
	// "collect" for the merge. Nil disables collection at zero cost.
	Trace *obs.Trace
	// OnProgress, when set, receives monotone progress snapshots: once
	// when the unit count is known, then after every resolved sweep unit.
	// Callbacks are serialized under the sweep's progress lock and must
	// not block — hand the snapshot to a channel or an obs.Progress and
	// return.
	OnProgress func(SweepProgress)
}

// SweepProgress is one monotone observation of a running sweep. Every
// field only grows. Races counts distinct races per resolved unit before
// cross-unit dedup, so it can exceed the final CoverageResult's count —
// it is a live signal, not the verdict.
type SweepProgress struct {
	UnitsDone     int
	UnitsTotal    int
	EventsSkipped int64
	PagesCopied   int64
	Races         int
}

// progressSink serializes OnProgress deliveries: accumulate under one
// mutex, emit the merged snapshot while still holding it so observers see
// a strictly monotone sequence. A nil sink is inert.
type progressSink struct {
	mu  sync.Mutex
	cur SweepProgress
	fn  func(SweepProgress)
}

func newProgressSink(fn func(SweepProgress)) *progressSink {
	if fn == nil {
		return nil
	}
	return &progressSink{fn: fn}
}

// start publishes the initial 0/total snapshot once the unit count is
// known.
func (p *progressSink) start(total int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.cur.UnitsTotal = total
	p.fn(p.cur)
	p.mu.Unlock()
}

// unitDone folds one resolved unit (or several, for a deadline skip that
// settles a whole subtree) into the running totals and publishes.
func (p *progressSink) unitDone(units, races int, skipped, pages int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.cur.UnitsDone += units
	p.cur.Races += races
	p.cur.EventsSkipped += skipped
	p.cur.PagesCopied += pages
	p.fn(p.cur)
	p.mu.Unlock()
}

// Coverage performs the paper's full §7 check of an ostensibly
// deterministic program: one Peer-Set run for view-read races (the
// detector is schedule-independent) and one SP+ run per specification in
// the Θ(M + K³) family, checking every execution for determinacy races
// that involve a view-oblivious strand. prog must be rerunnable.
func Coverage(prog func(*cilk.Ctx)) *CoverageResult {
	return Sweep(func() func(*cilk.Ctx) { return prog }, SweepOptions{})
}

// Sweep is the hardened §7 coverage sweep: Coverage with the
// per-specification SP+ runs spread across opts.Workers goroutines, plus
// per-run panic isolation, an event budget, and an overall deadline. Each
// failing unit is reported in CoverageResult.Failures with its typed error
// while every other specification still contributes its verdict. Because
// program instances usually carry mutable workload state, the caller
// supplies a factory producing a fresh, independent instance per run;
// instances must allocate identical address layouts (e.g. a fresh
// mem.Allocator each) so findings from different runs describe the same
// locations.
func Sweep(factory func() func(*cilk.Ctx), opts SweepOptions) *CoverageResult {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	// All deadline arithmetic derives from this one monotonic reading, so a
	// wall-clock step mid-sweep cannot expire (or revive) the timeout.
	clock := newSweepClock(opts.Timeout)
	if !opts.Naive && opts.Wrap == nil {
		return sweepPrefix(factory, opts, workers, clock)
	}
	deadline := clock.deadline()
	wrapFor := func(i int, spec cilk.StealSpec) func(cilk.Hooks) cilk.Hooks {
		if opts.Wrap == nil {
			return nil
		}
		return func(h cilk.Hooks) cilk.Hooks { return opts.Wrap(i, spec, h) }
	}

	cr := &CoverageResult{ViewReads: &core.Report{}, Stats: SweepStats{Strategy: "naive", Workers: workers}}

	pspan := opts.Trace.Start("profile")
	var profile specgen.Profile
	var probes []specgen.ProbeRecord
	var err error
	if opts.SampleSpecs > 0 {
		// The coverage-guided sampler stratifies by first-steal probe, so a
		// sampled naive sweep records the probe sequence the prefix sweep
		// would — both strategies then select the identical subset.
		profile, probes, err = measureProbes(factory)
	} else {
		profile, err = measure(factory)
	}
	pspan.End()
	if err != nil {
		// Without a profile there is no specification family to sweep;
		// report the single failure and return an empty (but non-nil)
		// result rather than crashing.
		cr.Failures = append(cr.Failures, SpecFailure{Spec: "profile", Err: err})
		return cr
	}
	cr.Profile = profile

	fam := specgen.NewFamily(cr.Profile)
	sel := specgen.SampleFamily(fam, probes, opts.SampleSpecs, opts.SampleSeed)
	applySampleStats(&cr.Stats, fam.Len(), len(sel))
	specs := make([]cilk.StealSpec, len(sel))
	for i, idx := range sel {
		specs[i] = fam.At(idx)
	}
	sink := newProgressSink(opts.OnProgress)
	sink.start(len(specs))

	// Peer-Set is schedule-independent, so its verdict can ride along any
	// one execution. When nothing injects per-pass faults (opts.Wrap is the
	// seam addressing the standalone pass as index -1) and there is at
	// least one specification to run anyway, fold the Peer-Set analysis
	// into the first specification's SP+ run via RunDetectors — one
	// execution feeding both detectors instead of two executions. The
	// standalone pass remains for wrapped sweeps and spec-less programs.
	piggyback := opts.Wrap == nil && len(specs) > 0
	if !piggyback {
		psSpan := opts.Trace.Start("peer-set")
		ps, err := Run(factory(), Config{
			Detector: PeerSet, EventBudget: opts.EventBudget, Deadline: deadline,
			Wrap: wrapFor(-1, nil),
		})
		psSpan.End()
		if err != nil {
			cr.Failures = append(cr.Failures, SpecFailure{Spec: "peer-set", Err: err})
		} else {
			cr.ViewReads = ps.Report
		}
	}

	results := make([]runVerdict, len(specs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range next {
				name := sched.Format(specs[i])
				span := opts.Trace.StartTID(lane, "spec:"+name)
				if clock.expired() {
					results[i] = runVerdict{err: deadlineSkip()}
					span.Arg("skipped", "deadline").End()
					sink.unitDone(1, 0, 0, 0)
					continue
				}
				if piggyback && i == 0 {
					out, err := RunDetectors(factory(), []DetectorName{PeerSet, SPPlus}, Config{
						Spec:        specs[i],
						EventBudget: opts.EventBudget, Deadline: deadline,
					})
					if err != nil {
						results[i] = runVerdict{err: err}
						span.Arg("error", err.Error()).End()
						sink.unitDone(1, 0, 0, 0)
						continue
					}
					results[i] = runVerdict{
						races:     out.All[1].Report.Races(),
						total:     out.All[1].Report.Total(),
						viewReads: out.All[0].Report,
					}
					span.Arg("races", out.All[1].Report.Distinct()).End()
					sink.unitDone(1, out.All[1].Report.Distinct(), 0, 0)
					continue
				}
				out, err := Run(factory(), Config{
					Detector: SPPlus, Spec: specs[i],
					EventBudget: opts.EventBudget, Deadline: deadline,
					Wrap: wrapFor(sel[i], specs[i]),
				})
				if err != nil {
					results[i] = runVerdict{err: err}
					span.Arg("error", err.Error()).End()
					sink.unitDone(1, 0, 0, 0)
					continue
				}
				results[i] = runVerdict{
					races: out.Report.Races(),
					total: out.Report.Total(),
				}
				span.Arg("races", out.Report.Distinct()).End()
				sink.unitDone(1, out.Report.Distinct(), 0, 0)
			}
		}(w + 1)
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()

	cspan := opts.Trace.Start("collect")
	var psErr error
	if piggyback {
		psErr = results[0].err
	}
	cr.collect(len(results), func(i int) *runVerdict { return &results[i] },
		func(i int) string { return sched.Format(specs[i]) }, psErr)
	cspan.Arg("specs", cr.SpecsRun).Arg("races", len(cr.Races)).
		Arg("failures", len(cr.Failures)).End()
	return cr
}

// measure profiles one program instance, containing any panic the program
// (or the profiler driving it) raises.
func measure(factory func() func(*cilk.Ctx)) (p specgen.Profile, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = streamerr.FromPanic("rader", r)
		}
	}()
	return specgen.Measure(factory()), nil
}
