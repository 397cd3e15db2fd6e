package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/rader"
	"repro/internal/report"
	"repro/internal/specgen"
	"repro/internal/trace"
)

// sweepTarget is one half of a sweep pass: a program, its 1-worker
// reference verdict and how long that reference took.
type sweepTarget struct {
	name    string
	factory func() func(*cilk.Ctx)
	ref     []byte // report.FromCoverage of the 1-worker sweep
	w1      time.Duration
	planMS  float64 // probes + family + trie
	specs   int
	groups  int
}

// sweepTargets are the two programs of the sweep workload, in the order
// the seed picks. Both are fixed programs, so the seed changes only which
// half runs first; the verdicts it checks do not depend on it.
func sweepTargets(seed int64) []*sweepTarget {
	ts := []*sweepTarget{
		{name: "reducerbench", factory: func() func(*cilk.Ctx) { return progs.ReducerBench(mem.NewAllocator(), 40) }},
		{name: "pbfs", factory: func() func(*cilk.Ctx) { return apps.PBFS().Build(mem.NewAllocator(), apps.Small).Prog }},
	}
	if seed%2 != 0 {
		ts[0], ts[1] = ts[1], ts[0]
	}
	return ts
}

// setupSweep computes each target's 1-worker reference verdict (the
// oracle every measured sweep is compared with byte for byte) and times
// the §7 planning steps the sweep performs internally.
func setupSweep(seed int64, exp *expectations) ([]*sweepTarget, error) {
	ts := sweepTargets(seed)
	for _, t := range ts {
		start := time.Now()
		cr := rader.Sweep(t.factory, rader.SweepOptions{Workers: 1})
		t.w1 = time.Since(start)
		if err := exp.checkSweep(t.name, cr); err != nil {
			return nil, fmt.Errorf("1-worker reference: %w", err)
		}
		ref, err := report.FromCoverage(cr).Marshal()
		if err != nil {
			return nil, err
		}
		t.ref = ref

		start = time.Now()
		prof, probes := specgen.MeasureProbes(t.factory())
		fam := specgen.NewFamily(prof)
		trie := specgen.BuildTrieIndexed(fam.Len(), fam.At, probes)
		t.planMS = ms(time.Since(start))
		t.specs, t.groups = fam.Len(), len(trie.Groups)
	}
	return ts, nil
}

// sweepTally is what one measured phase of the sweep workload collected.
type sweepTally struct {
	passMS    []float64
	wall      time.Duration
	specsRun  int
	attempted int
	failed    int
	// Scheduler accounting summed over passes.
	busyNS, critNS, wallNS            int64
	steals, handoffs, hits, misses    int64
	skipped, pagesCopied, pagesPooled int64
	reports, distinct                 int
	log                               func(format string, a ...any)
}

// sweepPass sweeps both targets once at width workers and checks each
// verdict against the reference.
func sweepPass(ts []*sweepTarget, workers int, exp *expectations, t *sweepTally, rec *recorder) {
	pass := rec.begin(0, "sweep pass")
	defer rec.end(pass)
	start := time.Now()
	var passD time.Duration
	for _, tg := range ts {
		t.attempted++
		var tr *obs.Trace
		if rec != nil {
			tr = obs.NewTrace()
		}
		call := rec.begin(pass, "rader.Sweep "+tg.name)
		start := time.Now()
		cr := rader.Sweep(tg.factory, rader.SweepOptions{Workers: workers, Trace: tr})
		d := time.Since(start)
		rec.end(call)
		graftSweepSpans(rec, call, tr)
		passD += d
		if err := checkSweepResult(tg, cr, exp); err != nil {
			t.failed++
			if t.failed <= maxLoggedFailures && t.log != nil {
				t.log("perfbench: sweep failure: %v", err)
			}
			continue
		}
		st := cr.Stats
		var busy, crit int64
		for _, b := range st.WorkerBusy {
			busy += b
			crit = max(crit, b)
		}
		t.specsRun += cr.SpecsRun
		t.busyNS += busy
		t.critNS += crit
		t.wallNS += int64(d) * int64(workers)
		t.steals += st.Steals
		t.handoffs += st.Handoffs
		t.hits += st.SnapshotHits
		t.misses += st.SnapshotMisses
		t.skipped += st.EventsSkipped
		t.pagesCopied += st.PagesCopied
		t.pagesPooled += int64(st.PagesPooled)
		t.reports += cr.TotalReports()
		t.distinct += len(cr.Races)
	}
	t.passMS = append(t.passMS, ms(passD))
	t.wall += time.Since(start)
}

func checkSweepResult(tg *sweepTarget, cr *rader.CoverageResult, exp *expectations) error {
	if err := exp.checkSweep(tg.name, cr); err != nil {
		return err
	}
	doc, err := report.FromCoverage(cr).Marshal()
	if err != nil {
		return err
	}
	if !bytes.Equal(doc, tg.ref) {
		return fmt.Errorf("sweep %s: verdict differs from the 1-worker reference", tg.name)
	}
	return nil
}

// graftSweepSpans copies rader.Sweep's own span tree (profile, peer-set,
// one span per sweep unit on its worker lane, collect) under the call
// span. Unit spans are grouped under one name so self times aggregate.
func graftSweepSpans(rec *recorder, parent int, tr *obs.Trace) {
	if rec == nil || tr == nil {
		return
	}
	for _, s := range tr.Spans() {
		name := s.Name
		if strings.HasPrefix(name, "spec:") {
			name = "spec"
		}
		start := tr.T0().Add(s.Start)
		rec.add(parent, "rader.Sweep/"+name, start, start.Add(s.Dur))
	}
}

// measureSweep runs sweep passes for the run's measurement time; see
// alternate. traced is nil for an untraced run.
func measureSweep(cfg runConfig, ts []*sweepTarget, workers int, exp *expectations, rec *recorder) (plain, traced *sweepTally) {
	plain = &sweepTally{log: cfg.log}
	if rec != nil {
		traced = &sweepTally{log: cfg.log}
	}
	_ = alternate(cfg, func(tr bool) error {
		if tr {
			sweepPass(ts, workers, exp, traced, rec)
		} else {
			sweepPass(ts, workers, exp, plain, nil)
		}
		return nil
	})
	return plain, traced
}

func runSweep(cfg runConfig) (*result, error) {
	exp, err := cfg.expectations()
	if err != nil {
		return nil, err
	}
	ts, setupS, err := timedSetup(cfg, func() ([]*sweepTarget, error) { return setupSweep(cfg.seed, exp) })
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	// One unmeasured pass warms the detector pools and the heap.
	sweepPass(ts, workers, exp, &sweepTally{log: cfg.log}, nil)

	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	t, tt := measureSweep(cfg, ts, workers, exp, rec)
	res := &result{attempted: t.attempted, failed: t.failed, setupS: setupS}
	res.workMS = median(t.passMS)
	// About 6 passes fit in a 10 s run, so this p90 is close to the
	// slowest pass; README.md says why it is still gated.
	res.tailMS = quantile(t.passMS, 0.9)
	res.throughput = float64(t.specsRun) / t.wall.Seconds()
	res.headline = []metric{
		{"sweep_ms", "ms", res.workMS},
		{"sweep_passes", "count", float64(len(t.passMS))},
	}
	if tt == nil {
		return res, nil
	}
	res.attempted += tt.attempted
	res.failed += tt.failed
	sweepLayers(res, ts, tt)
	rc := newReconciliation("sweep pass", float64(len(tt.passMS)), rec,
		ms(t.wall)/float64(len(t.passMS)), ms(tt.wall)/float64(len(tt.passMS)))
	rc.finish(res)
	return res, writeSpans(cfg, "sweep", rec)
}

// sweepLayers derives the sweep workload's per-layer metrics, per pass.
func sweepLayers(res *result, ts []*sweepTarget, t *sweepTally) {
	n := float64(len(t.passMS))
	var w1, planMS float64
	var specs, groups int
	for _, tg := range ts {
		w1 += ms(tg.w1)
		planMS += tg.planMS
		specs += tg.specs
		groups += tg.groups
	}
	nsPerEvent, events := sweepBaseline(ts)
	res.layer("cilk.ns_per_event", nsPerEvent)
	res.layer("cilk.events", float64(events))
	res.layer("specgen.plan_ms", planMS)
	res.layer("specgen.specs", float64(specs))
	res.layer("specgen.groups", float64(groups))
	res.layer("rader.sweep_busy_ms", float64(t.busyNS)/1e6/n)
	res.layer("rader.sweep_critical_path_ms", float64(t.critNS)/1e6/n)
	res.layer("rader.sweep_idle_frac", 1-float64(t.busyNS)/float64(t.wallNS))
	res.layer("rader.sweep_speedup_w1", w1/median(t.passMS))
	res.layer("rader.steals", float64(t.steals)/n)
	res.layer("rader.handoffs", float64(t.handoffs)/n)
	res.layer("rader.snapshot_hit_ratio", float64(t.hits)/float64(t.hits+t.misses))
	res.layer("rader.events_skipped", float64(t.skipped)/n)
	res.layer("mem.pages_copied", float64(t.pagesCopied)/n)
	res.layer("mem.pages_pooled", float64(t.pagesPooled)/n)
	res.layer("core.reports", float64(t.reports)/n)
	res.layer("core.distinct_ratio", float64(t.distinct)/float64(t.reports))
}

// sweepBaseline times uninstrumented runs of each sweep program (median of
// nine) and counts its serial event stream, for cilk.ns_per_event here.
func sweepBaseline(ts []*sweepTarget) (nsPerEvent float64, events int64) {
	var total float64
	for _, tg := range ts {
		w := trace.NewWriter(io.Discard)
		cilk.Run(tg.factory(), cilk.Config{Hooks: w})
		_ = w.Close() // io.Discard cannot fail
		events += w.Events()
		var times []float64
		for i := 0; i < 9; i++ {
			out := rader.MustRun(tg.factory(), rader.Config{Detector: rader.None})
			times = append(times, float64(out.Duration))
		}
		total += median(times)
	}
	return total / float64(events), events
}
