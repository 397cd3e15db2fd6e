package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/rader"
	"repro/internal/sched"
	"repro/internal/specgen"
	"repro/internal/trace"
)

// The live workload's columns: the two baselines, the paper's four
// detector configurations (Figures 7/8) and trace recording.
const (
	colBaseline = iota
	colEmpty
	colPeerSet
	colNoSteals
	colUpdates
	colReductions
	colRecord
	numLiveCols
)

var liveColNames = [numLiveCols]string{
	"baseline", "empty", "peer-set", "sp+ no-steals", "sp+ check-updates", "sp+ check-reductions", "record",
}

var liveColDetector = [numLiveCols]rader.DetectorName{
	rader.None, rader.EmptyTool, rader.PeerSet, rader.SPPlus, rader.SPPlus, rader.SPPlus, "",
}

// toolCol reports whether a column is one of the 5 tool cells per app
// summed into live_ms (the baselines only normalize).
func toolCol(col int) bool { return col >= colPeerSet }

// liveApp is one app's inputs: the schedules of its columns and the size
// of its serial event stream.
type liveApp struct {
	app    apps.App
	specs  [numLiveCols]cilk.StealSpec
	events int64 // events of one serial execution
	bytes  int64 // encoded bytes of that execution's trace
}

// liveInputs are the live workload's generated inputs. The seed reaches
// the program only through the check-reductions schedule (sched.Random):
// the apps' own inputs are fixed by their scale.
type liveInputs struct {
	apps []liveApp
}

// setupLive profiles every app once to derive its schedules (K, the
// maximum sync-block size, as the paper's harness does) and records its
// serial trace to size the event stream.
func setupLive(seed int64) (*liveInputs, error) {
	in := &liveInputs{}
	for _, app := range apps.All() {
		prof := specgen.Measure(app.Build(mem.NewAllocator(), apps.Small).Prog)
		k := prof.MaxSyncBlock
		la := liveApp{app: app}
		la.specs[colUpdates] = sched.ByDepth{D: max(1, k/2)}
		la.specs[colReductions] = sched.Random{Seed: seed, K: k}
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		cilk.Run(app.Build(mem.NewAllocator(), apps.Small).Prog, cilk.Config{Hooks: w})
		if err := w.Close(); err != nil {
			return nil, fmt.Errorf("recording %s: %w", app.Name, err)
		}
		la.events, la.bytes = w.Events(), int64(buf.Len())
		in.apps = append(in.apps, la)
	}
	return in, nil
}

// liveTally is what one measured phase of the live workload collected.
// Cell and pass times are process CPU time (see cpuTime): every live
// configuration runs serially, so its CPU time is its cost, and on a
// shared host it is far steadier than wall time.
type liveTally struct {
	cells     [][numLiveCols][]float64 // CPU ms per run, per (app, column)
	passMS    []float64                // tool-cell CPU time of each pass
	cpu       time.Duration            // Σ pass CPU time
	wall      time.Duration            // Σ pass wall time
	attempted int
	failed    int
	// From the first pass (deterministic for a seed): SP+ event-class
	// accounting and the race reports of every detector cell.
	spEvents, spBagOps, spLookups uint64
	reports, distinct, kept       int
	firstPass                     bool
	log                           func(format string, a ...any)
}

func (t *liveTally) fail(err error) {
	t.failed++
	if t.failed <= maxLoggedFailures && t.log != nil {
		t.log("perfbench: live failure: %v", err)
	}
}

// livePass runs every app under every column once, each on a freshly
// built instance, checking each run.
func livePass(in *liveInputs, exp *expectations, t *liveTally, rec *recorder) {
	pass := rec.begin(0, "live pass")
	defer rec.end(pass)
	start, cpuStart := time.Now(), cpuTime()
	var passTool float64
	for ai, la := range in.apps {
		for col := 0; col < numLiveCols; col++ {
			t.attempted++
			var ins *apps.Instance
			rec.call(pass, "apps.Build", func() { ins = la.app.Build(mem.NewAllocator(), apps.Small) })
			var d time.Duration
			var err error
			if col == colRecord {
				d, err = liveRecord(ins, la, rec, pass)
			} else {
				d, err = liveRun(ins, la, col, exp, t, rec, pass)
			}
			if err == nil {
				rec.call(pass, "apps.Instance.Verify", func() { err = ins.Verify() })
			}
			if err != nil {
				t.fail(err)
				continue
			}
			t.cells[ai][col] = append(t.cells[ai][col], ms(d))
			if toolCol(col) {
				passTool += ms(d)
			}
		}
	}
	t.passMS = append(t.passMS, passTool)
	t.cpu += cpuTime() - cpuStart
	t.wall += time.Since(start)
	t.firstPass = false
}

// liveRun runs one detector column through rader.Run and checks its
// verdict against the expectation file. The cell is timed from outside,
// in CPU time: from before rader.Run to after the verdict (distinct,
// total and kept races) has been read, so work a detector defers into its
// report is counted. The baseline and empty-tool cells use the same
// window.
func liveRun(ins *apps.Instance, la liveApp, col int, exp *expectations, t *liveTally, rec *recorder, parent int) (time.Duration, error) {
	var out *rader.Outcome
	var err error
	var d time.Duration
	var distinct, total, kept int
	rec.call(parent, "rader.Run "+liveColNames[col], func() {
		start := cpuTime()
		out, err = rader.Run(ins.Prog, rader.Config{Detector: liveColDetector[col], Spec: la.specs[col]})
		if err == nil && out.Report != nil {
			distinct, total, kept = out.Report.Distinct(), out.Report.Total(), len(out.Report.Races())
		}
		d = cpuTime() - start
	})
	if err != nil {
		return 0, err
	}
	if out.Report != nil {
		if err := exp.checkLive(la.app.Name, liveColNames[col], distinct); err != nil {
			return 0, err
		}
		if t.firstPass {
			t.reports += total
			t.distinct += distinct
			t.kept += kept
			if liveColDetector[col] == rader.SPPlus {
				c := out.Counts
				t.spEvents += c.FrameEnters + c.FrameReturns + c.Syncs + c.Steals + c.Reduces +
					c.ViewAwares + c.ReducerCreates + c.ReducerReads + c.Loads + c.Stores
				t.spBagOps += c.BagOps
				t.spLookups += c.ShadowLookups
			}
		}
	}
	return d, nil
}

// liveRecord runs the serial schedule under a trace.Writer, timed in CPU
// time, and checks that the recording matches the set-up recording byte
// count and event count.
func liveRecord(ins *apps.Instance, la liveApp, rec *recorder, parent int) (time.Duration, error) {
	var buf bytes.Buffer
	buf.Grow(int(la.bytes))
	var err error
	var d time.Duration
	rec.call(parent, "cilk.Run+trace.Writer", func() {
		start := cpuTime()
		w := trace.NewWriter(&buf)
		cilk.Run(ins.Prog, cilk.Config{Hooks: w})
		err = w.Close()
		d = cpuTime() - start
		if err == nil && (w.Events() != la.events || int64(buf.Len()) != la.bytes) {
			err = fmt.Errorf("record %s: %d events / %d bytes, set-up recorded %d / %d",
				la.app.Name, w.Events(), buf.Len(), la.events, la.bytes)
		}
	})
	return d, err
}

func newLiveTally(in *liveInputs, log func(string, ...any)) *liveTally {
	return &liveTally{cells: make([][numLiveCols][]float64, len(in.apps)), firstPass: true, log: log}
}

// measureLive runs live passes for the run's measurement time; see
// alternate. traced is nil for an untraced run.
func measureLive(cfg runConfig, in *liveInputs, exp *expectations, rec *recorder) (plain, traced *liveTally) {
	plain = newLiveTally(in, cfg.log)
	if rec != nil {
		traced = newLiveTally(in, cfg.log)
	}
	_ = alternate(cfg, func(tr bool) error {
		if tr {
			livePass(in, exp, traced, rec)
		} else {
			livePass(in, exp, plain, nil)
		}
		return nil
	})
	return plain, traced
}

// cellMedian is the median of one cell's samples.
func (t *liveTally) cellMedian(ai, col int) float64 { return median(t.cells[ai][col]) }

func runLive(cfg runConfig) (*result, error) {
	exp, err := cfg.expectations()
	if err != nil {
		return nil, err
	}
	in, setupS, err := timedSetup(cfg, func() (*liveInputs, error) { return setupLive(cfg.seed) })
	if err != nil {
		return nil, err
	}
	// One unmeasured pass lets lazy initialization and the heap settle.
	livePass(in, exp, newLiveTally(in, cfg.log), nil)

	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	t, tt := measureLive(cfg, in, exp, rec)
	res := &result{attempted: t.attempted, failed: t.failed, setupS: setupS}
	var sumMed float64
	var toolRuns int
	for ai := range in.apps {
		for col := 0; col < numLiveCols; col++ {
			if toolCol(col) {
				sumMed += t.cellMedian(ai, col)
				toolRuns += len(t.cells[ai][col])
			}
		}
	}
	var events, tbytes int64
	for _, la := range in.apps {
		events += la.events
		tbytes += la.bytes
	}
	res.workMS, res.tailMS = sumMed, quantile(t.passMS, 0.9)
	res.throughput = float64(toolRuns) / t.cpu.Seconds()
	res.headline = []metric{
		{"live_ms", "ms", sumMed},
		{"trace_bytes_per_event", "B", float64(tbytes) / float64(events)},
		{"live_passes", "count", float64(len(t.passMS))},
	}
	if tt == nil {
		return res, nil
	}
	res.attempted += tt.attempted
	res.failed += tt.failed
	liveLayers(res, in, tt)
	rc := newReconciliation("live pass", float64(len(tt.passMS)), rec,
		ms(t.wall)/float64(len(t.passMS)), ms(tt.wall)/float64(len(tt.passMS)))
	rc.finish(res)
	return res, writeSpans(cfg, "live", rec)
}

// liveLayers derives the live workload's per-layer metrics from the traced
// run's cell medians: differences between columns isolate a layer (empty −
// baseline is hook dispatch, record − empty is trace encode, detector −
// empty is the detector), normalized by the serial event count.
func liveLayers(res *result, in *liveInputs, t *liveTally) {
	var events int64
	var tbytes int64
	var base, empty, ps, sp, recd float64
	var logPS7, logPS8, logSP7, logSP8 float64
	var nPS, nSP int
	for ai, la := range in.apps {
		events += la.events
		tbytes += la.bytes
		b, e := t.cellMedian(ai, colBaseline), t.cellMedian(ai, colEmpty)
		p := t.cellMedian(ai, colPeerSet)
		base += b
		empty += e
		ps += p
		recd += t.cellMedian(ai, colRecord)
		for _, col := range []int{colNoSteals, colUpdates, colReductions} {
			s := t.cellMedian(ai, col)
			sp += s
			// The paper's headline means exclude ferret, whose library code
			// is deliberately uninstrumented (tables.Headline).
			if la.app.Name != "ferret" {
				logSP7 += math.Log(s / b)
				logSP8 += math.Log(s / e)
				nSP++
			}
		}
		if la.app.Name != "ferret" {
			logPS7 += math.Log(p / b)
			logPS8 += math.Log(p / e)
			nPS++
		}
		if la.app.Name == "pbfs" {
			res.layer("spplus.pbfs_fig7_overhead", t.cellMedian(ai, colReductions)/b)
		}
	}
	nsPerEvent := func(msTotal float64) float64 { return msTotal * 1e6 / float64(events) }
	res.layer("cilk.ns_per_event", nsPerEvent(base))
	res.layer("cilk.hooks_ns_per_event", nsPerEvent(empty-base))
	res.layer("cilk.events", float64(events))
	res.layer("trace.encode_ns_per_event", nsPerEvent(recd-empty))
	res.layer("trace.bytes_per_event", float64(tbytes)/float64(events))
	res.layer("peerset.ns_per_event", nsPerEvent(ps-empty))
	res.layer("peerset.fig7_overhead", math.Exp(logPS7/float64(nPS)))
	res.layer("peerset.fig8_overhead", math.Exp(logPS8/float64(nPS)))
	res.layer("spplus.ns_per_event", nsPerEvent(sp/3-empty))
	res.layer("spplus.fig7_overhead", math.Exp(logSP7/float64(nSP)))
	res.layer("spplus.fig8_overhead", math.Exp(logSP8/float64(nSP)))
	res.layer("spplus.bag_ops_per_event", float64(t.spBagOps)/float64(t.spEvents))
	res.layer("spplus.shadow_lookups_per_event", float64(t.spLookups)/float64(t.spEvents))
	res.layer("core.reports", float64(t.reports))
	res.layer("core.distinct_ratio", float64(t.distinct)/float64(t.reports))
	res.layer("core.retained_ratio", float64(t.kept)/float64(t.distinct))
}
