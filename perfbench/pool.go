package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/depa"
	"repro/internal/elide"
	"repro/internal/rader"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/trace"
)

// poolReps is how many timed passes over the serve pool each layer
// measurement averages, after one warm-up pass.
const poolReps = 3

// poolLayers times the layers under raderd's analyze path directly on the
// serve pool: decode alone, each detector's replay, the all-detector
// fan-out, elision, report encoding and store writes.
func poolLayers(cfg runConfig, res *result, in *serveInputs) error {
	var events int64
	for _, pt := range in.pool {
		events += pt.events
	}
	perEvent := func(d time.Duration) float64 { return float64(d) / float64(events) }
	rp := trace.NewReplayer()
	timed := func(f func(pt *poolTrace) error) (time.Duration, error) {
		var d time.Duration
		for rep := 0; rep <= poolReps; rep++ {
			start := time.Now()
			for _, pt := range in.pool {
				if err := f(pt); err != nil {
					return 0, err
				}
			}
			if rep > 0 {
				d += time.Since(start)
			}
		}
		return d / poolReps, nil
	}

	decode, err := timed(func(pt *poolTrace) error { _, err := rp.Replay(pt.data); return err })
	if err != nil {
		return err
	}
	res.layer("trace.decode_ns_per_event", perEvent(decode))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, pt := range in.pool {
		if _, err := rp.Replay(pt.data); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	res.layer("trace.decode_allocs_per_event", float64(m1.Mallocs-m0.Mallocs)/float64(events))

	single := make(map[rader.DetectorName]time.Duration)
	var fast, accesses int64
	for _, name := range []rader.DetectorName{rader.PeerSet, rader.SPBags, rader.SPPlus, rader.Depa} {
		d, err := timed(func(pt *poolTrace) error {
			det, hooks, err := rader.NewDetector(name)
			if err != nil {
				return err
			}
			if _, err := rp.Replay(pt.data, hooks); err != nil {
				return err
			}
			if ps, ok := det.(depa.ParallelStatsProvider); ok && name == rader.Depa {
				st := ps.ParallelStats()
				fast += st.FastPathHits
				accesses += st.Accesses
			}
			return nil
		})
		if err != nil {
			return err
		}
		single[name] = d
	}
	res.layer("peerset.replay_ns_per_event", perEvent(single[rader.PeerSet]))
	res.layer("spbags.replay_ns_per_event", perEvent(single[rader.SPBags]))
	res.layer("spplus.replay_ns_per_event", perEvent(single[rader.SPPlus]))
	res.layer("depa.replay_ns_per_event", perEvent(single[rader.Depa]))
	res.layer("depa.fast_path_rate", float64(fast)/float64(accesses))

	var reports, distinct, kept int
	all, err := timed(func(pt *poolTrace) error {
		dets := rader.NewAllDetectors()
		if _, err := rp.Replay(pt.data, hooksOf(dets)...); err != nil {
			return err
		}
		for _, d := range dets {
			rep := d.Report()
			reports += rep.Total()
			distinct += rep.Distinct()
			kept += len(rep.Races())
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Fan-out is what the all-detector pass costs beyond one decode and
	// each detector's own work.
	fanout := all - decode
	for _, name := range rader.AllDetectors {
		fanout -= single[name] - decode
	}
	res.layer("cilk.fanout_ns_per_event", perEvent(fanout))
	res.layer("core.reports", float64(reports)/(poolReps+1))
	res.layer("core.distinct_ratio", float64(distinct)/float64(reports))
	res.layer("core.retained_ratio", float64(kept)/float64(distinct))

	if err := encodeLayers(res, in, rp); err != nil {
		return err
	}
	if err := elideLayers(res, in, rp, perEvent, timed); err != nil {
		return err
	}
	return storeLayers(cfg, res, in)
}

func hooksOf(dets []core.Detector) []cilk.Hooks {
	hooks := make([]cilk.Hooks, len(dets))
	for i, d := range dets {
		hooks[i] = d
	}
	return hooks
}

// encodeLayers times building and marshaling the verdict documents raderd
// returns (all and depa) for every pool trace.
func encodeLayers(res *result, in *serveInputs, rp *trace.Replayer) error {
	var d time.Duration
	var docs, size int
	for _, pt := range in.pool {
		dets := rader.NewAllDetectors()
		events, err := rp.Replay(pt.data, hooksOf(dets)...)
		if err != nil {
			return err
		}
		dd, hooks, err := rader.NewDetector(rader.Depa)
		if err != nil {
			return err
		}
		if _, err := rp.Replay(pt.data, hooks); err != nil {
			return err
		}
		for rep := 0; rep < poolReps; rep++ {
			start := time.Now()
			a, err := report.FromDetectors("", events, dets).Marshal()
			if err != nil {
				return err
			}
			b, err := report.FromDetector(string(rader.Depa), "", events, dd).Marshal()
			if err != nil {
				return err
			}
			d += time.Since(start)
			docs += 2
			size += len(a) + len(b)
		}
	}
	res.layer("report.encode_us_per_doc", float64(d)/1e3/float64(docs))
	res.layer("report.bytes_per_doc", float64(size)/float64(docs))
	return nil
}

// elideLayers times the elision pre-pass and the skip-set replay it buys.
func elideLayers(res *result, in *serveInputs, rp *trace.Replayer, perEvent func(time.Duration) float64,
	timed func(func(*poolTrace) error) (time.Duration, error)) error {
	plans := make(map[*poolTrace]*elide.Plan)
	analyze, err := timed(func(pt *poolTrace) error {
		p, err := elide.Analyze(pt.data)
		plans[pt] = p
		return err
	})
	if err != nil {
		return err
	}
	var orig, kept int64
	for _, p := range plans {
		a := p.Audit()
		orig += a.OriginalEvents
		kept += a.FilteredEvents
	}
	replay, err := timed(func(pt *poolTrace) error {
		_, err := rp.ReplaySkip(pt.data, plans[pt].SkipSet(), hooksOf(rader.NewAllDetectors())...)
		return err
	})
	if err != nil {
		return err
	}
	res.layer("elide.analyze_ns_per_event", perEvent(analyze))
	res.layer("elide.shrink", float64(orig)/float64(kept))
	res.layer("elide.replay_ns_per_event", perEvent(replay))
	return nil
}

// storeLayers times durable verdict writes of the serve pool's reference
// documents into a fresh store beside the one raderd uses.
func storeLayers(cfg runConfig, res *result, in *serveInputs) error {
	dir := filepath.Join(cfg.workDir, "store-layer")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	var d time.Duration
	var n int
	for _, pt := range in.pool {
		for _, det := range serveDetectors {
			var head struct {
				Clean bool `json:"clean"`
			}
			if err := json.Unmarshal(pt.refs[det], &head); err != nil {
				return err
			}
			v := &store.Verdict{Key: pt.digest + "|" + det + "|", Digest: pt.digest, Detector: det,
				Clean: head.Clean, Report: pt.refs[det]}
			start := time.Now()
			if err := st.PutVerdict(v); err != nil {
				return err
			}
			d += time.Since(start)
			n++
		}
	}
	res.layer("store.put_verdict_us", float64(d)/1e3/float64(n))
	return nil
}
