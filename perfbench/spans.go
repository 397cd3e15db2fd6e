package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer, or one span of
// a layer's own tree (raderd's request spans, rader.Sweep's unit spans)
// grafted under the call that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the recorder started
	End    int64  `json:"endNs"`
}

// recorder keeps the traced run's spans in memory; writeSpans dumps them
// when the run ends. A nil recorder records nothing, so the untraced run
// shares the traced run's code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent and returns its ID (0 on a nil
// recorder).
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(r.spans)
}

// end closes the span begun with id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a finished span with explicit bounds.
func (r *recorder) add(parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	return len(r.spans)
}

// call times f as one span.
func (r *recorder) call(parent int, name string, f func()) {
	id := r.begin(parent, name)
	f()
	r.end(id)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children (children on parallel lanes may
// overlap each other; their union is what is subtracted).
func (r *recorder) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		if s.End < s.Start {
			continue
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// rootTime sums the durations of the root spans: the time the traced run
// spent inside some layer call.
func (r *recorder) rootTime() time.Duration {
	var d int64
	for _, s := range r.spans {
		if s.Parent == 0 && s.End >= s.Start {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curB = -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// reconciliation is the traced run's account of where one unit of work
// went: each layer's self time, what the untraced run spent outside every
// span, and what tracing itself cost. Spans on parallel lanes (raderd
// requests of different clients, sweep units of different workers)
// overlap, so self times are lane time and may sum past wall time.
type reconciliation struct {
	unit     string                   // "live pass", "verdict", "sweep pass"
	units    float64                  // units of work in the traced run
	self     map[string]time.Duration // per span name, whole traced run
	inSpans  float64                  // ms per unit inside root spans, traced
	untraced float64                  // ms per unit, tracing off
	traced   float64                  // ms per unit, tracing on
}

func newReconciliation(unit string, units float64, rec *recorder, untraced, traced float64) *reconciliation {
	return &reconciliation{unit: unit, units: units, self: rec.selfTimes(),
		inSpans: ms(rec.rootTime()) / units, untraced: untraced, traced: traced}
}

func (rc *reconciliation) print(w io.Writer) {
	fmt.Fprintf(w, "layer self time per %s (traced run, %.0f units):\n", rc.unit, rc.units)
	names := make([]string, 0, len(rc.self))
	for name := range rc.self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return rc.self[names[i]] > rc.self[names[j]] })
	for _, name := range names {
		fmt.Fprintf(w, "  %-40s %12.4f ms\n", name, ms(rc.self[name])/rc.units)
	}
	fmt.Fprintf(w, "  %-40s %12.4f ms\n", "inside root spans (traced)", rc.inSpans)
	fmt.Fprintf(w, "  %-40s %12.4f ms\n", "untraced end-to-end", rc.untraced)
	fmt.Fprintf(w, "  %-40s %12.4f ms\n", "unattributed (untraced - inside spans)", rc.untraced-rc.inSpans)
	fmt.Fprintf(w, "  %-40s %12.4f ms (%+.2f%%)\n", "tracing overhead (traced - untraced)",
		rc.traced-rc.untraced, 100*(rc.traced-rc.untraced)/rc.untraced)
}

// finish records the reconciliation on res with its two layer metrics.
func (rc *reconciliation) finish(res *result) {
	res.layer("bench.tracing_overhead_frac", (rc.traced-rc.untraced)/rc.untraced)
	res.layer("bench.unattributed_frac", (rc.untraced-rc.inSpans)/rc.untraced)
	res.recon = rc
}

// layerMetrics is the per-layer set, in BENCHMARK.json order. Each is
// measured from outside the program: by timing calls into the layer's
// public functions, from counters the layer already exposes, or from
// raderd's /metrics.
var layerMetrics = []metric{
	{"cilk.ns_per_event", "ns", 0},
	{"cilk.hooks_ns_per_event", "ns", 0},
	{"cilk.fanout_ns_per_event", "ns", 0},
	{"cilk.events", "count", 0},
	{"trace.encode_ns_per_event", "ns", 0},
	{"trace.bytes_per_event", "B", 0},
	{"trace.decode_ns_per_event", "ns", 0},
	{"trace.decode_allocs_per_event", "count", 0},
	{"peerset.ns_per_event", "ns", 0},
	{"peerset.replay_ns_per_event", "ns", 0},
	{"peerset.fig7_overhead", "x", 0},
	{"peerset.fig8_overhead", "x", 0},
	{"spplus.ns_per_event", "ns", 0},
	{"spplus.replay_ns_per_event", "ns", 0},
	{"spplus.fig7_overhead", "x", 0},
	{"spplus.fig8_overhead", "x", 0},
	{"spplus.pbfs_fig7_overhead", "x", 0},
	{"spplus.bag_ops_per_event", "count", 0},
	{"spplus.shadow_lookups_per_event", "count", 0},
	{"spbags.replay_ns_per_event", "ns", 0},
	{"depa.replay_ns_per_event", "ns", 0},
	{"depa.fast_path_rate", "ratio", 0},
	{"core.reports", "count", 0},
	{"core.distinct_ratio", "ratio", 0},
	{"core.retained_ratio", "ratio", 0},
	{"report.encode_us_per_doc", "us", 0},
	{"report.bytes_per_doc", "B", 0},
	{"elide.analyze_ns_per_event", "ns", 0},
	{"elide.shrink", "x", 0},
	{"elide.replay_ns_per_event", "ns", 0},
	{"specgen.plan_ms", "ms", 0},
	{"specgen.specs", "count", 0},
	{"specgen.groups", "count", 0},
	{"rader.sweep_busy_ms", "ms", 0},
	{"rader.sweep_critical_path_ms", "ms", 0},
	{"rader.sweep_idle_frac", "ratio", 0},
	{"rader.sweep_speedup_w1", "x", 0},
	{"rader.steals", "count", 0},
	{"rader.handoffs", "count", 0},
	{"rader.snapshot_hit_ratio", "ratio", 0},
	{"rader.events_skipped", "count", 0},
	{"mem.pages_copied", "count", 0},
	{"mem.pages_pooled", "count", 0},
	{"service.queue_ms_mean", "ms", 0},
	{"service.run_ms_mean", "ms", 0},
	{"service.encode_ms_mean", "ms", 0},
	{"service.residual_ms_mean", "ms", 0},
	{"service.cache_hit_ratio", "ratio", 0},
	{"service.shed", "count", 0},
	{"store.verdict_writes", "count", 0},
	{"store.trace_writes", "count", 0},
	{"store.ingest_bytes", "B", 0},
	{"store.put_verdict_us", "us", 0},
	{"bench.tracing_overhead_frac", "ratio", 0},
	{"bench.unattributed_frac", "ratio", 0},
	{"bench.error_frac", "ratio", 0},
}

func unitOf(name string) string {
	for _, m := range layerMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
