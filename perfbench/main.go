// Command perfbench is the repository's seeded end-to-end benchmark. One
// process runs one of three workloads against the repository's public
// packages and checks every verdict it receives:
//
//	live   the paper's Figure 7/8 path: six apps at small scale under the
//	       baseline, the empty tool, Peer-Set, three SP+ configurations and
//	       trace recording;
//	serve  an in-process raderd driven by a closed loop of GOMAXPROCS
//	       clients running a seeded upload/elide/ingest/repeat script;
//	sweep  §7 coverage sweeps of ReducerBench(40) and pbfs through
//	       rader.Sweep at GOMAXPROCS workers.
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// alternates untraced and traced units of work and prints the per-layer
// metrics, the layer self times from its spans, and the tracing overhead.
// The last line of standard output is always one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload live --seed 1 --seconds 10 --trace 0
//
// README.md in this directory defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Set-up repetition limits; see timedSetup.
const (
	minSetups     = 3
	minSetupTotal = time.Second
	maxSetups     = 100
)

// maxLoggedFailures bounds the failed operations each run describes on
// standard error; all of them are counted.
const maxLoggedFailures = 5

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	measure time.Duration // measurement time (see alternate)
	traced  bool
	workDir string // scratch space inside the checkout
	log     func(format string, a ...any)
	// expect overrides the embedded expect.json (the checker self-test
	// feeds a wrong one).
	expect *expectations
}

// expectations returns the verdict oracle of this run.
func (c runConfig) expectations() (*expectations, error) {
	if c.expect != nil {
		return c.expect, nil
	}
	return loadExpectations()
}

// metric is one named measurement.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// result is one workload run's outcome.
type result struct {
	attempted int
	failed    int
	setupS    float64
	// The BENCHMARK.json end-to-end set, measured with tracing off.
	workMS, tailMS, throughput float64
	// headline holds the workload's own end-to-end names (live_ms,
	// verdict_ms_p99, ...), printed for humans beside the generic set.
	headline []metric
	// layers holds the per-layer metrics this workload exercises, keyed by
	// name; the traced run fills them.
	layers map[string]float64
	// recon is the traced run's self-time reconciliation.
	recon *reconciliation
}

func (r *result) layer(name string, v float64) {
	if r.layers == nil {
		r.layers = make(map[string]float64)
	}
	r.layers[name] = v
}

var workloads = map[string]func(runConfig) (*result, error){
	"live":  runLive,
	"serve": runServe,
	"sweep": runSweep,
}

func main() {
	workload := flag.String("workload", "", "workload to run: live, serve or sweep")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds (doubled with --trace 1)")
	traced := flag.Int("trace", 0, "1 alternates traced units of work with untraced ones and prints per-layer metrics")
	workDir := flag.String("workdir", ".bench_build/perfbench", "scratch directory (store, span dumps)")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload live|serve|sweep --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		traced:  *traced == 1,
		workDir: *workDir,
		log:     func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, *workload, cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// endToEnd is the BENCHMARK.json end-to-end set, in order.
func endToEnd(res *result) []metric {
	return []metric{
		{"setup_s", "s", res.setupS},
		{"peak_rss_mb", "MB", peakRSSMB()},
		{"work_ms", "ms", res.workMS},
		{"tail_ms", "ms", res.tailMS},
		{"throughput_per_s", "1/s", res.throughput},
	}
}

// emit prints the human-readable report, then the one-line JSON result.
func emit(w io.Writer, workload string, cfg runConfig, res *result) error {
	errFrac := 0.0
	if res.attempted > 0 {
		errFrac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "workload %s seed %d: %d operations attempted, %d failed\n",
		workload, cfg.seed, res.attempted, res.failed)
	e2e := endToEnd(res)
	for _, m := range e2e {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range append(res.headline, metric{"error_frac", "ratio", errFrac}) {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	metrics := make(map[string]any)
	if cfg.traced {
		res.layer("bench.error_frac", errFrac)
		fmt.Fprintln(w, "per-layer metrics (traced run):")
		var missing []string
		for _, lm := range layerMetrics {
			v, ok := res.layers[lm.Name]
			if !ok {
				missing = append(missing, lm.Name)
				continue
			}
			fmt.Fprintf(w, "  %-34s %16.4f %s\n", lm.Name, v, lm.Unit)
			metrics[lm.Name] = jsonMetric{finite(v), lm.Unit}
		}
		if len(missing) > 0 {
			fmt.Fprintf(w, "  not exercised by %s, reported as 0: %v\n", workload, missing)
			for _, name := range missing {
				metrics[name] = jsonMetric{0, unitOf(name)}
			}
		}
		if res.recon != nil {
			res.recon.print(w)
		}
	} else {
		for _, m := range e2e {
			metrics[m.Name] = jsonMetric{finite(m.Value), m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finite maps an undefined ratio (no samples) to 0, which JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// peakRSSMB is the process's peak resident set size in MiB (each workload
// runs in its own process, so this is the workload's peak).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the CPU time (user + system) the process has used so far, on
// all of its threads, so it includes the garbage collector's background
// work. The difference across a call is what the call cost in CPU; unlike
// its wall time, it leaves out time the host gave to other tenants.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedSetup runs setup at least minSetups times, and until the set-ups
// have taken minSetupTotal together, and returns the last set-up's value
// with the median wall time in seconds. Repeating set-up is what makes
// setup_s steady enough to gate on, even where one set-up takes
// milliseconds.
func timedSetup[T any](cfg runConfig, setup func() (T, error)) (T, float64, error) {
	var out T
	var times []float64
	var total time.Duration
	for len(times) < minSetups || (total < minSetupTotal && len(times) < maxSetups) {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return out, 0, err
		}
		d := time.Since(start)
		total += d
		times = append(times, d.Seconds())
		out = v
		runtime.GC()
	}
	return out, median(times), nil
}

// alternate calls step(false) until cfg.measure has passed, at least
// once. For a traced run it goes on for twice as long and alternates
// step(false) with step(true), so that drift in the host's speed hits the
// untraced and traced tallies alike and their difference is the tracing
// overhead.
func alternate(cfg runConfig, step func(traced bool) error) error {
	d := cfg.measure
	if cfg.traced {
		d *= 2
	}
	for start := time.Now(); ; {
		if err := step(false); err != nil {
			return err
		}
		if cfg.traced {
			if err := step(true); err != nil {
				return err
			}
		}
		if time.Since(start) >= d {
			return nil
		}
	}
}

// median returns the middle value (mean of the two middle values for an
// even count) without reordering xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeSpans dumps the traced run's spans for offline inspection.
func writeSpans(cfg runConfig, workload string, rec *recorder) error {
	if rec == nil {
		return nil
	}
	path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.json", workload, cfg.seed))
	data, err := json.Marshal(rec.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
