package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/trace"
)

func testConfig(t *testing.T, traced bool) runConfig {
	return runConfig{
		seed:    1,
		measure: 100 * time.Millisecond,
		traced:  traced,
		workDir: t.TempDir(),
		log:     t.Logf,
	}
}

// TestErrorFracZero runs every workload, traced, and requires that no
// operation failed (a wrong verdict, or a serve request whose cache state
// differs from the script's, counts as failed) and that the traced run
// emitted the layer metrics of the layers the workload exercises.
func TestErrorFracZero(t *testing.T) {
	own := map[string][]string{
		"live":  {"cilk.ns_per_event", "trace.encode_ns_per_event", "spplus.fig7_overhead", "core.reports"},
		"serve": {"trace.decode_ns_per_event", "cilk.fanout_ns_per_event", "service.cache_hit_ratio", "store.put_verdict_us"},
		"sweep": {"specgen.specs", "rader.sweep_busy_ms", "mem.pages_copied", "cilk.ns_per_event"},
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := run(testConfig(t, true))
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Fatalf("%d of %d operations failed", res.failed, res.attempted)
			}
			for _, m := range own[name] {
				if _, ok := res.layers[m]; !ok {
					t.Errorf("traced %s run did not measure %s", name, m)
				}
			}
			if res.recon == nil {
				t.Errorf("traced %s run has no reconciliation", name)
			}
		})
	}
}

// TestWrongExpectationCounted feeds the live checker an expectation that
// pbfs is race-free under SP+ and requires that every such run counts as
// failed instead of passing silently.
func TestWrongExpectationCounted(t *testing.T) {
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	exp.Live["pbfs"]["sp+ no-steals"] = 0
	cfg := testConfig(t, false)
	cfg.expect = exp
	res, err := runLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One pbfs no-steals run per pass, so failures equal measured passes.
	passes := res.attempted / (len(apps.All()) * numLiveCols)
	if res.failed == 0 || res.failed != passes {
		t.Fatalf("wrong expectation: %d failed of %d attempted (%d passes)", res.failed, res.attempted, passes)
	}
}

// TestCorruptTraceCounted corrupts one pool trace after its reference
// verdicts were computed and requires that every request about it fails
// while every other request still succeeds.
func TestCorruptTraceCounted(t *testing.T) {
	cfg := testConfig(t, false)
	clients := runtime.GOMAXPROCS(0)
	in, err := setupServe(cfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	bad := in.pool[0]
	bad.data = append([]byte(nil), bad.data...)
	bad.data[len(trace.Magic)+8] ^= 0xff
	var onBad int
	for _, ops := range in.clients {
		for _, op := range ops {
			if op.Trace == 0 {
				onBad++
			}
		}
	}
	tally := &serveTally{}
	if err := runBatch(cfg, in, tally, nil); err != nil {
		t.Fatal(err)
	}
	if onBad == 0 || tally.failed != onBad {
		t.Fatalf("corrupt trace: %d failed, %d requests named it", tally.failed, onBad)
	}
	if tally.ok != tally.attempted-onBad {
		t.Fatalf("%d ok of %d attempted; only %d should fail", tally.ok, tally.attempted, onBad)
	}
}

// TestWrongReferenceCounted perturbs one reference document of serve and
// one of sweep and requires that exactly the requests and sweeps compared
// with it are counted as failed: a 200 reply whose verdict differs from
// the reference must not pass.
func TestWrongReferenceCounted(t *testing.T) {
	cfg := testConfig(t, false)
	in, err := setupServe(cfg, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	ref := in.pool[0].refs["all"]
	in.pool[0].refs["all"] = append(ref[:len(ref):len(ref)], ' ')
	var onBad int
	for _, ops := range in.clients {
		for _, op := range ops {
			if op.Trace == 0 && op.Detector == "all" {
				onBad++
			}
		}
	}
	tally := &serveTally{}
	if err := runBatch(cfg, in, tally, nil); err != nil {
		t.Fatal(err)
	}
	if onBad == 0 || tally.failed != onBad || tally.ok != tally.attempted-onBad {
		t.Fatalf("wrong serve reference: %d failed, %d ok of %d, %d requests used it",
			tally.failed, tally.ok, tally.attempted, onBad)
	}

	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := setupSweep(1, exp)
	if err != nil {
		t.Fatal(err)
	}
	ts[0].ref = append(ts[0].ref[:len(ts[0].ref):len(ts[0].ref)], ' ')
	st := &sweepTally{log: t.Logf}
	sweepPass(ts, runtime.GOMAXPROCS(0), exp, st, nil)
	if st.attempted != len(ts) || st.failed != 1 {
		t.Fatalf("wrong sweep reference: %d of %d sweeps failed, want 1", st.failed, st.attempted)
	}
}

// TestCacheMismatchCounted sends one first-time request twice. The second
// copy is served from the cache although the script says it must miss,
// and it must be counted as failed: the cache hit ratio is part of the
// oracle, not only a speed.
func TestCacheMismatchCounted(t *testing.T) {
	cfg := testConfig(t, false)
	in, err := setupServe(cfg, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	ops := in.clients[0]
	i := slices.IndexFunc(ops, func(op scriptOp) bool { return op.Class == opUpload })
	in.clients[0] = slices.Insert(ops, i+1, ops[i])
	tally := &serveTally{}
	if err := runBatch(cfg, in, tally, nil); err != nil {
		t.Fatal(err)
	}
	if tally.failed != 1 {
		t.Fatalf("duplicated first-time request: %d of %d failed, want 1", tally.failed, tally.attempted)
	}
}

// TestSeedDeterminism: the same seed gives the same inputs, another seed
// different ones, wherever the input depends on the seed.
func TestSeedDeterminism(t *testing.T) {
	digests := func(seed int64) []string {
		pool, err := recordPool(seed)
		if err != nil {
			t.Fatal(err)
		}
		var ds []string
		for _, pt := range pool {
			ds = append(ds, pt.digest)
		}
		return ds
	}
	if a, b := digests(7), digests(7); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different serve trace pools")
	}
	if a, b := digests(7), digests(8); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds, same serve trace pool")
	}

	pool, err := recordPool(7)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := makeScript(7, pool, 2), makeScript(7, pool, 2); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different request scripts")
	}
	if a, b := makeScript(7, pool, 2), makeScript(8, pool, 2); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds, same request script")
	}

	// The live workload's seed reaches pbfs through the check-reductions
	// schedule.
	pbfsTrace := func(seed int64) []byte {
		in, err := setupLive(seed)
		if err != nil {
			t.Fatal(err)
		}
		la := in.apps[len(in.apps)-1]
		if la.app.Name != "pbfs" {
			t.Fatalf("last app is %s", la.app.Name)
		}
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		cilk.Run(la.app.Build(mem.NewAllocator(), apps.Small).Prog, cilk.Config{Spec: la.specs[colReductions], Hooks: w})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(pbfsTrace(3), pbfsTrace(3)) {
		t.Fatal("same seed, different pbfs check-reductions traces")
	}
	if bytes.Equal(pbfsTrace(3), pbfsTrace(4)) {
		t.Fatal("different seeds, same pbfs check-reductions trace")
	}

	// The sweep programs are fixed; the seed only orders them.
	if a, b := sweepTargets(5), sweepTargets(5); a[0].name != b[0].name {
		t.Fatal("same seed, different sweep order")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program emits in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	var e2e []metric
	for _, m := range endToEnd(&result{}) {
		e2e = append(e2e, metric{Name: m.Name, Unit: m.Unit})
	}
	var listed []metric
	for _, m := range doc.EndToEnd {
		listed = append(listed, metric{Name: m.Name, Unit: m.Unit})
	}
	if !reflect.DeepEqual(e2e, listed) {
		t.Errorf("end-to-end metrics: program emits %v, BENCHMARK.json lists %v", e2e, listed)
	}
	listed = listed[:0]
	for _, m := range doc.PerLayer {
		listed = append(listed, metric{Name: m.Name, Unit: m.Unit})
	}
	if !reflect.DeepEqual(layerMetrics, listed) {
		t.Errorf("per-layer metrics differ between the program and BENCHMARK.json")
	}
}
