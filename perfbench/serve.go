package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rader"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/specgen"
	"repro/internal/trace"
)

// Request classes of the serve script.
const (
	opUpload = iota // POST /analyze with the trace in the body
	opElide         // the same with ?elide=1
	opIngest        // PUT /traces/{digest}?complete=1, then POST /analyze?digest=
	opRepeat        // an earlier request of the same client again: a cache hit
)

var opNames = [...]string{"upload", "elide", "ingest", "repeat"}

// serveDetectors are the analyses first-time requests ask for. "all" also
// seeds the peer-set, sp-bags and sp+ cache entries, never depa's, so the
// two never hit each other.
var serveDetectors = []string{"all", "depa"}

// The script's request mix. Each number has a stated basis (README.md,
// "The serve script"):
//   - plain uploads are the bulk, because the only raderd client in the
//     repository, CI's rader -remote, sends plain -replay uploads;
//   - elide and ingest are sized by need: one request of each per (app,
//     detector) stratum, the fewest that sends every app's traces through
//     the route under both detectors;
//   - repeats stay well below half, so verdict_ms_p50 is a cache-miss
//     latency and not the hit/miss boundary.
const (
	tracesPerApp     = 10 // at most; the pool is stratified by app so every seed has the same mix
	elidePerStratum  = 1  // elide=1 requests per (app, detector)
	ingestPerStratum = 1  // ingest requests per (app, detector)
	repeatShare      = 0.20
)

// poolTrace is one recorded trace and the verdicts a correct server must
// return for it, computed locally at set-up.
type poolTrace struct {
	app    string
	spec   string
	data   []byte
	digest string
	events int64
	refs   map[string][]byte // detector → report document
}

// scriptOp is one request of a client's script.
type scriptOp struct {
	Class    int    `json:"class"`
	Trace    int    `json:"trace"` // pool index
	Detector string `json:"detector"`
	// Route is the original op's class for a repeat (a repeated ingest
	// re-analyzes by digest without uploading again).
	Route int `json:"route"`
}

// serveInputs are the serve workload's generated inputs: the trace pool
// and one script per client. Every batch replays the same script against
// a fresh server and store, so every request meets the same cache state
// in every batch and every run.
type serveInputs struct {
	pool    []*poolTrace
	clients [][]scriptOp
}

// recordPool records tracesPerApp distinct traces per app, each from a
// distinct member of the app's §7 specification family chosen by seed.
// Seeds of sched.Random would not do: five of the six apps have one
// continuation per sync block, so their traces do not vary with it.
func recordPool(seed int64) ([]*poolTrace, error) {
	rng := rand.New(rand.NewSource(seed))
	var pool []*poolTrace
	for _, app := range apps.All() {
		specs := specgen.All(specgen.Measure(app.Build(mem.NewAllocator(), apps.Small).Prog))
		seen := make(map[string]bool)
		picked := 0
		for _, i := range rng.Perm(len(specs)) {
			if picked == tracesPerApp {
				break
			}
			var buf bytes.Buffer
			w := trace.NewWriter(&buf)
			cilk.Run(app.Build(mem.NewAllocator(), apps.Small).Prog, cilk.Config{Spec: specs[i], Hooks: w})
			if err := w.Close(); err != nil {
				return nil, fmt.Errorf("recording %s: %w", app.Name, err)
			}
			d, err := w.Digest()
			if err != nil {
				return nil, err
			}
			if seen[d.String()] {
				continue
			}
			seen[d.String()] = true
			picked++
			pool = append(pool, &poolTrace{app: app.Name, spec: sched.Format(specs[i]),
				data: buf.Bytes(), digest: d.String(), events: w.Events()})
		}
		if picked < min(tracesPerApp, len(specs)) {
			return nil, fmt.Errorf("%s: only %d distinct traces in its family", app.Name, picked)
		}
	}
	return pool, nil
}

// localVerdict computes the document raderd must return for data under
// detector, the way a local rader -json replay does.
func localVerdict(data []byte, detector string) ([]byte, error) {
	if detector == "all" {
		dets := rader.NewAllDetectors()
		events, err := trace.ReplayAllBytes(data, hooksOf(dets)...)
		if err != nil {
			return nil, err
		}
		return report.FromDetectors("", events, dets).Marshal()
	}
	d, hooks, err := rader.NewDetector(rader.DetectorName(detector))
	if err != nil {
		return nil, err
	}
	events, err := trace.ReplayAllBytes(data, hooks)
	if err != nil {
		return nil, err
	}
	return report.FromDetector(detector, "", events, d).Marshal()
}

// makeScript deals the pool's traces to clients (disjoint, so no two
// clients share a cache key) and builds each client's request sequence:
// two first-time requests per trace (all, depa), a fixed number of them
// per (app, detector) routed through elision or resumable ingest, plus
// repeats of the client's own earlier requests, which are cache hits
// because the loop is closed. Every class's count per batch is fixed, so
// seeds change which traces get which route and the order, never the mix.
func makeScript(seed int64, pool []*poolTrace, clients int) [][]scriptOp {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var apps []string
	byApp := make(map[string][]int)
	for i, pt := range pool {
		if byApp[pt.app] == nil {
			apps = append(apps, pt.app)
		}
		byApp[pt.app] = append(byApp[pt.app], i)
	}
	first := make([][]scriptOp, clients)
	repeats := make([][]scriptOp, clients)
	deal := 0
	for _, app := range apps {
		idx := byApp[app]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		mine := make([][]scriptOp, clients)
		for _, det := range serveDetectors {
			classes := classMix(len(idx))
			rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
			for j, ti := range idx {
				c := (deal + j) % clients
				mine[c] = append(mine[c], scriptOp{Class: classes[j], Route: classes[j], Trace: ti, Detector: det})
			}
		}
		deal += len(idx)
		for c, ops := range mine {
			first[c] = append(first[c], ops...)
			// repeats/(first+repeats) = repeatShare.
			n := int(repeatShare/(1-repeatShare)*float64(len(ops)) + 0.5)
			for _, k := range rng.Perm(len(ops))[:n] {
				op := ops[k]
				op.Class = opRepeat
				repeats[c] = append(repeats[c], op)
			}
		}
	}
	out := make([][]scriptOp, clients)
	for c := range out {
		seq := first[c]
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		for _, rep := range repeats[c] {
			orig := rep
			orig.Class = orig.Route
			pos := slices.Index(seq, orig)
			at := pos + 1 + rng.Intn(len(seq)-pos)
			seq = slices.Insert(seq, at, rep)
		}
		out[c] = seq
	}
	return out
}

// classMix is the route of each of the n first-time requests of one
// (app, detector) stratum: elidePerStratum elide, ingestPerStratum ingest,
// the rest plain uploads.
func classMix(n int) []int {
	classes := make([]int, n)
	for i := range classes {
		switch {
		case i < elidePerStratum:
			classes[i] = opElide
		case i < elidePerStratum+ingestPerStratum:
			classes[i] = opIngest
		}
	}
	return classes
}

func setupServe(cfg runConfig, clients int) (*serveInputs, error) {
	pool, err := recordPool(cfg.seed)
	if err != nil {
		return nil, err
	}
	for _, pt := range pool {
		pt.refs = make(map[string][]byte)
		for _, det := range serveDetectors {
			doc, err := localVerdict(pt.data, det)
			if err != nil {
				return nil, fmt.Errorf("local verdict %s/%s: %w", pt.app, det, err)
			}
			pt.refs[det] = doc
		}
	}
	in := &serveInputs{pool: pool, clients: makeScript(cfg.seed, pool, clients)}
	// Start and stop one server so set-up includes the server start-up
	// cost every batch pays.
	b, err := startBatchServer(cfg, clients)
	if err != nil {
		return nil, err
	}
	return in, b.stop()
}

// raderd is one in-process analysis daemon serving real HTTP on
// localhost.
type raderd struct {
	srv *service.Server
	ts  *httptest.Server
	dir string // store directory, "" for a RAM-only daemon
}

// batchServer is the pair of fresh daemons one batch runs against. The
// ingest class needs the durable store and gets a daemon with one; the
// other classes go to a RAM-only daemon. The store must live inside the
// checkout, whose disk is shared: with every request fsyncing there,
// identical runs moved verdict_ms_p50 by half, so the fsync-bound class
// is kept to the ingest share of the script.
type batchServer struct {
	mem, disk *raderd
	client    *http.Client
}

func startRaderd(clients int, dir string) (*raderd, error) {
	if dir != "" {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	srv, err := service.Open(service.Config{Workers: clients, StoreDir: dir})
	if err != nil {
		return nil, err
	}
	return &raderd{srv: srv, ts: httptest.NewServer(srv.Handler()), dir: dir}, nil
}

func (d *raderd) stop() error {
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		return fmt.Errorf("draining raderd: %w", err)
	}
	if d.dir == "" {
		return nil
	}
	return os.RemoveAll(d.dir)
}

func startBatchServer(cfg runConfig, clients int) (*batchServer, error) {
	mem, err := startRaderd(clients, "")
	if err != nil {
		return nil, err
	}
	disk, err := startRaderd(clients, filepath.Join(cfg.workDir, "store"))
	if err != nil {
		_ = mem.stop()
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	return &batchServer{mem: mem, disk: disk, client: &http.Client{Transport: tr}}, nil
}

// daemonFor routes a request class to its daemon.
func (b *batchServer) daemonFor(route int) *raderd {
	if route == opIngest {
		return b.disk
	}
	return b.mem
}

func (b *batchServer) stop() error {
	b.client.CloseIdleConnections()
	errMem := b.mem.stop()
	if err := b.disk.stop(); err != nil {
		return err
	}
	return errMem
}

// opResult is one completed script request.
type opResult struct {
	latency   time.Duration // client-side, whole op
	analyzeNS int64         // the POST /analyze part alone
	end       time.Time
	cached    bool
	err       error
	span      int
}

// serveTally is what one measured phase of the serve workload collected.
type serveTally struct {
	latMS     []float64
	batches   int
	batchWall time.Duration
	fullWall  time.Duration // batch time while every client was busy
	fullOK    int           // verdicts completed within fullWall
	attempted int
	failed    int
	ok        int
	analyzeNS int64  // Σ POST /analyze latency of the ok requests
	scrape    scrape // summed over batches
}

// runBatch replays the script once against a fresh server, one goroutine
// per client, each waiting for every reply before its next request.
func runBatch(cfg runConfig, in *serveInputs, t *serveTally, rec *recorder) error {
	b, err := startBatchServer(cfg, len(in.clients))
	if err != nil {
		return err
	}
	results := make([][]opResult, len(in.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range in.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, op := range in.clients[c] {
				r := doOp(b, in.pool[op.Trace], op, rec)
				if r.end.IsZero() { // failed before a reply arrived
					r.end = time.Now()
				}
				results[c] = append(results[c], r)
			}
		}(c)
	}
	wg.Wait()
	t.batchWall += time.Since(start)
	t.batches++
	// Throughput counts the stretch where every client was still busy: once
	// the first client runs out of script, the load is no longer nproc.
	full := time.Now()
	for _, rs := range results {
		if n := len(rs); n > 0 && rs[n-1].end.Before(full) {
			full = rs[n-1].end
		}
	}
	t.fullWall += full.Sub(start)
	for _, rs := range results {
		for _, r := range rs {
			if r.err == nil && !r.end.After(full) {
				t.fullOK++
			}
		}
	}
	for _, d := range []*raderd{b.mem, b.disk} {
		sc, err := scrapeMetrics(b.client, d)
		if err != nil {
			_ = b.stop()
			return err
		}
		t.scrape.add(sc)
	}
	for _, rs := range results {
		for _, r := range rs {
			t.attempted++
			if r.err != nil {
				t.failed++
				if t.failed <= maxLoggedFailures {
					cfg.log("perfbench: serve failure: %v", r.err)
				}
				continue
			}
			t.ok++
			t.latMS = append(t.latMS, ms(r.latency))
			t.analyzeNS += r.analyzeNS
		}
	}
	if rec != nil {
		if err := graftServerSpans(b, in, results, rec); err != nil {
			_ = b.stop()
			return err
		}
	}
	return b.stop()
}

// doOp performs one script request and checks the verdict byte for byte
// against the local reference.
func doOp(b *batchServer, pt *poolTrace, op scriptOp, rec *recorder) opResult {
	var r opResult
	r.span = rec.begin(0, "client "+opNames[op.Class])
	defer rec.end(r.span)
	start := time.Now()
	url := b.daemonFor(op.Route).ts.URL + "/analyze?detector=" + op.Detector
	var body []byte
	switch op.Route {
	case opUpload:
		body = pt.data
	case opElide:
		body = pt.data
		url += "&elide=1"
	case opIngest:
		if op.Class != opRepeat {
			if r.err = putTrace(b, pt); r.err != nil {
				return r
			}
		}
		url += "&digest=" + pt.digest
	}
	aStart := time.Now()
	resp, err := b.client.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	r.latency = r.end.Sub(start)
	r.analyzeNS = int64(r.end.Sub(aStart))
	if err != nil {
		r.err = err
		return r
	}
	if resp.StatusCode != http.StatusOK {
		// 429 and 503 are shed requests; anything else is a failure too.
		r.err = fmt.Errorf("analyze %s/%s: HTTP %d: %s", pt.app, op.Detector, resp.StatusCode, bytes.TrimSpace(raw))
		return r
	}
	var ar service.AnalyzeResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		r.err = err
		return r
	}
	r.cached = ar.Cached
	switch {
	case ar.Digest != pt.digest || !bytes.Equal(ar.Report, pt.refs[op.Detector]):
		r.err = fmt.Errorf("analyze %s/%s: verdict differs from the local replay", pt.app, op.Detector)
	case ar.Cached != (op.Class == opRepeat):
		// The script fixes every request's cache state: repeats hit, all
		// others miss. Anything else is a caching fault, not a speed change.
		r.err = fmt.Errorf("analyze %s/%s (%s): cached=%v", pt.app, op.Detector, opNames[op.Class], ar.Cached)
	}
	return r
}

// putTrace ingests the whole trace in one resumable-upload chunk.
func putTrace(b *batchServer, pt *poolTrace) error {
	req, err := http.NewRequest(http.MethodPut, b.disk.ts.URL+"/traces/"+pt.digest+"?offset=0&complete=1", bytes.NewReader(pt.data))
	if err != nil {
		return err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st service.TraceStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("ingest %s: HTTP %d: %w", pt.app, resp.StatusCode, err)
	}
	if (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated) || !st.Complete {
		return fmt.Errorf("ingest %s: HTTP %d, complete=%v", pt.app, resp.StatusCode, st.Complete)
	}
	return nil
}

// scrape is the subset of raderd's /metrics the benchmark reads.
type scrape struct {
	phaseSum   map[string]float64 // seconds
	phaseCount map[string]float64
	hits       float64
	misses     float64
	shed       float64
	verdictW   float64
	traceW     float64
	ingestB    float64
}

func (s *scrape) add(o scrape) {
	if s.phaseSum == nil {
		s.phaseSum, s.phaseCount = map[string]float64{}, map[string]float64{}
	}
	for k, v := range o.phaseSum {
		s.phaseSum[k] += v
	}
	for k, v := range o.phaseCount {
		s.phaseCount[k] += v
	}
	s.hits += o.hits
	s.misses += o.misses
	s.shed += o.shed
	s.verdictW += o.verdictW
	s.traceW += o.traceW
	s.ingestB += o.ingestB
}

func scrapeMetrics(client *http.Client, d *raderd) (scrape, error) {
	sc := scrape{phaseSum: map[string]float64{}, phaseCount: map[string]float64{}}
	resp, err := client.Get(d.ts.URL + "/metrics")
	if err != nil {
		return sc, err
	}
	defer resp.Body.Close()
	s := bufio.NewScanner(resp.Body)
	for s.Scan() {
		line := s.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(name, "raderd_phase_latency_seconds_sum{"):
			sc.phaseSum[labelValue(name, "phase")] = v
		case strings.HasPrefix(name, "raderd_phase_latency_seconds_count{"):
			sc.phaseCount[labelValue(name, "phase")] = v
		case name == "raderd_cache_hits_total":
			sc.hits = v
		case name == "raderd_cache_misses_total":
			sc.misses = v
		case name == `raderd_jobs_total{state="rejected"}`:
			sc.shed = v
		case name == "raderd_store_verdict_writes_total":
			sc.verdictW = v
		case name == "raderd_store_trace_writes_total":
			sc.traceW = v
		case name == "raderd_ingest_bytes_total":
			sc.ingestB = v
		}
	}
	return sc, s.Err()
}

func labelValue(series, label string) string {
	_, rest, ok := strings.Cut(series, label+`="`)
	if !ok {
		return ""
	}
	v, _, _ := strings.Cut(rest, `"`)
	return v
}

// graftServerSpans fetches raderd's span tree for every digest the batch
// analyzed and grafts it under the client span of the request that
// computed it. A daemon keeps the most recent tree per digest, so the tree
// belongs to the last-finishing first-time request on that digest there.
func graftServerSpans(b *batchServer, in *serveInputs, results [][]opResult, rec *recorder) error {
	type key struct {
		d      *raderd
		digest string
	}
	last := make(map[key]opResult)
	for c, rs := range results {
		for i, r := range rs {
			if r.err != nil || r.cached {
				continue
			}
			op := in.clients[c][i]
			k := key{b.daemonFor(op.Route), in.pool[op.Trace].digest}
			if prev, ok := last[k]; !ok || r.end.After(prev.end) {
				last[k] = r
			}
		}
	}
	for k, r := range last {
		resp, err := b.client.Get(k.d.ts.URL + "/traces/" + k.digest + "/trace?format=spans")
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("span tree %s: HTTP %d %v", k.digest, resp.StatusCode, err)
		}
		doc, err := obs.DecodeSpans(raw)
		if err != nil {
			return err
		}
		t0 := time.Unix(0, doc.T0UnixNano)
		recs := doc.Records()
		ids := make([]int, len(recs))
		for i, sr := range recs {
			parent := r.span
			// The innermost earlier span containing this one is its parent.
			for j := i - 1; j >= 0; j-- {
				if recs[j].Start <= sr.Start && sr.Start+sr.Dur <= recs[j].Start+recs[j].Dur {
					parent = ids[j]
					break
				}
			}
			start := t0.Add(sr.Start)
			ids[i] = rec.add(parent, "raderd "+sr.Name, start, start.Add(sr.Dur))
		}
	}
	return nil
}

// measureServe runs script batches for the run's measurement time; see
// alternate. traced is nil for an untraced run.
func measureServe(cfg runConfig, in *serveInputs, rec *recorder) (plain, traced *serveTally, err error) {
	plain = &serveTally{}
	if rec != nil {
		traced = &serveTally{}
	}
	err = alternate(cfg, func(tr bool) error {
		if tr {
			return runBatch(cfg, in, traced, rec)
		}
		return runBatch(cfg, in, plain, nil)
	})
	return plain, traced, err
}

func runServe(cfg runConfig) (*result, error) {
	clients := runtime.GOMAXPROCS(0)
	in, setupS, err := timedSetup(cfg, func() (*serveInputs, error) { return setupServe(cfg, clients) })
	if err != nil {
		return nil, err
	}
	// One unmeasured batch warms the replay pools and the heap.
	if err := runBatch(cfg, in, &serveTally{}, nil); err != nil {
		return nil, err
	}
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	t, tt, err := measureServe(cfg, in, rec)
	if err != nil {
		return nil, err
	}
	res := &result{attempted: t.attempted, failed: t.failed, setupS: setupS}
	res.workMS = median(t.latMS)
	res.tailMS = quantile(t.latMS, 0.99)
	res.throughput = float64(t.fullOK) / t.fullWall.Seconds()
	res.headline = []metric{
		{"verdict_ms_p50", "ms", res.workMS},
		{"verdict_ms_p99", "ms", res.tailMS},
		{"verdict_samples", "count", float64(len(t.latMS))},
		{"verdicts_per_s", "1/s", res.throughput},
	}
	if len(t.latMS) < 1000 {
		cfg.log("perfbench: verdict_ms_p99 rests on %d samples; it needs at least 1000", len(t.latMS))
	}
	if tt == nil {
		return res, nil
	}
	res.attempted += tt.attempted
	res.failed += tt.failed
	serviceLayers(res, tt)
	if err := poolLayers(cfg, res, in); err != nil {
		return nil, err
	}
	rc := newReconciliation("verdict", float64(tt.ok), rec,
		ms(t.batchWall)*float64(clients)/float64(t.ok), ms(tt.batchWall)*float64(clients)/float64(tt.ok))
	rc.finish(res)
	return res, writeSpans(cfg, "serve", rec)
}

// serviceLayers derives the service and store layer metrics from the
// traced batches' /metrics scrapes and client timings.
func serviceLayers(res *result, t *serveTally) {
	sc := t.scrape
	phaseMS := func(p string) float64 { return 1000 * sc.phaseSum[p] / sc.phaseCount[p] }
	res.layer("service.queue_ms_mean", phaseMS("queue"))
	res.layer("service.run_ms_mean", phaseMS("run"))
	res.layer("service.encode_ms_mean", phaseMS("encode"))
	var phases float64
	for _, p := range []string{"queue", "run", "encode"} {
		phases += 1000 * sc.phaseSum[p]
	}
	res.layer("service.residual_ms_mean", (float64(t.analyzeNS)/1e6-phases)/float64(t.ok))
	res.layer("service.cache_hit_ratio", sc.hits/(sc.hits+sc.misses))
	res.layer("service.shed", sc.shed/float64(t.batches))
	res.layer("store.verdict_writes", sc.verdictW/float64(t.batches))
	res.layer("store.trace_writes", sc.traceW/float64(t.batches))
	res.layer("store.ingest_bytes", sc.ingestB/float64(t.batches))
}
