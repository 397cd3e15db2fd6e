package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/trace"
)

// testPolicy is a deterministic retry policy that records sleeps instead
// of performing them.
func testPolicy(slept *[]time.Duration) retryPolicy {
	return retryPolicy{
		attempts: 4,
		base:     100 * time.Millisecond,
		cap:      time.Second,
		sleep:    func(d time.Duration) { *slept = append(*slept, d) },
		jitter:   func() float64 { return 0 }, // low edge of the jitter window
	}
}

func TestBackoffHonorsRetryAfter(t *testing.T) {
	p := retryPolicy{jitter: func() float64 { return 0 }}.withDefaults()
	if d := p.backoff(0, "3"); d != 3*time.Second {
		t.Fatalf("Retry-After 3 → %v, want 3s", d)
	}
	if d := p.backoff(5, "0"); d != 0 {
		t.Fatalf("Retry-After 0 → %v, want 0", d)
	}
	// HTTP-date form: a time in the past means "now".
	if d := p.backoff(0, time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)); d != 0 {
		t.Fatalf("past HTTP-date → %v, want 0", d)
	}
	// Without a hint: exponential, halved by the zero jitter, capped.
	if d := p.backoff(0, ""); d != 100*time.Millisecond {
		t.Fatalf("backoff(0) = %v, want 100ms (base/2 at zero jitter)", d)
	}
	if d := p.backoff(1, ""); d != 200*time.Millisecond {
		t.Fatalf("backoff(1) = %v, want 200ms", d)
	}
	if d := p.backoff(20, ""); d != p.cap/2 {
		t.Fatalf("backoff(20) = %v, want cap/2 = %v", d, p.cap/2)
	}
	// Full jitter reaches toward the top of the window.
	p.jitter = func() float64 { return 0.999 }
	if d := p.backoff(0, ""); d < 190*time.Millisecond || d > 200*time.Millisecond {
		t.Fatalf("jittered backoff(0) = %v, want just under 200ms", d)
	}
}

// A server hint beyond remoteRetryAfterCap is clamped, in both header
// forms: honoring a raw "Retry-After: 86400" (or a far-future HTTP
// date) would park a CLI invocation for a day on one bad header.
func TestBackoffClampsRetryAfter(t *testing.T) {
	p := retryPolicy{jitter: func() float64 { return 0 }}.withDefaults()
	if d := p.backoff(0, "86400"); d != remoteRetryAfterCap {
		t.Fatalf("Retry-After 86400 → %v, want the %v cap", d, remoteRetryAfterCap)
	}
	if d := p.backoff(0, "30"); d != 30*time.Second {
		t.Fatalf("Retry-After 30 → %v, want 30s (at the cap, not over it)", d)
	}
	future := time.Now().Add(24 * time.Hour).UTC().Format(http.TimeFormat)
	if d := p.backoff(0, future); d != remoteRetryAfterCap {
		t.Fatalf("far-future HTTP-date → %v, want the %v cap", d, remoteRetryAfterCap)
	}
	near := time.Now().Add(2 * time.Second).UTC().Format(http.TimeFormat)
	if d := p.backoff(0, near); d <= 0 || d > 2*time.Second {
		t.Fatalf("near HTTP-date → %v, want ~2s (under the cap, honored)", d)
	}
}

// A saturated daemon (429 with Retry-After) is retried after exactly the
// server-requested delay, and the request eventually succeeds without
// the user seeing the shed.
func TestRetryAfter429Shed(t *testing.T) {
	var calls atomic.Int64
	ar, _ := json.Marshal(service.AnalyzeResponse{
		AnalyzeHeader: service.AnalyzeHeader{Digest: "d", Detector: "sp+", Clean: true}, Report: []byte(`{}`)})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"saturated"}`)
			return
		}
		w.Write(ar)
	}))
	defer ts.Close()

	var slept []time.Duration
	var out bytes.Buffer
	c := &remoteClient{base: ts.URL, stdout: &out, retry: testPolicy(&slept)}
	code, err := c.run(remoteRequest{prog: "fig1", detector: "sp+", spec: "all"})
	if err != nil || code != exitClean {
		t.Fatalf("run: code %d err %v", code, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	if len(slept) != 2 || slept[0] != 2*time.Second || slept[1] != 2*time.Second {
		t.Fatalf("sleeps %v, want two 2s waits from Retry-After", slept)
	}
}

// A draining daemon (503) is retried the same way — the restart heals
// underneath the client.
func TestRetryAfter503Draining(t *testing.T) {
	var calls atomic.Int64
	ar, _ := json.Marshal(service.AnalyzeResponse{
		AnalyzeHeader: service.AnalyzeHeader{Digest: "d", Detector: "sp+", Clean: true}, Report: []byte(`{}`)})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"draining: not accepting new work"}`)
			return
		}
		w.Write(ar)
	}))
	defer ts.Close()

	var slept []time.Duration
	var out bytes.Buffer
	c := &remoteClient{base: ts.URL, stdout: &out, retry: testPolicy(&slept)}
	code, err := c.run(remoteRequest{prog: "fig1", detector: "sp+", spec: "all"})
	if err != nil || code != exitClean {
		t.Fatalf("run: code %d err %v", code, err)
	}
	if len(slept) != 1 || slept[0] != time.Second {
		t.Fatalf("sleeps %v, want one 1s wait", slept)
	}
}

// Retries that never succeed end in an ordinary error — mapped by run()
// to exit code 2 — that names the attempt count.
func TestRetriesExhaustedExitCode(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"saturated"}`)
	}))
	defer ts.Close()

	// Through the real CLI entry point: Retry-After 0 keeps the default
	// policy's sleeps at zero, so the test is fast.
	code, _, errOut := exec(t, "-remote", ts.URL, "-prog", "fig1")
	if code != exitError {
		t.Fatalf("exhausted retries: exit %d, want %d", code, exitError)
	}
	if !strings.Contains(errOut, "giving up after 4 attempts") || !strings.Contains(errOut, "saturated") {
		t.Fatalf("error must name the attempts and the cause: %s", errOut)
	}
}

// cutConn writes a response that claims more body than it delivers, then
// kills the connection — the reader sees an unexpected EOF mid-body.
func cutConn(w http.ResponseWriter) {
	conn, _, err := w.(http.Hijacker).Hijack()
	if err != nil {
		panic(err)
	}
	conn.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\n{\"partial\":"))
	conn.Close()
}

// A connection cut mid-response is retried for idempotent GETs — polling
// a sweep job survives it.
func TestMidResponseCutRetriedForGET(t *testing.T) {
	var polls atomic.Int64
	done, _ := json.Marshal(service.SweepResponse{
		SweepHeader: service.SweepHeader{ID: "sweep-1", Program: "fig1", State: "done"},
		Sweep:       []byte(`{"schema":3,"clean":true,"complete":true,"specsRun":1}`)})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusAccepted)
			sub, _ := json.Marshal(service.SweepResponse{SweepHeader: service.SweepHeader{ID: "sweep-1", Program: "fig1", State: "queued"}})
			w.Write(sub)
		case polls.Add(1) == 1:
			cutConn(w) // first poll dies mid-body
		default:
			w.Write(done)
		}
	}))
	defer ts.Close()

	var slept []time.Duration
	var out bytes.Buffer
	c := &remoteClient{base: ts.URL, stdout: &out, retry: testPolicy(&slept)}
	code, err := c.run(remoteRequest{prog: "fig1", coverage: true})
	if err != nil {
		t.Fatalf("sweep with cut poll: %v", err)
	}
	if code != exitClean {
		t.Fatalf("exit %d, want clean", code)
	}
	if polls.Load() < 2 {
		t.Fatalf("cut GET must be retried, polls=%d", polls.Load())
	}
}

// The same cut on a POST is NOT retried: the daemon may have acted on
// the request, and replaying a non-idempotent submission is not the
// client's call. The error says so and exits 2.
func TestMidResponseCutNotRetriedForPOST(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		cutConn(w)
	}))
	defer ts.Close()

	var slept []time.Duration
	var out bytes.Buffer
	c := &remoteClient{base: ts.URL, stdout: &out, retry: testPolicy(&slept)}
	_, err := c.run(remoteRequest{prog: "fig1", detector: "sp+", spec: "all"})
	if err == nil {
		t.Fatal("cut POST must fail")
	}
	if !strings.Contains(err.Error(), "not retried") {
		t.Fatalf("error must explain the no-retry decision: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("POST was sent %d times, want exactly 1", calls.Load())
	}
}

// Dial failures are retried for any method — the request never left the
// machine — and exhaustion surfaces as exit 2, never a panic.
func TestDialFailureRetriedThenExit2(t *testing.T) {
	var slept []time.Duration
	var out bytes.Buffer
	c := &remoteClient{base: "http://127.0.0.1:1", stdout: &out, retry: testPolicy(&slept)}
	code, err := c.run(remoteRequest{prog: "fig1", detector: "sp+", spec: "all"})
	if err == nil || code != exitError {
		t.Fatalf("unreachable daemon: code %d err %v", code, err)
	}
	if len(slept) != 3 {
		t.Fatalf("dial failure should back off between all 4 attempts, slept %v", slept)
	}
	if !strings.Contains(err.Error(), "giving up after 4 attempts") {
		t.Fatalf("error must name the attempts: %v", err)
	}
}

// End-to-end resumable path: a trace past the threshold is uploaded in
// chunks to the daemon's store, analyzed by reference, and the verdict
// is byte-identical to the plain body-upload verdict. A second run skips
// the upload entirely (the trace is content-addressed) and hits the
// verdict cache.
func TestClientResumableUploadPath(t *testing.T) {
	defer func(th, ch int64) { resumableThreshold = th; uploadChunk = ch }(resumableThreshold, uploadChunk)
	resumableThreshold = 1 // force every -replay through the store path
	uploadChunk = 512      // and split even a small trace into many chunks

	dir := t.TempDir()
	srv, err := service.Open(service.Config{Workers: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	path := filepath.Join(t.TempDir(), "run.trace")
	if code, out, errOut := exec(t, "-prog", "fig1", "-spec", "all", "-record", path); code != exitClean {
		t.Fatalf("record: exit %d\n%s%s", code, out, errOut)
	}
	code, localJSON, _ := exec(t, "-replay", path, "-detector", "sp+", "-json")
	if code != exitRaces {
		t.Fatalf("local replay: exit %d", code)
	}

	code, remoteJSON, errOut := exec(t, "-remote", ts.URL, "-replay", path, "-detector", "sp+", "-json")
	if code != exitRaces {
		t.Fatalf("remote replay via store: exit %d\n%s%s", code, remoteJSON, errOut)
	}
	if remoteJSON != localJSON {
		t.Fatalf("store-path verdict != local verdict:\nremote: %s\nlocal:  %s", remoteJSON, localJSON)
	}

	// The trace must now be durably stored under its digest.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dg, _ := trace.DigestOf(bytes.NewReader(raw))
	req, _ := http.NewRequest(http.MethodHead, ts.URL+"/traces/"+dg.String(), nil)
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.Header.Get("Upload-Complete") != "true" {
		t.Fatal("trace not finalized in the store after the resumable upload")
	}

	// Second run: no re-upload, verdict served from cache.
	code, remote2, _ := exec(t, "-remote", ts.URL, "-replay", path, "-detector", "sp+", "-json")
	if code != exitRaces || remote2 != remoteJSON {
		t.Fatalf("second store-path run: exit %d\n%s", code, remote2)
	}
	if srv.CacheHits() == 0 {
		t.Fatal("second run must hit the verdict cache")
	}
}

// A pre-store daemon (404/501 on /traces/) silently falls back to the
// single-body upload — the flag surface does not change behavior.
func TestClientFallsBackWithoutStore(t *testing.T) {
	defer func(th int64) { resumableThreshold = th }(resumableThreshold)
	resumableThreshold = 1

	_, base := startDaemon(t, service.Config{Workers: 2}) // no StoreDir
	path := filepath.Join(t.TempDir(), "run.trace")
	if code, _, _ := exec(t, "-prog", "fig1", "-spec", "all", "-record", path); code != exitClean {
		t.Fatal("record failed")
	}
	code, out, errOut := exec(t, "-remote", base, "-replay", path, "-detector", "sp+", "-json")
	if code != exitRaces {
		t.Fatalf("fallback body upload: exit %d\n%s%s", code, out, errOut)
	}
	if !strings.HasPrefix(out, `{"schema":`) {
		t.Fatalf("fallback verdict malformed:\n%s", out)
	}
}
