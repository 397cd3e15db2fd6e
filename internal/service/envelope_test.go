package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"

	"repro/internal/cilk"
	"repro/internal/rader"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/trace"
)

// oracleEncode is how every /analyze and /sweep response was written
// before verdict documents were spliced in: json.Encoder over the whole
// envelope, which validates and re-compacts the json.RawMessage document.
// The spliced responses must stay byte-identical to it.
func oracleEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// localReplayDoc is the verdict document of a local replay, encoded with
// json.Marshal (not report.Multi.MarshalParts) so it is an independent
// oracle for the server's single-encode path.
func localReplayDoc(t *testing.T, raw []byte, det rader.DetectorName) []byte {
	t.Helper()
	var doc any
	if det == rader.All {
		dets := rader.NewAllDetectors()
		hooks := make([]cilk.Hooks, len(dets))
		for i, d := range dets {
			hooks[i] = d
		}
		n, err := trace.ReplayAllBytes(raw, hooks...)
		if err != nil {
			t.Fatal(err)
		}
		doc = report.FromDetectors("", n, dets)
	} else {
		d, hooks, err := rader.NewDetector(det)
		if err != nil {
			t.Fatal(err)
		}
		n, err := trace.ReplayAllBytes(raw, hooks)
		if err != nil {
			t.Fatal(err)
		}
		doc = report.FromDetector(string(det), "", n, d)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postRaw POSTs body and returns the status and the raw response bytes.
func postRaw(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, b := postAnalyze(t, url, body)
	return resp.StatusCode, b
}

// checkAnalyzeEnvelope requires an /analyze response to equal the
// encoder oracle over the expected envelope. Only the server-measured
// duration is taken from the response itself.
func checkAnalyzeEnvelope(t *testing.T, name string, status int, body []byte, want AnalyzeResponse) {
	t.Helper()
	if status != http.StatusOK {
		t.Fatalf("%s: %d %s", name, status, body)
	}
	got := decodeAnalyze(t, body)
	want.DurationMS = got.DurationMS
	if want.Cached && got.DurationMS != 0 {
		t.Errorf("%s: cache hit reports duration %v", name, got.DurationMS)
	}
	if oracle := oracleEncode(t, want); !bytes.Equal(body, oracle) {
		t.Errorf("%s: response differs from the encoder oracle\n got  %s\n want %s", name, body, oracle)
	}
}

// Every /analyze response path — a single-detector and an all-detectors
// miss, a named-program miss and hit, every sub-key seeded by the
// all-detectors pass, and hits rehydrated from the store by a restarted
// server — writes exactly the bytes json.Encoder wrote for the envelope.
func TestAnalyzeEnvelopeMatchesEncoderOracle(t *testing.T) {
	dir := t.TempDir()
	_, ts := openDurable(t, dir, Config{Workers: 2})
	raw := fixture(t, "fig1_v2.trace")
	d, _ := trace.DigestOf(bytes.NewReader(raw))
	digest := d.String()
	every := append(append([]rader.DetectorName{}, rader.AllDetectors...), rader.All)
	docs := map[rader.DetectorName][]byte{}
	for _, det := range every {
		docs[det] = localReplayDoc(t, raw, det)
	}
	envelope := func(det rader.DetectorName, cached bool) AnalyzeResponse {
		var m struct{ Clean bool }
		if err := json.Unmarshal(docs[det], &m); err != nil {
			t.Fatal(err)
		}
		return AnalyzeResponse{
			AnalyzeHeader: AnalyzeHeader{Digest: digest, Detector: string(det), Cached: cached, Clean: m.Clean},
			Report:        docs[det],
		}
	}
	analyze := func(base string, det rader.DetectorName) (int, []byte) {
		return postRaw(t, base+"/analyze?detector="+strings.ReplaceAll(string(det), "+", "%2B"), raw)
	}

	status, body := analyze(ts.URL, rader.All)
	checkAnalyzeEnvelope(t, "all miss", status, body, envelope(rader.All, false))
	for _, det := range rader.AllDetectors {
		status, body := analyze(ts.URL, det)
		checkAnalyzeEnvelope(t, "seeded "+string(det)+" hit", status, body, envelope(det, true))
	}
	status, body = analyze(ts.URL, rader.SPPlus)
	checkAnalyzeEnvelope(t, "repeated sp+ hit", status, body, envelope(rader.SPPlus, true))

	// A single-detector miss, on a named program so the envelope carries
	// a spec and a program digest.
	spec, err := sched.Parse("all")
	if err != nil {
		t.Fatal(err)
	}
	prog, identity, err := (&registry{}).resolve("fig1", "")
	if err != nil {
		t.Fatal(err)
	}
	out, err := rader.Run(prog.Factory(), rader.Config{Detector: rader.SPPlus, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	progDoc, err := json.Marshal(report.FromOutcome(out, sched.Format(spec)))
	if err != nil {
		t.Fatal(err)
	}
	progEnvelope := func(cached bool) AnalyzeResponse {
		return AnalyzeResponse{
			AnalyzeHeader: AnalyzeHeader{
				Digest: programDigest(identity), Detector: string(rader.SPPlus),
				Spec: sched.Format(spec), Cached: cached, Clean: out.Report.Empty(),
			},
			Report: progDoc,
		}
	}
	for _, cached := range []bool{false, true} {
		status, body := postRaw(t, ts.URL+"/analyze?prog=fig1&spec=all&detector=sp%2B", nil)
		checkAnalyzeEnvelope(t, "program sp+", status, body, progEnvelope(cached))
	}

	// A restarted server on the same store answers from verdict records.
	_, ts2 := openDurable(t, dir, Config{Workers: 2})
	for _, det := range every {
		status, body := analyze(ts2.URL, det)
		checkAnalyzeEnvelope(t, "rehydrated "+string(det), status, body, envelope(det, true))
	}
	status, body = postRaw(t, ts2.URL+"/analyze?prog=fig1&spec=all&detector=sp%2B", nil)
	checkAnalyzeEnvelope(t, "rehydrated program sp+", status, body, progEnvelope(true))
}

// getRaw GETs url and returns the status and the raw response bytes.
func getRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// Sweep job views — the submit acknowledgement, the poll, the /jobs alias
// and a cache-served resubmission — write the bytes json.Encoder wrote.
func TestSweepEnvelopeMatchesEncoderOracle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	prog, _, err := (&registry{}).resolve("fig1", "")
	if err != nil {
		t.Fatal(err)
	}
	sweepDoc, err := json.Marshal(report.FromCoverage(rader.Sweep(prog.Factory, rader.SweepOptions{Workers: 1})))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, status, wantStatus int, body []byte, want SweepResponse) SweepResponse {
		t.Helper()
		if status != wantStatus {
			t.Fatalf("%s: %d %s", name, status, body)
		}
		var got SweepResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: decoding %s: %v", name, body, err)
		}
		want.ID, want.Progress = got.ID, got.Progress
		if want.State == "" {
			want.State = got.State
		}
		if got.State == stateDone {
			want.Sweep = sweepDoc
		}
		if oracle := oracleEncode(t, want); !bytes.Equal(body, oracle) {
			t.Errorf("%s: response differs from the encoder oracle\n got  %s\n want %s", name, body, oracle)
		}
		return got
	}
	base := SweepResponse{SweepHeader: SweepHeader{Program: "fig1"}}

	status, body := postRaw(t, ts.URL+"/sweep?prog=fig1", nil)
	sr := check("submit", status, http.StatusAccepted, body, base)
	sr = pollSweepDone(t, ts.URL, sr)
	if sr.Progress == nil {
		t.Fatal("finished sweep has no progress section; the oracle check would not cover it")
	}
	for _, path := range []string{"/sweep/", "/jobs/"} {
		status, body := getRaw(t, ts.URL+path+sr.ID)
		check("poll "+path, status, http.StatusOK, body, base)
	}
	status, body = postRaw(t, ts.URL+"/sweep?prog=fig1", nil)
	hit := check("cache-served submit", status, http.StatusOK, body, base)
	if hit.State != stateDone {
		t.Fatalf("cache-served sweep is %q, want done", hit.State)
	}
}

// A store record whose CRC holds but whose document does not parse is a
// miss: the verdict is recomputed and served fresh, never spliced into a
// response as it stands.
func TestInvalidStoredVerdictIsAMiss(t *testing.T) {
	dir := t.TempDir()
	raw := fixture(t, "fig1_v2.trace")
	d, _ := trace.DigestOf(bytes.NewReader(raw))
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := d.String() + "|" + string(rader.SPPlus) + "|"
	if err := st.PutVerdict(&store.Verdict{
		Key: key, Digest: d.String(), Detector: string(rader.SPPlus),
		Report: []byte(`{"schema":5,"races":[`),
	}); err != nil {
		t.Fatal(err)
	}
	if rec, ok, err := st.GetVerdict(key); err != nil || !ok || json.Valid(rec.Report) {
		t.Fatalf("planted record not readable as an invalid document: ok=%v err=%v", ok, err)
	}

	_, ts := openDurable(t, dir, Config{Workers: 1})
	status, body := postRaw(t, ts.URL+"/analyze?detector=sp%2B", raw)
	if status != http.StatusOK {
		t.Fatalf("analyze: %d %s", status, body)
	}
	ar := decodeAnalyze(t, body)
	if ar.Cached {
		t.Fatal("an invalid stored document was served as a cache hit")
	}
	if want := localReplayDoc(t, raw, rader.SPPlus); !bytes.Equal(ar.Report, want) {
		t.Fatalf("recomputed verdict\n got  %s\n want %s", ar.Report, want)
	}
	// The recomputation overwrote the bad record.
	rec, ok, err := st.GetVerdict(key)
	if err != nil || !ok || !json.Valid(rec.Report) {
		t.Fatalf("store record after recompute: ok=%v err=%v valid=%v", ok, err, ok && json.Valid(rec.Report))
	}
}

// rawRequest writes a hand-built HTTP/1.1 request to the test server,
// half-closes the connection and returns the response status.
func rawRequest(t *testing.T, addr, req string) int {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// Only a body over MaxUploadBytes is 413; a body that ends before its
// declared length or mid-chunk is a malformed request, 400.
func TestUploadReadStatus(t *testing.T) {
	raw := fixture(t, "fig1_v2.trace")
	_, ts := newTestServer(t, Config{Workers: 1, MaxUploadBytes: int64(len(raw))})
	addr := strings.TrimPrefix(ts.URL, "http://")

	// The limit itself is admitted: an exact-size read, no spare byte.
	if status, body := postRaw(t, ts.URL+"/analyze", raw); status != http.StatusOK {
		t.Fatalf("upload at the limit: %d %s", status, body)
	}
	over := append(append([]byte{}, raw...), 0)
	if status, body := postRaw(t, ts.URL+"/analyze", over); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared length over the limit: %d %s", status, body)
	}
	// Without a Content-Length the limit is found while reading.
	resp, err := http.Post(ts.URL+"/analyze", "application/octet-stream", io.MultiReader(bytes.NewReader(over)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked upload over the limit: %d", resp.StatusCode)
	}

	head := "POST /analyze HTTP/1.1\r\nHost: raderd\r\n"
	short := head + "Content-Length: 100\r\n\r\n" + string(raw[:50])
	if status := rawRequest(t, addr, short); status != http.StatusBadRequest {
		t.Fatalf("body shorter than its Content-Length: %d, want 400", status)
	}
	aborted := head + "Transfer-Encoding: chunked\r\n\r\n64\r\n" + string(raw[:50])
	if status := rawRequest(t, addr, aborted); status != http.StatusBadRequest {
		t.Fatalf("chunked body cut mid-chunk: %d, want 400", status)
	}
}
