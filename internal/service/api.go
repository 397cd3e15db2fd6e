package service

import (
	"encoding/json"

	"repro/internal/obs"
)

// AnalyzeResponse is the envelope of POST /analyze. Report is the shared
// internal/report verdict document, kept as raw bytes so a client can
// re-emit it byte-for-byte identical to a local rader -json run.
type AnalyzeResponse struct {
	AnalyzeHeader
	// Report is the verdict document (report.Report, or report.Multi for
	// detector=all). The server writes it verbatim after the header
	// fields (see writeEnvelope).
	Report json.RawMessage `json:"report"`
}

// AnalyzeHeader is the part of the /analyze envelope that precedes the
// verdict document.
type AnalyzeHeader struct {
	// Digest is the SHA-256 content identity the result is cached under
	// (trace bytes for uploads, program identity for named programs).
	Digest string `json:"digest"`
	// Detector and Spec echo the analysed configuration.
	Detector string `json:"detector"`
	Spec     string `json:"spec,omitempty"`
	// Cached reports whether this verdict was served from the cache.
	Cached bool `json:"cached"`
	// DurationMS is the server-side analysis wall time; 0 for cache hits.
	DurationMS float64 `json:"durationMs"`
	// Clean mirrors report.clean for quick exit-code decisions.
	Clean bool `json:"clean"`
}

// SweepResponse is the envelope of POST /sweep and GET /sweep/{id}.
type SweepResponse struct {
	SweepHeader
	// Sweep is the verdict document (report.Sweep) once State is done,
	// written verbatim by the server.
	Sweep json.RawMessage `json:"sweep,omitempty"`
	// Progress is the job's live monotone progress, once any has been
	// reported (absent before the sweep announces its unit count).
	Progress *obs.ProgressSnapshot `json:"progress,omitempty"`
}

// SweepHeader is the part of the sweep envelope that precedes the
// verdict document.
type SweepHeader struct {
	ID      string `json:"id"`
	Program string `json:"program"`
	// State is queued, running, done, or failed.
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// JobEvent is one progress event of GET /jobs/{id}/events: the SSE
// "data:" payload, and the whole body of a ?wait= long-poll response.
// Progress fields are monotone across a job's event sequence; the stream
// ends with a terminal event whose State matches the final job status.
type JobEvent struct {
	ID       string               `json:"id"`
	State    string               `json:"state"`
	Error    string               `json:"error,omitempty"`
	Progress obs.ProgressSnapshot `json:"progress"`
}

// TraceStatusResponse is the envelope of PUT/HEAD /traces/{digest}: the
// durable state of a resumable upload. Offset is also mirrored in the
// Upload-Offset header so a HEAD (no body) carries it too.
type TraceStatusResponse struct {
	Digest string `json:"digest"`
	// Offset is the count of bytes durably received so far; a resuming
	// client continues from here.
	Offset int64 `json:"offset"`
	// Complete reports whether the trace has been verified and finalized
	// into the content-addressed store.
	Complete bool `json:"complete"`
}

// ErrorResponse is the body of every non-2xx JSON response.
type ErrorResponse struct {
	Error string `json:"error"`
}
