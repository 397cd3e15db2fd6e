package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// sseKeepalive is how often an idle event stream emits a comment frame so
// intermediaries don't reap the connection.
const sseKeepalive = 15 * time.Second

// longPollWindow bounds one ?wait=1 long-poll: the request returns the
// current event no later than this even if nothing changed.
const longPollWindow = 25 * time.Second

// handleJobs dispatches the /jobs/{id}[...] surface:
//
//	GET /jobs/{id}         job status (alias of GET /sweep/{id})
//	GET /jobs/{id}/trace   server-side span tree (?format=spans|chrome)
//	GET /jobs/{id}/events  SSE progress stream (?wait=1 for one long-poll)
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET /jobs/{id}[/trace|/events]")
		return
	}
	job, ok := s.jobs.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q (finished jobs are retained up to a bound)", id)
		return
	}
	switch sub {
	case "":
		writeJobView(w, http.StatusOK, job)
	case "trace":
		s.handleJobTrace(w, r, job)
	case "events":
		s.handleJobEvents(w, r, job)
	default:
		writeErr(w, http.StatusNotFound, "unknown job subresource %q (trace, events)", sub)
	}
}

// handleJobTrace serves the job's server-side span tree. A job answered
// from the cache never ran, so it falls back to the tree persisted by the
// sweep that computed the cached verdict.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request, job *sweepJob) {
	doc, key := job.spansDoc()
	if doc == nil && key != "" {
		if d, ok := s.lookupSpans(key); ok {
			doc = d
		}
	}
	if doc == nil {
		writeErr(w, http.StatusNotFound,
			"no span tree for this job yet (it appears when the sweep finishes)")
		return
	}
	writeSpanDoc(w, r, doc)
}

// handleJobEvents streams the job's monotone progress. Default transport
// is Server-Sent Events: one "progress" event per change, ending with a
// terminal "end" event whose state matches the final job status. ?wait=1
// is the long-poll fallback for clients without SSE: it returns one
// JobEvent as plain JSON, blocking up to longPollWindow for a change past
// the version the client echoes in ?ver=.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, job *sweepJob) {
	s.metrics.eventStream()
	if r.URL.Query().Get("wait") == "1" {
		s.longPollEvent(w, r, job)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		// No streaming support under this writer: degrade to one snapshot.
		writeJSON(w, http.StatusOK, job.event())
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	keep := time.NewTicker(sseKeepalive)
	defer keep.Stop()
	for {
		_, ver, wake := job.progress.Load()
		ev := job.event()
		terminal := ev.State == stateDone || ev.State == stateFailed
		name := "progress"
		if terminal {
			name = "end"
		}
		if err := writeSSE(w, name, ev); err != nil {
			return
		}
		fl.Flush()
		if terminal {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
			// Re-read and emit. ver is only used to detect that the load
			// and the wake channel belong together; the loop re-Loads.
			_ = ver
		case <-keep.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// longPollEvent answers one ?wait=1 request: if the client echoes the
// version of its last event in ?ver=, the response blocks until the job
// changes past it (or the window closes); without ?ver= it returns the
// current event immediately.
func (s *Server) longPollEvent(w http.ResponseWriter, r *http.Request, job *sweepJob) {
	snapVer := r.URL.Query().Get("ver")
	deadline := time.NewTimer(longPollWindow)
	defer deadline.Stop()
	for {
		_, ver, wake := job.progress.Load()
		cur := fmt.Sprintf("%d", ver)
		if snapVer == "" || cur != snapVer || job.terminal() {
			ev := job.event()
			w.Header().Set("X-Job-Event-Version", cur)
			writeJSON(w, http.StatusOK, ev)
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-deadline.C:
			ev := job.event()
			w.Header().Set("X-Job-Event-Version", cur)
			writeJSON(w, http.StatusOK, ev)
			return
		case <-wake:
		}
	}
}

// writeSSE emits one SSE frame: event name plus the JSON payload.
func writeSSE(w http.ResponseWriter, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}
