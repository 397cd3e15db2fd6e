package service

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Job states for async sweep jobs.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// sweepJob is one asynchronous §7 coverage sweep. The submit handler
// returns its ID immediately; clients poll GET /sweep/{id} (or stream
// GET /jobs/{id}/events) until the state is done or failed.
type sweepJob struct {
	mu       sync.Mutex
	id       string
	prog     string
	state    string
	err      string
	sweep    []byte // verdict document once done
	created  time.Time
	finished time.Time

	// spans is the encoded obs.SpanDoc of the server-side span tree once
	// the sweep finishes; spansKey is the store key it persists under
	// (programDigest|sweep), doubling as the fallback lookup for jobs
	// answered from the cache.
	spans    json.RawMessage
	spansKey string

	// progress is the job's monotone live-progress cell. Every job has
	// one from creation; finish() bumps it so streams waiting on the
	// change channel always observe the terminal transition.
	progress *obs.Progress
}

func (j *sweepJob) set(state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
	j.progress.Bump()
}

func (j *sweepJob) finish(sweep []byte, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	if err != nil {
		j.state = stateFailed
		j.err = err.Error()
	} else {
		j.state = stateDone
		j.sweep = sweep
	}
	j.mu.Unlock()
	// Wake event streams even when no counter moved (a cache-served or
	// failed job may finish without a single progress publish).
	j.progress.Bump()
}

// setSpans attaches the encoded server-side span tree.
func (j *sweepJob) setSpans(doc json.RawMessage) {
	j.mu.Lock()
	j.spans = doc
	j.mu.Unlock()
}

// setSpansKey records the store key the job's span tree lives under.
func (j *sweepJob) setSpansKey(key string) {
	j.mu.Lock()
	j.spansKey = key
	j.mu.Unlock()
}

func (j *sweepJob) spansDoc() (json.RawMessage, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spans, j.spansKey
}

// terminal reports whether the job has reached done or failed.
func (j *sweepJob) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == stateDone || j.state == stateFailed
}

// event renders the job's progress-event payload (the SSE/long-poll
// frame body).
func (j *sweepJob) event() JobEvent {
	snap, _, _ := j.progress.Load()
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobEvent{ID: j.id, State: j.state, Error: j.err, Progress: snap}
}

// view renders the job's poll response under its lock.
func (j *sweepJob) view() SweepResponse {
	snap, _, _ := j.progress.Load()
	j.mu.Lock()
	defer j.mu.Unlock()
	resp := SweepResponse{
		SweepHeader: SweepHeader{ID: j.id, Program: j.prog, State: j.state, Error: j.err},
		Sweep:       j.sweep,
	}
	if snap != (obs.ProgressSnapshot{}) {
		s := snap
		resp.Progress = &s
	}
	return resp
}

// jobTable tracks sweep jobs, bounding retention: once more than keep jobs
// are finished, the oldest finished jobs are dropped (pollers of a dropped
// ID get 404, the standard at-most-N retention contract).
type jobTable struct {
	mu   sync.Mutex
	seq  int
	keep int
	jobs map[string]*sweepJob
}

func newJobTable(keep int) *jobTable {
	if keep < 1 {
		keep = 64
	}
	return &jobTable{keep: keep, jobs: make(map[string]*sweepJob)}
}

func (t *jobTable) add(prog string) *sweepJob {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	j := &sweepJob{
		id: fmt.Sprintf("sweep-%d", t.seq), prog: prog, state: stateQueued,
		created: time.Now(), progress: obs.NewProgress(),
	}
	t.jobs[j.id] = j
	t.evictLocked()
	return j
}

func (t *jobTable) get(id string) (*sweepJob, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// states counts jobs by state for /metrics.
func (t *jobTable) states() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int, 4)
	for _, j := range t.jobs {
		j.mu.Lock()
		out[j.state]++
		j.mu.Unlock()
	}
	return out
}

// evictLocked drops the oldest finished jobs beyond the retention bound.
// Requires t.mu.
func (t *jobTable) evictLocked() {
	var finished []*sweepJob
	for _, j := range t.jobs {
		j.mu.Lock()
		if j.state == stateDone || j.state == stateFailed {
			finished = append(finished, j)
		}
		j.mu.Unlock()
	}
	if len(finished) <= t.keep {
		return
	}
	// Oldest finished first.
	for i := range finished {
		for k := i + 1; k < len(finished); k++ {
			if finished[k].finished.Before(finished[i].finished) {
				finished[i], finished[k] = finished[k], finished[i]
			}
		}
	}
	for _, j := range finished[:len(finished)-t.keep] {
		delete(t.jobs, j.id)
	}
}
