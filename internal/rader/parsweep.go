package rader

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cilk"
	"repro/internal/spplus"
)

// The work-stealing sweep scheduler. Each worker owns a deque of trie
// subtrees (sweep units) and runs the gated prefix-replay locally: the
// owner pushes and pops at the bottom, so its own traversal is
// depth-first — the unit it just forked children from is still hot, and
// its snapshot pages are still resident. An idle worker steals from the
// top of a victim's deque, which holds the *shallowest* pending subtree:
// the oldest fork point, covering the most leaf groups, so one steal
// moves the largest available slab of work and thieves go back to their
// own deques for as long as possible.
//
// A stolen unit carries its seed snapshot with it — the copy-on-write
// handoff: the victim captured the snapshot at the subtree's divergence
// probe, the thief restores from it and replays only the divergent
// suffix. Snapshots are refcounted; the last unit to restore from one
// retires its containers to that worker's free list, and the next capture
// on that worker reuses them via SnapshotInto. Detectors are pooled per
// worker the same way. The unit counter is a bare atomic (the lock-free
// termination detector); the deques are per-worker mutexes — sharded, so
// workers only contend when a steal actually happens.

// snapRef is a refcounted copy-on-write snapshot shared by the sibling
// units forked at one trie branch point.
type snapRef struct {
	snap *spplus.Snapshot
	refs atomic.Int32
}

func newSnapRef(snap *spplus.Snapshot, refs int) *snapRef {
	r := &snapRef{snap: snap}
	r.refs.Store(int32(refs))
	return r
}

// release drops one reference after a restore (or a deadline skip). The
// last releaser parks the snapshot's containers on its own worker's free
// list — safe because Restore copies state out of a snapshot, sharing
// only the immutable copy-on-write page buffers, which are never reused.
func (r *snapRef) release(w *sweepWorker) {
	if r == nil {
		return
	}
	if r.refs.Add(-1) == 0 {
		w.snapFree = append(w.snapFree, r.snap)
		r.snap = nil
	}
}

// sweepWorker is one scheduler lane: a deque of pending units plus the
// worker-local allocation pools the hot path draws from without locking.
type sweepWorker struct {
	id int

	mu    sync.Mutex
	deque []unitTask // [0] = shallowest (steal side), end = deepest (owner side)

	// detPool recycles detectors across this worker's units; snapFree
	// recycles retired snapshot containers for SnapshotInto; ex runs every
	// unit, reusing its frames and view slots. All are owner-only — no
	// other worker touches them.
	detPool  sync.Pool
	gate     *cilk.Gate
	snapFree []*spplus.Snapshot
	ex       cilk.Executor

	// busy is this lane's total unit time: thread CPU time where the host
	// exposes it (Linux), per-unit wall time elsewhere. CPU billing keeps
	// the critical path meaningful when lanes outnumber cores.
	busy   time.Duration
	pooled int // PagesPooled of the last detector this worker retired
}

// takeSnap pops a recycled snapshot container, nil when the list is dry
// (SnapshotInto then allocates fresh).
func (w *sweepWorker) takeSnap() *spplus.Snapshot {
	if n := len(w.snapFree); n > 0 {
		s := w.snapFree[n-1]
		w.snapFree = w.snapFree[:n-1]
		return s
	}
	return nil
}

// pop takes the deepest pending unit (owner side: LIFO, DFS locality).
func (w *sweepWorker) pop() (unitTask, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.deque)
	if n == 0 {
		return unitTask{}, false
	}
	t := w.deque[n-1]
	w.deque[n-1] = unitTask{}
	w.deque = w.deque[:n-1]
	return t, true
}

// stealTop takes the shallowest pending unit (thief side: FIFO).
func (w *sweepWorker) stealTop() (unitTask, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.deque) == 0 {
		return unitTask{}, false
	}
	t := w.deque[0]
	w.deque[0] = unitTask{}
	w.deque = w.deque[1:]
	return t, true
}

// wsSched coordinates the workers: a lock-free pending-unit counter for
// termination, and a condvar for parking idle workers between steals.
type wsSched struct {
	s       *prefixSweep
	workers []*sweepWorker

	pending          atomic.Int64
	steals, handoffs atomic.Int64

	mu   sync.Mutex
	cond *sync.Cond
	done bool
}

func newWSSched(s *prefixSweep, workers int) *wsSched {
	ws := &wsSched{s: s, workers: make([]*sweepWorker, workers)}
	ws.cond = sync.NewCond(&ws.mu)
	for i := range ws.workers {
		w := &sweepWorker{id: i, gate: cilk.NewGate(nil, false)}
		w.detPool.New = func() any { return spplus.New() }
		ws.workers[i] = w
	}
	return ws
}

// push makes t runnable on w's deque and wakes one parked worker. The
// pending increment precedes visibility, so the counter can never read
// zero while a pushed unit is still unclaimed.
func (ws *wsSched) push(w *sweepWorker, t unitTask) {
	ws.pending.Add(1)
	w.mu.Lock()
	w.deque = append(w.deque, t)
	w.mu.Unlock()
	ws.mu.Lock()
	ws.cond.Signal()
	ws.mu.Unlock()
}

// runAll runs one goroutine per worker until every unit has completed.
func (ws *wsSched) runAll() {
	var wg sync.WaitGroup
	for _, w := range ws.workers {
		wg.Add(1)
		go func(w *sweepWorker) {
			defer wg.Done()
			ws.run(w)
		}(w)
	}
	wg.Wait()
}

func (ws *wsSched) run(w *sweepWorker) {
	// Pin to an OS thread so threadCPU deltas across a unit are coherent.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for {
		t, ok := ws.next(w)
		if !ok {
			return
		}
		cpu0, cpuOK := threadCPU()
		start := time.Now()
		ws.s.runUnit(t, w)
		if cpu1, ok := threadCPU(); cpuOK && ok {
			w.busy += cpu1 - cpu0
		} else {
			w.busy += time.Since(start)
		}
		if ws.pending.Add(-1) == 0 {
			ws.mu.Lock()
			ws.done = true
			ws.cond.Broadcast()
			ws.mu.Unlock()
			return
		}
	}
}

// next returns the worker's next unit: its own deepest, else the
// shallowest stolen from a victim (scanned round-robin from its right
// neighbor), else it parks until a push or termination. Parking cannot
// lose a wakeup: push appends before signaling under ws.mu, and the
// parker rescans every deque while holding ws.mu before waiting.
func (ws *wsSched) next(w *sweepWorker) (unitTask, bool) {
	for {
		if t, ok := w.pop(); ok {
			return t, true
		}
		for off := 1; off < len(ws.workers); off++ {
			v := ws.workers[(w.id+off)%len(ws.workers)]
			if t, ok := v.stealTop(); ok {
				ws.steals.Add(1)
				if t.snap != nil {
					ws.handoffs.Add(1)
				}
				return t, true
			}
		}
		ws.mu.Lock()
		for !ws.done && !ws.available() {
			ws.cond.Wait()
		}
		done := ws.done
		ws.mu.Unlock()
		if done {
			return unitTask{}, false
		}
	}
}

// available reports whether any deque holds a unit.
func (ws *wsSched) available() bool {
	for _, w := range ws.workers {
		w.mu.Lock()
		n := len(w.deque)
		w.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}
