package cilk

import (
	"repro/internal/mem"
	"repro/internal/streamerr"
)

// Config selects the schedule and instrumentation for one run.
type Config struct {
	// Spec fixes the simulated schedule. nil means NoSteals: the plain
	// serial execution with only the leftmost view.
	Spec StealSpec
	// Hooks receives the instrumentation event stream. nil runs the
	// program with no instrumentation (the Figure 7 baseline).
	Hooks Hooks
	// EagerViews disables the runtime's lazy view creation: every
	// simulated steal immediately materializes identity views for all
	// registered reducers, instead of waiting for the first Update. The
	// paper's runtime is lazy (§1); this knob exists for the
	// BenchmarkAblationLazyViews comparison.
	EagerViews bool
}

// Result summarizes one run of a program.
type Result struct {
	Frames  int // Cilk function instantiations
	Spawns  int
	Syncs   int // explicit and implicit syncs executed
	Reduces int // reduce operations performed
	Views   int // parallel views created by simulated steals
	Steals  []ContInfo
	Loads   uint64
	Stores  uint64
	Reads   uint64 // reducer-reads (create, set-value, get-value)
	Updates uint64 // reducer Update operations
}

// Executor runs programs serially, one at a time. An Executor may be
// reused: each Run resets every per-run field, even after a run that
// panicked, but keeps the frame stack, the free view slots, the reducer
// handles and the capacity of Result.Steals, so a warmed Executor runs a
// program without allocating. Frames and reducer handles belong to the
// run that made them: the next Run on the same Executor recycles them, as
// it does the Steals slice of the previous Result. An Executor is not safe
// for concurrent use.
type Executor struct {
	spec     StealSpec
	rs       ReduceScheduler // spec as a ReduceScheduler, nil if it is not one
	order    ReduceOrder
	hooks    Hooks
	hasHooks bool

	nextFrame  FrameID
	nextView   ViewID
	contSeq    int
	reducers   []*Reducer
	viewAware  int
	eagerViews bool
	res        Result

	// frames[d] is the frame at depth d: a serial depth-first execution
	// has at most one live frame per depth, so newFrame resets it in place.
	frames []*Frame
	// freeSlots holds view slots emptied by reductions and runs, reused
	// by later steals.
	freeSlots []*viewSlot
}

// Run executes prog under cfg on a fresh Executor and returns the run
// summary.
func Run(prog func(*Ctx), cfg Config) *Result {
	res := new(Executor).Run(prog, cfg)
	return &res
}

// Run executes prog under cfg and returns the run summary. The summary's
// Steals slice is reused by the next Run on ex.
func (ex *Executor) Run(prog func(*Ctx), cfg Config) Result {
	ex.spec, ex.hooks, ex.eagerViews = cfg.Spec, cfg.Hooks, cfg.EagerViews
	if ex.spec == nil {
		ex.spec = NoSteals{}
	}
	ex.rs, _ = ex.spec.(ReduceScheduler)
	ex.order = ex.spec.Order()
	ex.hasHooks = cfg.Hooks != nil
	ex.nextFrame, ex.nextView, ex.contSeq, ex.viewAware = 0, 0, 0, 0
	ex.reducers = ex.reducers[:0]
	ex.res = Result{Steals: ex.res.Steals[:0]}

	root := ex.newFrame(nil, "main", false)
	root.slots = append(root.slots, ex.newSlot(0))
	if ex.hasHooks {
		ex.hooks.ProgramStart(root)
		ex.hooks.FrameEnter(root)
	}
	prog(&root.ctx)
	ex.exitFrame(root)
	if ex.hasHooks {
		ex.hooks.ProgramEnd(root)
	}
	ex.freeSlot(root.slots[0])
	return ex.res
}

// newFrame resets the frame at the child's depth in place and returns it.
// Its slot stack keeps its capacity. Every field is reset field by field,
// which is cheaper than copying a whole Frame over it.
func (ex *Executor) newFrame(parent *Frame, label string, spawned bool) *Frame {
	d := 0
	if parent != nil {
		d = parent.Depth + 1
	}
	if d == len(ex.frames) {
		f := new(Frame)
		f.ctx = Ctx{ex: ex, frame: f}
		ex.frames = append(ex.frames, f)
	}
	f := ex.frames[d]
	f.ID, f.Parent, f.Label, f.Spawned, f.Depth = ex.nextFrame, parent, label, spawned, d
	f.SyncBlock, f.LocalSpawns, f.TotalSpawns, f.AncestorSpawns = 0, 0, 0, 0
	f.everSpawned = false
	f.slots = f.slots[:0]
	ex.nextFrame++
	ex.res.Frames++
	if parent != nil {
		f.AncestorSpawns = parent.AncestorSpawns + parent.LocalSpawns
		f.slots = append(f.slots, parent.top())
	}
	return f
}

// newSlot returns an empty view slot for view vid, recycled when one is
// free.
func (ex *Executor) newSlot(vid ViewID) *viewSlot {
	if n := len(ex.freeSlots); n > 0 {
		s := ex.freeSlots[n-1]
		ex.freeSlots = ex.freeSlots[:n-1]
		s.vid = vid
		return s
	}
	return &viewSlot{vid: vid}
}

// freeSlot empties s, dropping its views, and makes it available to
// newSlot.
func (ex *Executor) freeSlot(s *viewSlot) {
	clear(s.views)
	s.views = s.views[:0]
	ex.freeSlots = append(ex.freeSlots, s)
}

// exitFrame performs the implicit sync of a returning Cilk function and
// emits FrameReturn. Every function that spawned must sync before it
// returns (§2); functions that never spawned return as a single strand.
func (ex *Executor) exitFrame(f *Frame) {
	if f.everSpawned {
		ex.syncFrame(f)
	}
	if len(f.slots) != 1 {
		panic(streamerr.Errorf("cilk", streamerr.KindState,
			"frame %v returning with %d unreduced views", f, len(f.slots)-1).WithFrame(int64(f.ID)))
	}
	if f.Parent != nil && ex.hasHooks {
		ex.hooks.FrameReturn(f, f.Parent)
	}
}

// syncFrame executes a cilk_sync in f: it forces every outstanding reduce
// operation of the sync block (view invariant 3), then emits the Sync event
// and opens the next sync block.
func (ex *Executor) syncFrame(f *Frame) {
	if ex.viewAware > 0 {
		panic(streamerr.Errorf("cilk", streamerr.KindState,
			"sync inside a view-aware operation").WithFrame(int64(f.ID)))
	}
	if ex.order == ReduceMiddleFirst && len(f.slots) >= 3 {
		ex.reducePairAt(f, 1)
	}
	for len(f.slots) > 1 {
		ex.reducePairAt(f, len(f.slots)-2)
	}
	f.SyncBlock++
	f.LocalSpawns = 0
	ex.res.Syncs++
	if ex.hasHooks {
		ex.hooks.Sync(f)
	}
}

// reducePairAt reduces the adjacent pair of views slots[i] (dominating,
// surviving) and slots[i+1] (dominated, destroyed: its slot goes back to
// the free list). The ReduceStart event
// precedes the user Reduce code so the SP+ P-bag union happens first (§6).
func (ex *Executor) reducePairAt(f *Frame, i int) {
	keep, die := f.slots[i], f.slots[i+1]
	if ex.hasHooks {
		ex.hooks.ReduceStart(f, keep.vid, die.vid)
	}
	for _, e := range die.views {
		r, rv := e.r, e.v
		if lv, ok := keep.get(r); ok {
			ex.beginViewAware(f, OpReduce, r)
			nv := r.m.Combine(&f.ctx, lv, rv)
			ex.endViewAware(f, OpReduce, r)
			keep.set(r, nv)
		} else {
			// The dominating context never touched this reducer; the
			// dominated view transfers wholesale, no user code runs.
			keep.set(r, rv)
		}
	}
	f.slots = append(f.slots[:i+1], f.slots[i+2:]...)
	ex.freeSlot(die)
	ex.res.Reduces++
	if ex.hasHooks {
		ex.hooks.ReduceEnd(f)
	}
}

func (ex *Executor) beginViewAware(f *Frame, op ViewOp, r *Reducer) {
	ex.viewAware++
	if ex.hasHooks {
		ex.hooks.ViewAwareBegin(f, op, r)
	}
}

func (ex *Executor) endViewAware(f *Frame, op ViewOp, r *Reducer) {
	if ex.hasHooks {
		ex.hooks.ViewAwareEnd(f, op, r)
	}
	ex.viewAware--
}

// Ctx is the handle a Cilk function uses to spawn, sync, access
// instrumented memory and operate on reducers. Each frame has its own Ctx;
// user code receives it as the first argument of every Cilk function body.
type Ctx struct {
	ex    *Executor
	frame *Frame
}

// Frame returns the Cilk function instantiation this context belongs to.
func (c *Ctx) Frame() *Frame { return c.frame }

// Spawn executes body as a spawned child Cilk function (cilk_spawn). The
// serial executor runs the child to completion and then evaluates whether
// the steal specification steals the continuation; if so a fresh identity
// view context begins (view invariant 2).
func (c *Ctx) Spawn(label string, body func(*Ctx)) {
	ex := c.ex
	if ex.viewAware > 0 {
		panic(streamerr.Errorf("cilk", streamerr.KindState,
			"spawn inside a view-aware operation").WithFrame(int64(c.frame.ID)))
	}
	f := c.frame
	f.LocalSpawns++
	f.TotalSpawns++
	f.everSpawned = true
	ex.res.Spawns++

	child := ex.newFrame(f, label, true)
	if ex.hasHooks {
		ex.hooks.FrameEnter(child)
	}
	body(&child.ctx)
	ex.exitFrame(child)

	ex.contSeq++
	ci := ContInfo{
		Frame:     f,
		Label:     f.Label,
		Depth:     f.Depth,
		SyncBlock: f.SyncBlock,
		Index:     f.LocalSpawns,
		Seq:       ex.contSeq,
		PDepth:    f.AncestorSpawns + f.LocalSpawns,
	}

	if ex.spec.ShouldSteal(ci) {
		ex.nextView++
		ns := ex.newSlot(ex.nextView)
		f.slots = append(f.slots, ns)
		ex.res.Views++
		// The frame is recycled once it returns; a recorded steal keeps
		// only the copied fields.
		rec := ci
		rec.Frame = nil
		ex.res.Steals = append(ex.res.Steals, rec)
		if ex.hasHooks {
			ex.hooks.ContinuationStolen(f, ns.vid)
		}
		if ex.eagerViews {
			for _, r := range ex.reducers {
				f.ctx.createIdentity(r, ns)
			}
		}
	}

	// Reduction scheduling. A view may be reduced only once no live strand
	// will use it again, so mid-execution reductions always exclude the
	// top view — the continuation now executing (stolen or not) holds it.
	// Views strictly below the top are complete in serial order, so
	// collapsing them corresponds to a real schedule in which their
	// subcomputations joined. A ReduceScheduler spec dictates exactly how
	// many pairs to collapse; the eager policy collapses all of them, as
	// the stock runtime's opportunistic reduction would.
	if ex.rs != nil {
		for n := ex.rs.ReducesAfterReturn(ci); n > 0 && len(f.slots) > 2; n-- {
			ex.reducePairAt(f, len(f.slots)-3)
		}
	} else if ex.order == ReduceEager {
		for len(f.slots) > 2 {
			ex.reducePairAt(f, len(f.slots)-3)
		}
	}
}

// Call executes body as a called (not spawned) child Cilk function.
func (c *Ctx) Call(label string, body func(*Ctx)) {
	ex := c.ex
	if ex.viewAware > 0 {
		panic(streamerr.Errorf("cilk", streamerr.KindState,
			"call inside a view-aware operation").WithFrame(int64(c.frame.ID)))
	}
	child := ex.newFrame(c.frame, label, false)
	if ex.hasHooks {
		ex.hooks.FrameEnter(child)
	}
	body(&child.ctx)
	ex.exitFrame(child)
}

// Sync executes a cilk_sync: all previously spawned children of this frame
// have returned (trivially true in serial order) and all parallel views of
// the sync block are reduced.
func (c *Ctx) Sync() {
	c.ex.syncFrame(c.frame)
}

// ParFor executes body(i) for i in [0, n) as a cilk_for with automatic
// grain size, expanding to the standard divide-and-conquer spawn tree.
func (c *Ctx) ParFor(label string, n int, body func(*Ctx, int)) {
	grain := n / 256
	if grain < 1 {
		grain = 1
	}
	c.ParForGrain(label, n, grain, body)
}

// ParForGrain is ParFor with an explicit grain size: leaves of the spawn
// tree execute up to grain consecutive iterations serially.
func (c *Ctx) ParForGrain(label string, n, grain int, body func(*Ctx, int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	c.Call(label, func(cc *Ctx) {
		parforRec(cc, label, 0, n, grain, body)
	})
}

func parforRec(c *Ctx, label string, lo, hi, grain int, body func(*Ctx, int)) {
	if hi-lo <= grain {
		for i := lo; i < hi; i++ {
			body(c, i)
		}
		return
	}
	mid := lo + (hi-lo)/2
	c.Spawn(label, func(cc *Ctx) {
		parforRec(cc, label, lo, mid, grain, body)
	})
	c.Call(label, func(cc *Ctx) {
		parforRec(cc, label, mid, hi, grain, body)
	})
	c.Sync()
}

// Load reports a read of address a by the currently executing strand.
func (c *Ctx) Load(a mem.Addr) {
	c.ex.res.Loads++
	if c.ex.hasHooks {
		c.ex.hooks.Load(c.frame, a)
	}
}

// Store reports a write of address a by the currently executing strand.
func (c *Ctx) Store(a mem.Addr) {
	c.ex.res.Stores++
	if c.ex.hasHooks {
		c.ex.hooks.Store(c.frame, a)
	}
}

// LoadRange reports reads of n consecutive addresses starting at a.
func (c *Ctx) LoadRange(a mem.Addr, n int) {
	for i := 0; i < n; i++ {
		c.Load(a + mem.Addr(i))
	}
}

// StoreRange reports writes of n consecutive addresses starting at a.
func (c *Ctx) StoreRange(a mem.Addr, n int) {
	for i := 0; i < n; i++ {
		c.Store(a + mem.Addr(i))
	}
}

// NewReducer declares a reducer hyperobject with the given monoid and
// initial (leftmost-view) value. Declaring a reducer is a reducer-read in
// the paper's sense, as is SetValue and Value; only Update and the
// runtime-invoked Create-Identity and Reduce operate on views.
func (c *Ctx) NewReducer(name string, m Monoid, initial any) *Reducer {
	r := c.NewReducerQuiet(name, m, initial)
	c.ex.res.Reads++
	if c.ex.hasHooks {
		c.ex.hooks.ReducerCreate(c.frame, r)
	}
	return r
}

// NewReducerQuiet declares a reducer without emitting the ReducerCreate
// (reducer-read) event, modeling a reducer constructed outside the measured
// computation — for instance a global reducer built before the Cilk region
// starts. Test fixtures use it to probe specific reducer-read pairs without
// the construction read participating.
func (c *Ctx) NewReducerQuiet(name string, m Monoid, initial any) *Reducer {
	ex := c.ex
	idx := len(ex.reducers)
	var r *Reducer
	if idx < cap(ex.reducers) {
		r = ex.reducers[:idx+1][idx]
	}
	if r == nil {
		r = new(Reducer)
	}
	*r = Reducer{Name: name, m: m, idx: idx}
	ex.reducers = append(ex.reducers, r)
	c.frame.top().set(r, initial)
	return r
}

// SetValue resets the reducer's current view to v (a reducer-read).
func (c *Ctx) SetValue(r *Reducer, v any) {
	c.ex.res.Reads++
	if c.ex.hasHooks {
		c.ex.hooks.ReducerRead(c.frame, r)
	}
	c.frame.top().set(r, v)
}

// Value retrieves the reducer's current view (a reducer-read, the paper's
// get_value). If the current view context has no view yet — which is
// exactly the situation where the retrieved value is schedule-dependent —
// an identity view materializes first.
func (c *Ctx) Value(r *Reducer) any {
	ex := c.ex
	ex.res.Reads++
	if ex.hasHooks {
		ex.hooks.ReducerRead(c.frame, r)
	}
	slot := c.frame.top()
	v, ok := slot.get(r)
	if !ok {
		v = c.createIdentity(r, slot)
	}
	return v
}

// Update applies body to the reducer's current view and stores the result
// back. If the current view context has no view for r — the first Update
// after a simulated steal — Create-Identity runs first, lazily, exactly as
// the runtime does (§2).
func (c *Ctx) Update(r *Reducer, body func(c *Ctx, view any) any) {
	ex := c.ex
	ex.res.Updates++
	slot := c.frame.top()
	v, ok := slot.get(r)
	if !ok {
		v = c.createIdentity(r, slot)
	}
	ex.beginViewAware(c.frame, OpUpdate, r)
	nv := body(c, v)
	ex.endViewAware(c.frame, OpUpdate, r)
	slot.set(r, nv)
}

func (c *Ctx) createIdentity(r *Reducer, slot *viewSlot) any {
	c.ex.beginViewAware(c.frame, OpCreateIdentity, r)
	v := r.m.Identity(c)
	c.ex.endViewAware(c.frame, OpCreateIdentity, r)
	slot.set(r, v)
	return v
}

// CurrentVID returns the view ID of the currently executing strand's view
// context, mainly for tests and the DAG recorder.
func (c *Ctx) CurrentVID() ViewID { return c.frame.CurrentVID() }
