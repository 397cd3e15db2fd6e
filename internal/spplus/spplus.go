// Package spplus implements the SP+ algorithm (§5–§6 of the paper), which
// detects determinacy races in Cilk computations that use reducer
// hyperobjects. SP+ extends SP-bags in two ways:
//
//  1. Each function's single P bag becomes a *stack* of P bags, one per
//     unreduced parallel view of the function's current sync block. Each P
//     bag carries the view ID minted when the corresponding continuation
//     was stolen (per the steal specification); the P bags partition the
//     function's parallel completed descendants by the view their initial
//     strands share.
//  2. Memory-access checks distinguish view-oblivious from view-aware
//     strands. For a view-oblivious access, logical parallelism alone is a
//     race, exactly as in SP-bags. For a view-aware access (inside Update,
//     Create-Identity or Reduce), a race additionally requires the two
//     strands to operate on *parallel views* — their view IDs must differ —
//     because two strands sharing a view are necessarily executed by one
//     worker between steals and thus serialized in this schedule (§5).
//
// Executing a stolen continuation pushes a fresh P bag with a new view ID;
// executing a Reduce pops the dominated view's P bag and unions it into the
// dominating one *before* the user Reduce code runs, so the reduce strand's
// accesses are in series with the descendants in both bags and carry the
// surviving view ID (§6). At a sync all parallel views have been reduced
// and a single P bag remains, restoring the SP-bags invariant.
//
// Given the steal specification, SP+ reports a determinacy race iff the
// fixed execution contains one (§6), in time O((T + Mτ)·α(v,v)) for a
// program with running time T, M specified steals and worst-case reduce
// cost τ (Theorem 5).
package spplus

import (
	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/dsu"
	"repro/internal/mem"
	"repro/internal/obs"
)

type bagKind int8

const (
	kindS bagKind = iota
	kindP
)

// bagAttr is a bag's kind and view ID. A P bag's view ID is set at
// creation and preserved across unions into it, mirroring Figure 6's
// MakeBag note.
type bagAttr struct {
	kind bagKind
	vid  cilk.ViewID
}

// frameRec is one function on the call stack. Its P stack is the run
// pstack[p:] of the detector's shared P-stack slice, ending where the next
// frame's begins: only the top frame's P stack ever changes.
type frameRec struct {
	id    cilk.FrameID
	label string
	elem  dsu.Elem
	s     dsu.Bag
	p     int
}

// Detector runs SP+ over the cilk event stream of one run. Its bags, frame
// records and P stacks live in flat slices, so a snapshot is a set of
// slice copies and a warmed detector allocates nothing per frame.
type Detector struct {
	bags   dsu.Bags[bagAttr]
	stack  []frameRec
	pstack []dsu.Bag // every frame's P stack, bottom frame first
	reader *mem.Shadow
	writer *mem.Shadow
	lin    core.Lineage
	report core.Report

	// view-aware section state
	vaDepth   int
	vaOp      cilk.ViewOp
	vaReducer *cilk.Reducer
	// inReduce marks that the executing strand is a runtime Reduce
	// invocation; reduceVID is the surviving view ID of that reduction,
	// which is the strand's view context (Top(F.P).vid in Figure 6's
	// top-pair case, generalized for non-top adjacent reductions).
	// reduceElem is the reduce invocation's own ID: the paper treats each
	// Reduce as a function instantiation of its own, and its ID must live
	// in the merged P bag — the reduce strand is in series with the
	// descendants it joins but parallel to the frame's newer view
	// contexts, so parking it in the frame's S bag would wrongly
	// serialize it with everything that follows.
	inReduce   bool
	reduceVID  cilk.ViewID
	reduceElem dsu.Elem
	// reduceLabel caches reduceOf+"/reduce", the lineage label of a reduce
	// invocation in a frame labelled reduceOf: a frame reduces once per
	// stolen view, and the label need not be rebuilt each time.
	reduceOf, reduceLabel string

	// readerEv/writerEv shadow the same locations with the detector-relative
	// event ordinal of the recorded access, so a race report can point back
	// into the stream. Ordinals are truncated to int32 — adequate for any
	// trace the shadow space itself can hold.
	readerEv *mem.Shadow
	writerEv *mem.Shadow

	counts obs.EventCounts
	events int64 // ordinal of the event being processed (1-based)
}

// New returns a fresh SP+ detector.
func New() *Detector {
	return &Detector{
		reader:   mem.NewShadow(int32(dsu.None)),
		writer:   mem.NewShadow(int32(dsu.None)),
		readerEv: mem.NewShadow(0),
		writerEv: mem.NewShadow(0),
	}
}

// Name implements core.Detector.
func (d *Detector) Name() string { return "sp+" }

// Report implements core.Detector.
func (d *Detector) Report() *core.Report { return &d.report }

// top is the executing frame; the pointer is valid until the stack grows.
func (d *Detector) top() *frameRec { return &d.stack[len(d.stack)-1] }

// topP is the executing frame's top P bag.
func (d *Detector) topP() dsu.Bag { return d.pstack[len(d.pstack)-1] }

// ProgramStart implements cilk.Hooks.
func (d *Detector) ProgramStart(*cilk.Frame) {}

// ProgramEnd implements cilk.Hooks.
func (d *Detector) ProgramEnd(*cilk.Frame) {}

// FrameEnter implements Figure 6's "F spawns or calls G": G's S bag
// contains G and inherits the parent's current view ID; G's P stack starts
// with one empty bag of the same view ID.
func (d *Detector) FrameEnter(f *cilk.Frame) {
	d.events++
	d.counts.FrameEnters++
	var inherit cilk.ViewID
	parent := core.NoParent
	if len(d.stack) > 0 {
		inherit = d.bags.Attr(d.topP()).vid
		parent = int32(d.top().elem)
	}
	s := d.bags.New(bagAttr{kind: kindS, vid: inherit})
	elem := d.bags.Add(s)
	d.stack = append(d.stack, frameRec{id: f.ID, label: f.Label, elem: elem, s: s, p: len(d.pstack)})
	d.pstack = append(d.pstack, d.bags.New(bagAttr{kind: kindP, vid: inherit}))
	d.lin.Add(int32(elem), f.ID, f.Label, parent)
}

// FrameReturn implements "spawned G returns" (Top(F.P) ∪= G.S) and
// "called G returns" (F.S ∪= G.S). G's bags go back to the table; its P
// bag keeps its slot if a malformed stream left it non-empty.
func (d *Detector) FrameReturn(g, f *cilk.Frame) {
	d.events++
	d.counts.FrameReturns++
	if len(d.stack) < 2 {
		panic(core.Violatef("spplus", core.StreamOrder, g.ID,
			"return of frame %d with %d frames on the stack", g.ID, len(d.stack)))
	}
	grec := *d.top()
	if grec.id != g.ID {
		panic(core.Violatef("spplus", core.StreamOrder, g.ID,
			"event order violation: return %d, top %d", g.ID, grec.id))
	}
	if n := len(d.pstack) - grec.p; n != 1 {
		panic(core.Violatef("spplus", core.StreamState, g.ID,
			"%v returned with %d P bags", g, n))
	}
	gp := d.pstack[grec.p]
	d.stack = d.stack[:len(d.stack)-1]
	d.pstack = d.pstack[:grec.p]
	if g.Spawned {
		d.bags.UnionInto(d.topP(), grec.s)
	} else {
		d.bags.UnionInto(d.top().s, grec.s)
	}
	d.bags.Release(grec.s)
	d.bags.Release(gp)
}

// Sync implements "F syncs": the single remaining P bag's contents move
// into F.S, and the emptied bag serves as F's fresh P bag. It already
// carries F.S's view ID: the bottom P bag is made with it at FrameEnter and
// no reduce ever removes it.
func (d *Detector) Sync(f *cilk.Frame) {
	d.events++
	d.counts.Syncs++
	if len(d.stack) == 0 {
		panic(core.Violatef("spplus", core.StreamOrder, f.ID, "sync before any frame entered"))
	}
	rec := d.top()
	if n := len(d.pstack) - rec.p; n != 1 {
		panic(core.Violatef("spplus", core.StreamState, f.ID,
			"sync with %d P bags; reduces must precede sync", n))
	}
	d.bags.UnionInto(rec.s, d.pstack[rec.p])
}

// ContinuationStolen implements "F executes a stolen continuation": push a
// fresh P bag carrying the new view ID.
func (d *Detector) ContinuationStolen(f *cilk.Frame, newVID cilk.ViewID) {
	d.events++
	d.counts.Steals++
	if len(d.stack) == 0 {
		panic(core.Violatef("spplus", core.StreamOrder, f.ID, "stolen continuation before any frame entered"))
	}
	d.pstack = append(d.pstack, d.bags.New(bagAttr{kind: kindP, vid: newVID}))
}

// ReduceStart implements "F executes Reduce": the dominated view's P bag is
// popped and unioned into the dominating view's bag, whose view ID is
// preserved. This happens before the user Reduce code runs, so the reduce
// strand is in series with the descendants in both bags. The executor may
// reduce a non-top adjacent pair (ReduceMiddleFirst); the bags are located
// by their view IDs.
func (d *Detector) ReduceStart(f *cilk.Frame, keepVID, dieVID cilk.ViewID) {
	d.events++
	d.counts.Reduces++
	if len(d.stack) == 0 {
		panic(core.Violatef("spplus", core.StreamOrder, f.ID, "reduce before any frame entered"))
	}
	rec := d.top()
	idx := -1
	for i := len(d.pstack) - 1; i > rec.p; i-- {
		if d.bags.Attr(d.pstack[i]).vid == dieVID && d.bags.Attr(d.pstack[i-1]).vid == keepVID {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(core.Violatef("spplus", core.StreamState, f.ID,
			"reduce of unknown view pair (%d,%d)", keepVID, dieVID))
	}
	keep, die := d.pstack[idx-1], d.pstack[idx]
	d.bags.UnionInto(keep, die)
	d.bags.Release(die)
	d.pstack = append(d.pstack[:idx], d.pstack[idx+1:]...)
	d.inReduce = true
	d.reduceVID = keepVID
	// The reduce invocation's own ID joins the merged bag: in series with
	// everything the reduction joins, parallel to the frame's other views.
	d.reduceElem = d.bags.Add(keep)
	if d.reduceLabel == "" || d.reduceOf != f.Label {
		d.reduceOf, d.reduceLabel = f.Label, f.Label+"/reduce"
	}
	d.lin.Add(int32(d.reduceElem), f.ID, d.reduceLabel, int32(rec.elem))
}

// ReduceEnd implements cilk.Hooks.
func (d *Detector) ReduceEnd(f *cilk.Frame) {
	d.events++
	d.inReduce = false
	d.reduceElem = dsu.None
}

// ViewAwareBegin implements cilk.Hooks: accesses until ViewAwareEnd come
// from a view-aware strand.
func (d *Detector) ViewAwareBegin(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer) {
	d.events++
	d.counts.ViewAwares++
	d.vaDepth++
	d.vaOp = op
	d.vaReducer = r
}

// ViewAwareEnd implements cilk.Hooks.
func (d *Detector) ViewAwareEnd(f *cilk.Frame, op cilk.ViewOp, r *cilk.Reducer) {
	d.events++
	d.vaDepth--
	if d.vaDepth == 0 {
		// Leave no residue of the section behind: a race on a later
		// view-oblivious access records no ViewOp, live or restored.
		d.vaOp, d.vaReducer = 0, nil
	}
}

// ReducerCreate implements cilk.Hooks; reducer-reads are the Peer-Set
// algorithm's concern, not SP+'s.
func (d *Detector) ReducerCreate(*cilk.Frame, *cilk.Reducer) {}

// ReducerRead implements cilk.Hooks.
func (d *Detector) ReducerRead(*cilk.Frame, *cilk.Reducer) {}

// currentVID is the view ID of the executing strand's view context: the
// surviving view for a reduce strand, the top P bag's view otherwise.
func (d *Detector) currentVID() cilk.ViewID {
	if d.inReduce {
		return d.reduceVID
	}
	return d.bags.Attr(d.topP()).vid
}

// curElem is the ID recorded in the shadow spaces for the executing
// strand: the reduce invocation's own ID inside a Reduce, the enclosing
// function's otherwise.
func (d *Detector) curElem() dsu.Elem {
	if d.inReduce {
		return d.reduceElem
	}
	return d.top().elem
}

// race reports a determinacy race at a between the prior access of
// element prev, whose event ordinal ev recorded, and the executing
// strand's access. The report admits the race on its dedup key first, so
// only a race it keeps pays for rendering both accesses.
func (d *Detector) race(a mem.Addr, prev dsu.Elem, firstOp, secondOp core.AccessOp, ev *mem.Shadow, relation string) {
	p, e := int32(prev), int32(d.curElem())
	if !d.report.Admit(core.Determinacy, a, "", d.lin.Frame(p), d.lin.Frame(e)) {
		return
	}
	d.report.Keep(core.Race{
		Kind: core.Determinacy, Addr: a,
		First: core.Access{Frame: d.lin.Frame(p), Label: d.lin.Label(p), Path: d.lin.Path(p), Op: firstOp},
		Second: core.Access{
			Frame: d.lin.Frame(e), Label: d.lin.Label(e), Path: d.lin.Path(e), Op: secondOp,
			ViewAware: d.vaDepth > 0, ViewOp: d.vaOp, VID: d.currentVID(),
		},
		Prov: core.Provenance{FirstEvent: int64(ev.Get(a)), SecondEvent: d.events, Relation: relation},
	})
}

// Load implements the two read rules of Figure 6.
func (d *Detector) Load(f *cilk.Frame, a mem.Addr) {
	d.events++
	d.counts.Loads++
	if len(d.stack) == 0 {
		panic(core.Violatef("spplus", core.StreamOrder, f.ID, "memory access before any frame entered"))
	}
	d.counts.ShadowLookups += 2
	if d.vaDepth == 0 {
		d.loadOblivious(a)
	} else {
		d.loadAware(a)
	}
}

// Store implements the two write rules of Figure 6.
func (d *Detector) Store(f *cilk.Frame, a mem.Addr) {
	d.events++
	d.counts.Stores++
	if len(d.stack) == 0 {
		panic(core.Violatef("spplus", core.StreamOrder, f.ID, "memory access before any frame entered"))
	}
	d.counts.ShadowLookups += 2
	if d.vaDepth == 0 {
		d.storeOblivious(a)
	} else {
		d.storeAware(a)
	}
}

func (d *Detector) loadOblivious(a mem.Addr) {
	if w := dsu.Elem(d.writer.Get(a)); w != dsu.None && d.bags.AttrOf(w).kind == kindP {
		d.race(a, w, core.OpWrite, core.OpRead, d.writerEv, "writer in P-bag")
	}
	if r := dsu.Elem(d.reader.Get(a)); r == dsu.None || d.bags.AttrOf(r).kind == kindS {
		d.reader.Set(a, int32(d.curElem()))
		d.readerEv.Set(a, int32(d.events))
	}
}

func (d *Detector) storeOblivious(a mem.Addr) {
	if r := dsu.Elem(d.reader.Get(a)); r != dsu.None && d.bags.AttrOf(r).kind == kindP {
		d.race(a, r, core.OpRead, core.OpWrite, d.readerEv, "reader in P-bag")
	}
	w := dsu.Elem(d.writer.Get(a))
	if w != dsu.None && d.bags.AttrOf(w).kind == kindP {
		d.race(a, w, core.OpWrite, core.OpWrite, d.writerEv, "writer in P-bag")
	}
	if w == dsu.None || d.bags.AttrOf(w).kind == kindS {
		d.writer.Set(a, int32(d.curElem()))
		d.writerEv.Set(a, int32(d.events))
	}
}

func (d *Detector) loadAware(a mem.Addr) {
	vid := d.currentVID()
	if w := dsu.Elem(d.writer.Get(a)); w != dsu.None {
		if b := d.bags.AttrOf(w); b.kind == kindP && b.vid != vid {
			d.race(a, w, core.OpWrite, core.OpRead, d.writerEv, "writer on parallel view")
		}
	}
	r := dsu.Elem(d.reader.Get(a))
	if r == dsu.None || d.bags.AttrOf(r).kind == kindS ||
		(d.inReduce && d.bags.AttrOf(r).vid == vid) {
		d.reader.Set(a, int32(d.curElem()))
		d.readerEv.Set(a, int32(d.events))
	}
}

func (d *Detector) storeAware(a mem.Addr) {
	vid := d.currentVID()
	if r := dsu.Elem(d.reader.Get(a)); r != dsu.None {
		if b := d.bags.AttrOf(r); b.kind == kindP && b.vid != vid {
			d.race(a, r, core.OpRead, core.OpWrite, d.readerEv, "reader on parallel view")
		}
	}
	w := dsu.Elem(d.writer.Get(a))
	if w != dsu.None {
		if b := d.bags.AttrOf(w); b.kind == kindP && b.vid != vid {
			d.race(a, w, core.OpWrite, core.OpWrite, d.writerEv, "writer on parallel view")
		}
	}
	if w == dsu.None || d.bags.AttrOf(w).kind == kindS ||
		(d.inReduce && d.bags.AttrOf(w).vid == vid) {
		d.writer.Set(a, int32(d.curElem()))
		d.writerEv.Set(a, int32(d.events))
	}
}

var (
	_ core.Detector = (*Detector)(nil)
	_ cilk.Hooks    = (*Detector)(nil)
)

// Stats implements core.StatsProvider: the disjoint-set accounting behind
// the O((T+Mτ)·α(v,v)) bound of Theorem 5.
func (d *Detector) Stats() core.Stats {
	finds, unions := d.bags.Stats()
	return core.Stats{Elems: d.bags.Len(), Finds: finds, Unions: unions}
}

// EventCounts implements core.EventCountsProvider.
func (d *Detector) EventCounts() obs.EventCounts {
	c := d.counts
	c.BagOps = d.bags.Ops()
	return c
}
