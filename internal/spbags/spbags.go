// Package spbags implements the Feng–Leiserson SP-bags algorithm, the
// classic serial determinacy-race detector for Cilk programs that the
// paper's SP+ algorithm extends (§5). SP-bags maintains, for each Cilk
// function F on the call stack, an S bag (IDs of F's completed descendants
// that are logically in series with the currently executing strand, plus F
// itself) and a P bag (IDs of completed descendants logically in parallel
// with it), in a disjoint-set forest. Two shadow spaces, reader and writer,
// record the last function to read and write each location; by
// pseudotransitivity of ‖, a single reader suffices.
//
// SP-bags has no notion of reducer views: it treats view-aware accesses
// like any other access. On programs that use reducers it therefore loses
// the paper's guarantees — it reports "races" between strands that share a
// view (false positives, see TestFig5FalsePositive in the spplus package)
// and its verdicts on reduce strands depend on bookkeeping it does not
// have. It is included as the baseline the evaluation compares against.
package spbags

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

type frameRec struct {
	id    cilk.FrameID
	label string
	elem  dsu.Elem
	s, p  dsu.Bag
}

// Detector runs SP-bags over the cilk event stream. Create one per run.
type Detector struct {
	cilk.Empty

	bags   dsu.Bags[bagKind]
	stack  []frameRec
	reader *mem.Shadow
	writer *mem.Shadow
	lin    core.Lineage
	report core.Report

	// readerEv/writerEv shadow the same locations with the detector-relative
	// event ordinal of the recorded access, so a race report can point back
	// into the stream. Ordinals are truncated to int32 — adequate for any
	// trace the shadow space itself can hold.
	readerEv *mem.Shadow
	writerEv *mem.Shadow

	counts obs.EventCounts
	events int64 // ordinal of the event being processed (1-based)
}

// New returns a fresh SP-bags detector.
func New() *Detector {
	return &Detector{
		reader:   mem.NewShadow(int32(dsu.None)),
		writer:   mem.NewShadow(int32(dsu.None)),
		readerEv: mem.NewShadow(0),
		writerEv: mem.NewShadow(0),
	}
}

// Name implements core.Detector.
func (d *Detector) Name() string { return "sp-bags" }

// Report implements core.Detector.
func (d *Detector) Report() *core.Report { return &d.report }

// top is the executing frame; the pointer is valid until the stack grows.
func (d *Detector) top() *frameRec { return &d.stack[len(d.stack)-1] }

// FrameEnter pushes S_G = {G} and P_G = {} for the new function G.
func (d *Detector) FrameEnter(f *cilk.Frame) {
	d.events++
	d.counts.FrameEnters++
	parent := core.NoParent
	if len(d.stack) > 0 {
		parent = int32(d.top().elem)
	}
	rec := frameRec{id: f.ID, label: f.Label, s: d.bags.New(kindS), p: d.bags.New(kindP)}
	rec.elem = d.bags.Add(rec.s)
	d.lin.Add(int32(rec.elem), f.ID, f.Label, parent)
	d.stack = append(d.stack, rec)
}

// FrameReturn merges the child's bags into the parent: a spawned child's S
// bag becomes parallel work (into P_F); a called child's S bag stays serial
// (into S_F). The child synced before returning, so its P bag is empty.
func (d *Detector) FrameReturn(g, f *cilk.Frame) {
	d.events++
	d.counts.FrameReturns++
	if len(d.stack) < 2 {
		panic(core.Violatef("sp-bags", core.StreamOrder, g.ID,
			"return of frame %d with %d frames on the stack", g.ID, len(d.stack)))
	}
	grec := *d.top()
	if grec.id != g.ID {
		panic(core.Violatef("sp-bags", core.StreamOrder, g.ID,
			"event order violation: return %d, top %d", g.ID, grec.id))
	}
	d.stack = d.stack[:len(d.stack)-1]
	frec := d.top()
	if g.Spawned {
		d.bags.UnionInto(frec.p, grec.s)
	} else {
		d.bags.UnionInto(frec.s, grec.s)
	}
	d.bags.UnionInto(frec.p, grec.p) // defensive: empty in well-formed runs
	d.bags.Release(grec.s)
	d.bags.Release(grec.p)
}

// Sync moves everything parallel into series: S_F ∪= P_F.
func (d *Detector) Sync(f *cilk.Frame) {
	d.events++
	d.counts.Syncs++
	if len(d.stack) == 0 {
		panic(core.Violatef("sp-bags", core.StreamOrder, f.ID, "sync before any frame entered"))
	}
	rec := d.top()
	d.bags.UnionInto(rec.s, rec.p)
}

// race reports a determinacy race at a between the prior access of
// element prev, whose event ordinal ev recorded, and the current
// function's access. The report admits the race on its dedup key first,
// so only a race it keeps pays for rendering both accesses.
func (d *Detector) race(a mem.Addr, prev dsu.Elem, firstOp, secondOp core.AccessOp, ev *mem.Shadow, relation string) {
	p, cur := int32(prev), d.top()
	if !d.report.Admit(core.Determinacy, a, "", d.lin.Frame(p), cur.id) {
		return
	}
	d.report.Keep(core.Race{
		Kind: core.Determinacy, Addr: a,
		First:  core.Access{Frame: d.lin.Frame(p), Label: d.lin.Label(p), Path: d.lin.Path(p), Op: firstOp},
		Second: core.Access{Frame: cur.id, Label: cur.label, Path: d.lin.Path(int32(cur.elem)), Op: secondOp},
		Prov:   core.Provenance{FirstEvent: int64(ev.Get(a)), SecondEvent: d.events, Relation: relation},
	})
}

// Load implements the SP-bags read rule: a race iff the last writer is in
// a P bag; the reader shadow advances only when the previous reader is in
// an S bag (pseudotransitivity of ‖ makes one reader sufficient).
func (d *Detector) Load(f *cilk.Frame, a mem.Addr) {
	d.events++
	d.counts.Loads++
	if len(d.stack) == 0 {
		panic(core.Violatef("sp-bags", core.StreamOrder, f.ID, "memory access before any frame entered"))
	}
	rec := d.top()
	d.counts.ShadowLookups += 2
	if w := dsu.Elem(d.writer.Get(a)); w != dsu.None {
		if d.bags.AttrOf(w) == kindP {
			d.race(a, w, core.OpWrite, core.OpRead, d.writerEv, "writer in P-bag")
		}
	}
	if r := dsu.Elem(d.reader.Get(a)); r == dsu.None || d.bags.AttrOf(r) == kindS {
		d.reader.Set(a, int32(rec.elem))
		d.readerEv.Set(a, int32(d.events))
	}
}

// Store implements the SP-bags write rule: a race iff the last reader or
// last writer is in a P bag.
func (d *Detector) Store(f *cilk.Frame, a mem.Addr) {
	d.events++
	d.counts.Stores++
	if len(d.stack) == 0 {
		panic(core.Violatef("sp-bags", core.StreamOrder, f.ID, "memory access before any frame entered"))
	}
	rec := d.top()
	d.counts.ShadowLookups += 2
	if r := dsu.Elem(d.reader.Get(a)); r != dsu.None && d.bags.AttrOf(r) == kindP {
		d.race(a, r, core.OpRead, core.OpWrite, d.readerEv, "reader in P-bag")
	}
	w := dsu.Elem(d.writer.Get(a))
	if w != dsu.None && d.bags.AttrOf(w) == kindP {
		d.race(a, w, core.OpWrite, core.OpWrite, d.writerEv, "writer in P-bag")
	}
	if w == dsu.None || d.bags.AttrOf(w) == kindS {
		d.writer.Set(a, int32(rec.elem))
		d.writerEv.Set(a, int32(d.events))
	}
}

var (
	_ core.Detector = (*Detector)(nil)
	_ cilk.Hooks    = (*Detector)(nil)
)

// Stats implements core.StatsProvider.
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
