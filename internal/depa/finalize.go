package depa

import (
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
)

// pageBits mirrors internal/mem's shadow page geometry: shards partition
// the address space by shadow page so each shard's working set is whole
// pages of its private shadow spaces.
const pageBits = 12

// pendingRace is one candidate race found by a shard, tagged with the
// serial ordinal of the access that fired it so the merge step can
// re-linearize candidates from all shards into the exact order a serial
// detector would have reported them. It holds lineage ids, not rendered
// accesses: the serial merge admits candidates into the report first and
// renders only the races the report keeps (rendering also writes the
// lineage's path memo, which the concurrent shards must not touch).
type pendingRace struct {
	addr          mem.Addr
	first, second int32 // lineage ids of the earlier and the firing access's frames
	firstOp       core.AccessOp
	secondOp      core.AccessOp
	firstEv       int64  // event ordinal of the earlier access
	relation      string // the rule that fired
	ord           int64  // serial ordinal of the firing access (first repeat of a run)
	sub           uint8  // at one store, the reader-race (0) precedes the writer-race (1)
	count         int32  // coalesced repeats, each of which re-fires the same race
}

// race renders p as a report entry.
func (p *pendingRace) race(lin *core.Lineage) core.Race {
	access := func(elem int32, op core.AccessOp) core.Access {
		return core.Access{Frame: lin.Frame(elem), Label: lin.Label(elem), Path: lin.Path(elem), Op: op}
	}
	return core.Race{
		Kind: core.Determinacy, Addr: p.addr,
		First:  access(p.first, p.firstOp),
		Second: access(p.second, p.secondOp),
		Prov:   core.Provenance{FirstEvent: p.firstEv, SecondEvent: p.ord, Relation: p.relation},
	}
}

// detectSharded runs the shadow-space discipline over the access log,
// sharded by shadow page: shard s owns pages with page % shards == s.
// Every shard scans the whole log — a cheap branch per entry — and runs
// the full reader/writer protocol on its own pages only. The split is
// sound because per-address verdicts depend on nothing outside the
// address: the SP relation of two accesses comes from their strand
// timestamps alone, never from detector state evolved on other
// locations. There is no serial bucketing pass to Amdahl away the
// speedup; the only serial work left is the final merge of candidates.
// It also returns each shard's busy time — the basis of the scaling
// table's critical-path speedup. sequential runs the shards one after
// another on the calling goroutine (identical verdict, uncontended
// timings).
func detectSharded(entries []entry, strands []strandRec, shards int, sequential bool, tr *obs.Trace) ([][]pendingRace, []time.Duration) {
	if shards < 1 {
		shards = 1
	}
	out := make([][]pendingRace, shards)
	times := make([]time.Duration, shards)
	one := func(s int) {
		span := tr.StartTID(s+1, "rader_depa_shard")
		t0 := time.Now()
		out[s] = detectShard(entries, strands, s, shards)
		times[s] = time.Since(t0)
		span.Arg("shard", s).Arg("races", len(out[s])).End()
	}
	if sequential || shards == 1 {
		for s := 0; s < shards; s++ {
			one(s)
		}
		return out, times
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			one(s)
		}(s)
	}
	wg.Wait()
	return out, times
}

// detectShard is the serial shadow protocol restricted to one shard's
// pages. The rules are SP-bags' rules with "is the recorded frame's bag a
// P bag" replaced by "is the recorded strand's timestamp parallel with
// the current strand" — the same question answered from the timestamps,
// which is what makes the protocol shardable. The reader shadow advances
// only when the previous reader is serial with the current strand
// (pseudotransitivity of ∥ keeps one reader sufficient); the writer
// shadow advances only from none or a serial writer.
func detectShard(entries []entry, strands []strandRec, shard, shards int) []pendingRace {
	reader := mem.NewShadow(noStrand)
	writer := mem.NewShadow(noStrand)
	readerEv := mem.NewShadow(0)
	writerEv := mem.NewShadow(0)
	// The page filter runs once per entry per shard — it is the scan's
	// fixed cost and bounds the achievable speedup, so the power-of-two
	// case (every configuration the scaling table measures) replaces the
	// integer modulo with a mask.
	mask := -1
	if shards&(shards-1) == 0 {
		mask = shards - 1
	}
	var pend []pendingRace
	candidate := func(e entry, prev int32, firstOp, secondOp core.AccessOp, ev *mem.Shadow, relation string, sub uint8) {
		pend = append(pend, pendingRace{
			addr: e.addr, first: strands[prev].frame, second: strands[e.strand].frame,
			firstOp: firstOp, secondOp: secondOp, firstEv: int64(ev.Get(e.addr)), relation: relation,
			ord: e.ord, sub: sub, count: e.count,
		})
	}
	for _, e := range entries {
		if shards > 1 {
			page := int(uint64(e.addr) >> pageBits)
			if mask >= 0 {
				if page&mask != shard {
					continue
				}
			} else if page%shards != shard {
				continue
			}
		}
		cur := e.strand
		curTs := strands[cur].ts
		// A coalesced run re-executes the same rule count times against
		// unchanged foreign state: races re-fire per repeat (the report
		// dedups to the first, counting the rest) and a shadow advance
		// lands on the run's last ordinal, exactly as repeat-by-repeat
		// processing would leave it.
		lastOrd := e.ord + int64(e.count) - 1
		switch e.op {
		case opLoad:
			if w := writer.Get(e.addr); w != noStrand && Parallel(strands[w].ts, curTs) {
				candidate(e, w, core.OpWrite, core.OpRead, writerEv, "writer parallel", 0)
			}
			if r := reader.Get(e.addr); r == noStrand || !Parallel(strands[r].ts, curTs) {
				reader.Set(e.addr, cur)
				readerEv.Set(e.addr, int32(lastOrd))
			}
		case opStore:
			if r := reader.Get(e.addr); r != noStrand && Parallel(strands[r].ts, curTs) {
				candidate(e, r, core.OpRead, core.OpWrite, readerEv, "reader parallel", 0)
			}
			w := writer.Get(e.addr)
			if w != noStrand && Parallel(strands[w].ts, curTs) {
				candidate(e, w, core.OpWrite, core.OpWrite, writerEv, "writer parallel", 1)
			}
			if w == noStrand || !Parallel(strands[w].ts, curTs) {
				writer.Set(e.addr, cur)
				writerEv.Set(e.addr, int32(lastOrd))
			}
		}
	}
	return pend
}

// mergePending joins the shards' candidates back into serial event
// order. (ord, sub) is unique per candidate — one access fires at most a
// reader-race then a writer-race — so the order, and therefore which
// representative the report retains under its dedup limit, is identical
// to a serial detector's regardless of shard count or scheduling.
func mergePending(byShard [][]pendingRace) []pendingRace {
	n := 0
	for _, s := range byShard {
		n += len(s)
	}
	all := make([]pendingRace, 0, n)
	for _, s := range byShard {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ord != all[j].ord {
			return all[i].ord < all[j].ord
		}
		return all[i].sub < all[j].sub
	})
	return all
}
