package spplus

import (
	"testing"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/progs"
)

// TestSpawnCycleAllocs: a warmed SP+ detector enters, returns and syncs
// frames without allocating — frame records and P stacks are slice
// entries and bag slots come off the free list. The warm-up grows the
// forest and lineage far enough that the measured cycles cross at most
// one slice growth. The CI allocation-regression step runs this test.
func TestSpawnCycleAllocs(t *testing.T) {
	d := New()
	main := &cilk.Frame{ID: 0, Label: "main"}
	child := &cilk.Frame{ID: 1, Label: "child", Spawned: true, Parent: main}
	grand := &cilk.Frame{ID: 2, Label: "grand", Parent: child}
	d.FrameEnter(main)
	cycle := func() {
		d.FrameEnter(child)
		d.FrameEnter(grand)
		d.FrameReturn(grand, child)
		d.Sync(child)
		d.FrameReturn(child, main)
		d.Sync(main)
	}
	for i := 0; i < 5000; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("spawn/return/sync cycle allocates %.2f times, want 0", allocs)
	}
	if !d.Report().Empty() {
		t.Fatal("a cycle with no memory access reported a race")
	}
}

// TestRestoreAllocs: restoring a pooled detector from a reused snapshot,
// and capturing into a recycled one, are slice copies into grown
// capacity — zero allocations. The CI allocation-regression step runs
// this test.
func TestRestoreAllocs(t *testing.T) {
	prog := func() func(*cilk.Ctx) { return progs.ReducerBench(mem.NewAllocator(), 8) }
	donor := New()
	gate := cilk.NewGate(donor, true)
	var snap *Snapshot
	cilk.Run(prog(), cilk.Config{
		Hooks: gate,
		Spec: cilk.NewGatedSpec(cilk.StealAll{}, gate, 0, func(ci cilk.ContInfo) {
			if ci.Seq == 5 {
				snap = donor.Snapshot()
			}
		}),
	})
	if snap == nil || len(snap.stack) == 0 {
		t.Fatal("probe 5 never fired")
	}
	d := New()
	cilk.Run(prog(), cilk.Config{Spec: cilk.StealAll{}, Hooks: d}) // dirty the pooled detector
	d.Restore(snap)
	if allocs := testing.AllocsPerRun(200, func() { d.Restore(snap) }); allocs != 0 {
		t.Fatalf("Restore allocates %.2f times, want 0", allocs)
	}
	recycled := d.Snapshot()
	if allocs := testing.AllocsPerRun(200, func() { d.SnapshotInto(recycled) }); allocs != 0 {
		t.Fatalf("SnapshotInto a recycled snapshot allocates %.2f times, want 0", allocs)
	}
}
