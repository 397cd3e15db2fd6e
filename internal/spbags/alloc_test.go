package spbags

import (
	"testing"

	"repro/internal/cilk"
)

// TestSpawnCycleAllocs: a warmed SP-bags detector enters, returns and
// syncs frames without allocating — frame records are slice entries and
// bag slots come off the free list. The warm-up grows the forest and
// lineage far enough that the measured cycles cross at most one slice
// growth. The CI allocation-regression step runs this test.
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
}
