package spplus

import (
	"testing"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/mem"
)

// spawnedWriter drives main spawning a child, labelled label, that stores
// to every address in addrs and returns: back in main, a store to any of
// them is a determinacy race against the child (the child's ID sits in
// main's P bag).
func spawnedWriter(t *testing.T, label string, addrs []mem.Addr) (*Detector, *cilk.Frame) {
	t.Helper()
	d := New()
	main := &cilk.Frame{ID: 0, Label: "main"}
	child := &cilk.Frame{ID: 1, Label: label, Spawned: true}
	d.FrameEnter(main)
	d.FrameEnter(child)
	for _, a := range addrs {
		d.Store(child, a)
	}
	d.FrameReturn(child, main)
	return d, main
}

func addrRange(n int) []mem.Addr {
	out := make([]mem.Addr, n)
	for i := range out {
		out[i] = mem.Addr(0x1000 + 8*i)
	}
	return out
}

// TestDuplicateRaceReportAllocs: once a race is retained, every repeat
// report of it is counted without building anything — zero allocations.
// The CI allocation-regression step runs this test.
func TestDuplicateRaceReportAllocs(t *testing.T) {
	addrs := addrRange(1)
	d, main := spawnedWriter(t, "writer", addrs)
	d.Store(main, addrs[0]) // the first report is retained (and rendered)
	allocs := testing.AllocsPerRun(200, func() { d.Store(main, addrs[0]) })
	if allocs != 0 {
		t.Fatalf("duplicate race report allocates %.2f times, want 0", allocs)
	}
	rp := d.Report()
	if rp.Distinct() != 1 || len(rp.Races()) != 1 || rp.Total() != 202 {
		t.Fatalf("distinct=%d retained=%d total=%d, want 1/1/202",
			rp.Distinct(), len(rp.Races()), rp.Total())
	}
}

// TestPastLimitRaceReportAllocs: a new distinct race past the retention
// limit is counted in the dedup table but never built — zero allocations
// once the table has grown to hold it. The CI allocation-regression step
// runs this test.
func TestPastLimitRaceReportAllocs(t *testing.T) {
	const n = 2000
	addrs := addrRange(n)
	d, main := spawnedWriter(t, "writer", addrs)
	rp := d.Report()
	rp.Limit = 1
	// Warm-up: grow the dedup table to n keys, then empty the report
	// (Reset keeps the table's capacity) and retain one race again.
	for _, a := range addrs {
		d.Store(main, a)
	}
	rp.Reset()
	d.Store(main, addrs[0])
	i := 0
	allocs := testing.AllocsPerRun(n-2, func() {
		i++
		d.Store(main, addrs[i])
	})
	if allocs != 0 {
		t.Fatalf("past-limit race report allocates %.2f times, want 0", allocs)
	}
	if rp.Distinct() != n || len(rp.Races()) != 1 || rp.Total() != n {
		t.Fatalf("distinct=%d retained=%d total=%d, want %d/1/%d",
			rp.Distinct(), len(rp.Races()), rp.Total(), n, n)
	}
}

// TestRestoreRendersPostRestorePaths: a pooled detector restored from
// another run's snapshot keeps element IDs it has already rendered paths
// for, and frames entered after the restore reuse IDs of frames it saw
// before. Races must render the snapshot's and the new frames' spawn
// paths, never a memoized path of what the IDs meant before the restore.
func TestRestoreRendersPostRestorePaths(t *testing.T) {
	x := mem.Addr(0x1000)
	donor, main := spawnedWriter(t, "writer", []mem.Addr{x})
	snap := donor.Snapshot()

	// spawnCallStore spawns outer from main, calls inner from it, stores
	// to x there and returns to main; it yields the one race this fires.
	spawnCallStore := func(d *Detector, outerLabel, innerLabel string) core.Race {
		outer := &cilk.Frame{ID: 2, Label: outerLabel, Spawned: true}
		inner := &cilk.Frame{ID: 3, Label: innerLabel}
		d.FrameEnter(outer)
		d.FrameEnter(inner)
		d.Store(inner, x)
		d.FrameReturn(inner, outer)
		d.Sync(outer)
		d.FrameReturn(outer, main)
		races := d.Report().Races()
		if len(races) != 1 {
			t.Fatalf("want exactly one race, got %d", len(races))
		}
		return races[0]
	}

	d, _ := spawnedWriter(t, "stale", []mem.Addr{x})
	if r := spawnCallStore(d, "b", "b1"); r.First.Path != "main>stale" || r.Second.Path != "main>b>b1" {
		t.Fatalf("pre-restore paths = %q vs %q", r.First.Path, r.Second.Path)
	}
	d.Restore(snap)
	r := spawnCallStore(d, "c", "c1")
	if r.First.Path != "main>writer" || r.First.Label != "writer" {
		t.Fatalf("post-restore first access = %q [%s], want writer [main>writer]", r.First.Label, r.First.Path)
	}
	if r.Second.Path != "main>c>c1" || r.Second.Label != "c1" {
		t.Fatalf("post-restore second access = %q [%s], want c1 [main>c>c1]", r.Second.Label, r.Second.Path)
	}
}
