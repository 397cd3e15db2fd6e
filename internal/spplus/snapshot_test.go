package spplus

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/progs"
)

func fig1() func(*cilk.Ctx) {
	return progs.Fig1(mem.NewAllocator(), progs.Fig1Options{})
}

// Snapshot/Restore fidelity: a detector restored from a snapshot taken at
// continuation probe k, fed only the events after probe k, must end in
// exactly the state of a detector that processed the whole run live —
// same races, same totals, same event and accounting counters. This is
// the substrate contract the prefix-sharing sweep builds on.
func TestSnapshotRestoreResumesExactly(t *testing.T) {
	spec := cilk.StealAll{}

	// Reference: one uninterrupted live run.
	ref := New()
	cilk.Run(fig1(), cilk.Config{Spec: spec, Hooks: ref})

	for _, forkAt := range []int{1, 2, 3} {
		// Capture a snapshot at probe forkAt during a second live run.
		donor := New()
		gate := cilk.NewGate(donor, true)
		var snap *Snapshot
		cilk.Run(fig1(), cilk.Config{
			Hooks: gate,
			Spec: cilk.NewGatedSpec(spec, gate, 0, func(ci cilk.ContInfo) {
				if ci.Seq == forkAt {
					snap = donor.Snapshot()
				}
			}),
		})
		if snap == nil {
			t.Fatalf("probe %d never fired", forkAt)
		}
		// The donor kept running past the snapshot; its final report must
		// match the reference (the gate was open throughout).
		if !reflect.DeepEqual(donor.Report().Races(), ref.Report().Races()) {
			t.Fatalf("fork %d: donor diverged from reference", forkAt)
		}

		// Fork: fresh detector, restored state, suppressed prefix, live
		// suffix from probe forkAt on.
		fork := New()
		fork.Restore(snap)
		fgate := cilk.NewGate(fork, false)
		cilk.Run(fig1(), cilk.Config{
			Hooks: fgate,
			Spec:  cilk.NewGatedSpec(spec, fgate, forkAt, nil),
		})
		if fgate.Skipped() == 0 {
			t.Fatalf("fork %d: gate suppressed nothing; the prefix ran live", forkAt)
		}
		if !reflect.DeepEqual(fork.Report().Races(), ref.Report().Races()) {
			t.Errorf("fork %d races:\n%v\nwant:\n%v", forkAt, fork.Report().Races(), ref.Report().Races())
		}
		if fork.Report().Total() != ref.Report().Total() {
			t.Errorf("fork %d total = %d, want %d", forkAt, fork.Report().Total(), ref.Report().Total())
		}
		if fork.Events() != ref.Events() {
			t.Errorf("fork %d event counter = %d, want %d", forkAt, fork.Events(), ref.Events())
		}
		if fork.EventCounts() != ref.EventCounts() {
			t.Errorf("fork %d counts = %+v, want %+v", forkAt, fork.EventCounts(), ref.EventCounts())
		}
		if fork.Stats() != ref.Stats() {
			t.Errorf("fork %d stats = %+v, want %+v", forkAt, fork.Stats(), ref.Stats())
		}
	}
}

// oddSteals steals every odd-numbered continuation, a schedule between
// NoSteals and StealAll that leaves several views open per sync block.
type oddSteals struct{}

func (oddSteals) ShouldSteal(ci cilk.ContInfo) bool { return ci.Seq%2 == 1 }
func (oddSteals) Order() cilk.ReduceOrder           { return cilk.ReduceAtSync }

// The pooled counterpart of TestSnapshotRestoreResumesExactly: at every
// probe of random programs, the snapshot is restored into one pooled
// detector that has just run a different unit — so its bag table, free
// list, stacks and shadows are dirty — and fed the suffix. It must end
// exactly where a fresh live run ends.
func TestPooledRestoreResumesExactly(t *testing.T) {
	pool := New()
	cilk.Run(progs.Random(mem.NewAllocator(), progs.RandomOpts{Seed: 999, MaxDepth: 5, MonoidStores: true}),
		cilk.Config{Spec: cilk.StealAll{}, Hooks: pool})
	forks := 0
	for seed := int64(1); seed <= 25; seed++ {
		prog := func() func(*cilk.Ctx) {
			return progs.Random(mem.NewAllocator(), progs.RandomOpts{Seed: seed, MonoidStores: true})
		}
		for _, spec := range []cilk.StealSpec{cilk.StealAll{}, oddSteals{}} {
			ref := New()
			cilk.Run(prog(), cilk.Config{Spec: spec, Hooks: ref})

			donor := New()
			gate := cilk.NewGate(donor, true)
			var snaps []*Snapshot
			cilk.Run(prog(), cilk.Config{
				Hooks: gate,
				Spec: cilk.NewGatedSpec(spec, gate, 0, func(cilk.ContInfo) {
					snaps = append(snaps, donor.Snapshot())
				}),
			})
			for i, snap := range snaps {
				forkAt := i + 1
				pool.Restore(snap)
				fgate := cilk.NewGate(pool, false)
				cilk.Run(prog(), cilk.Config{Hooks: fgate, Spec: cilk.NewGatedSpec(spec, fgate, forkAt, nil)})
				forks++
				switch {
				case !slices.Equal(pool.Report().Races(), ref.Report().Races()):
					t.Fatalf("seed %d %T fork %d races:\n%v\nwant:\n%v", seed, spec, forkAt, pool.Report().Races(), ref.Report().Races())
				case pool.Report().Total() != ref.Report().Total():
					t.Fatalf("seed %d %T fork %d total = %d, want %d", seed, spec, forkAt, pool.Report().Total(), ref.Report().Total())
				case pool.EventCounts() != ref.EventCounts():
					t.Fatalf("seed %d %T fork %d counts = %+v, want %+v", seed, spec, forkAt, pool.EventCounts(), ref.EventCounts())
				case pool.Stats() != ref.Stats():
					t.Fatalf("seed %d %T fork %d stats = %+v, want %+v", seed, spec, forkAt, pool.Stats(), ref.Stats())
				}
			}
		}
	}
	if forks < 100 {
		t.Fatalf("only %d forks checked; the random programs lost their probes", forks)
	}
}

// One snapshot must be able to seed many forks: restoring twice and
// driving both forks to completion yields identical, independent results.
func TestSnapshotSeedsManyForks(t *testing.T) {
	spec := cilk.StealAll{}
	donor := New()
	gate := cilk.NewGate(donor, true)
	var snap *Snapshot
	cilk.Run(fig1(), cilk.Config{
		Hooks: gate,
		Spec: cilk.NewGatedSpec(spec, gate, 0, func(ci cilk.ContInfo) {
			if ci.Seq == 2 {
				snap = donor.Snapshot()
			}
		}),
	})

	var reports [][]string
	for i := 0; i < 2; i++ {
		fork := New()
		fork.Restore(snap)
		fgate := cilk.NewGate(fork, false)
		cilk.Run(fig1(), cilk.Config{
			Hooks: fgate,
			Spec:  cilk.NewGatedSpec(spec, fgate, 2, nil),
		})
		var lines []string
		for _, r := range fork.Report().Races() {
			lines = append(lines, r.String())
		}
		reports = append(reports, lines)
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatalf("two forks of one snapshot disagree:\n%v\nvs\n%v", reports[0], reports[1])
	}
}

// Reset must return a pooled detector to its as-constructed behaviour:
// a run after Reset reports exactly what a fresh detector reports.
func TestDetectorResetReuse(t *testing.T) {
	d := New()
	cilk.Run(fig1(), cilk.Config{Spec: cilk.StealAll{}, Hooks: d})
	first := d.Report().Total()
	if first == 0 {
		t.Fatal("fig1 under StealAll should report races")
	}
	d.Reset()
	if d.Report().Total() != 0 {
		t.Fatal("Reset left races behind")
	}
	cilk.Run(fig1(), cilk.Config{Spec: cilk.StealAll{}, Hooks: d})
	if d.Report().Total() != first {
		t.Fatalf("reused detector reports %d, fresh reported %d", d.Report().Total(), first)
	}
	fresh := New()
	cilk.Run(fig1(), cilk.Config{Spec: cilk.StealAll{}, Hooks: fresh})
	if !reflect.DeepEqual(d.Report().Races(), fresh.Report().Races()) {
		t.Fatal("reused detector's races differ from a fresh detector's")
	}
}
