package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cilk"
	"repro/internal/mem"
)

// fmtAccess is the fmt formula Access.String rendered with before it
// moved to strconv appends, kept as the oracle the renderer must match.
func fmtAccess(a Access) string {
	where := fmt.Sprintf("%s#%d", a.Label, a.Frame)
	if a.Path != "" {
		where = fmt.Sprintf("%s#%d [%s]", a.Label, a.Frame, a.Path)
	}
	s := fmt.Sprintf("%s by %s", a.Op, where)
	if a.ViewAware {
		s += fmt.Sprintf(" (view-aware %s, view %d)", a.ViewOp, a.VID)
	}
	return s
}

// fmtRace is the fmt formula of Race.String, kept as the oracle.
func fmtRace(r Race) string {
	switch r.Kind {
	case ViewRead:
		return fmt.Sprintf("%v on reducer %q: %s vs %s", r.Kind, r.Reducer, fmtAccess(r.First), fmtAccess(r.Second))
	default:
		return fmt.Sprintf("%v at %#x: %s vs %s", r.Kind, uint64(r.Addr), fmtAccess(r.First), fmtAccess(r.Second))
	}
}

// TestRenderMatchesFmtOracle: Race.String and Access.String render byte
// for byte what the fmt formulas rendered, over random races that reach
// every branch and edge: quoted and non-ASCII reducer names (and invalid
// UTF-8), addresses 0 and MaxUint64, negative frame and view IDs, view-
// aware accesses both ways, empty paths, and out-of-range kinds and ops.
func TestRenderMatchesFmtOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"", "sum", `say "hi"`, "back\\slash", "naïve", "列表", "tab\there", "\x00\xff", "emoji 🙂"}
	labels := []string{"", "main", "f/reduce", "g h", "ünï", "\xfe"}
	paths := []string{"", "main", "main>f>g", "…>a>b", "x [y]"}
	addrs := []mem.Addr{0, 1, 0xdeadbeef, math.MaxUint64, math.MaxUint64 - 1}
	frames := []cilk.FrameID{0, 7, -1, math.MinInt32, math.MaxInt32}
	vids := []cilk.ViewID{0, 3, -2, math.MinInt64, math.MaxInt64}
	kinds := []Kind{ViewRead, Determinacy, Kind(-1), Kind(9)}
	ops := []AccessOp{OpRead, OpWrite, OpReducerRead, AccessOp(-3), AccessOp(17)}
	viewOps := []cilk.ViewOp{cilk.OpUpdate, cilk.OpCreateIdentity, cilk.OpReduce, cilk.ViewOp(-1), cilk.ViewOp(5)}
	pick := func(n int) int { return rng.Intn(n) }
	access := func() Access {
		return Access{
			Frame: frames[pick(len(frames))], Label: labels[pick(len(labels))],
			Path: paths[pick(len(paths))], Op: ops[pick(len(ops))],
			ViewAware: rng.Intn(2) == 0, ViewOp: viewOps[pick(len(viewOps))],
			VID: vids[pick(len(vids))],
		}
	}
	for i := 0; i < 5000; i++ {
		r := Race{
			Kind: kinds[pick(len(kinds))], Addr: addrs[pick(len(addrs))],
			Reducer: names[pick(len(names))], First: access(), Second: access(),
		}
		if i%7 == 0 {
			r.Addr = mem.Addr(rng.Uint64())
		}
		if got, want := r.String(), fmtRace(r); got != want {
			t.Fatalf("race %d:\n got  %q\n want %q", i, got, want)
		}
		if got, want := r.First.String(), fmtAccess(r.First); got != want {
			t.Fatalf("access %d:\n got  %q\n want %q", i, got, want)
		}
	}
}
