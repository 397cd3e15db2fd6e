package rader

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cilk"
	"repro/internal/core"
	"repro/internal/mem"
)

// collectOracle is the collect step as both sweep strategies once spelled
// it out: dedup on freshly rendered Race.String() text, first spec in
// selection order wins, then a stable sort that renders both sides of
// every comparison. It survives only as the reference for collect.
func collectOracle(specs []string, verdicts []runVerdict, psErr error) *CoverageResult {
	cr := &CoverageResult{ViewReads: &core.Report{}}
	seen := make(map[string]bool)
	for i, v := range verdicts {
		if v.err != nil {
			if i == 0 && psErr != nil {
				cr.Failures = append(cr.Failures, SpecFailure{Spec: "peer-set", Err: psErr})
			}
			cr.Failures = append(cr.Failures, SpecFailure{Spec: specs[i], Err: v.err})
			continue
		}
		if v.viewReads != nil {
			cr.ViewReads = v.viewReads
		}
		cr.SpecsRun++
		cr.total += v.total
		for _, race := range v.races {
			key := race.String()
			if !seen[key] {
				seen[key] = true
				cr.Races = append(cr.Races, CoverageFinding{Spec: specs[i], Race: race, text: key})
			}
		}
	}
	sort.SliceStable(cr.Races, func(i, j int) bool {
		if cr.Races[i].Spec != cr.Races[j].Spec {
			return cr.Races[i].Spec < cr.Races[j].Spec
		}
		return cr.Races[i].Race.String() < cr.Races[j].Race.String()
	})
	sort.SliceStable(cr.Failures, func(i, j int) bool {
		if cr.Failures[i].Spec != cr.Failures[j].Spec {
			return cr.Failures[i].Spec < cr.Failures[j].Spec
		}
		return fmt.Sprint(cr.Failures[i].Err) < fmt.Sprint(cr.Failures[j].Err)
	})
	return cr
}

// raceGen draws races as one-field variants of a small per-trial pool,
// so races recur with only an unprinted field changed (provenance, the
// address of a view-read race, the view of a view-oblivious access) or
// only a printed one, and labels and paths built from '#', '[', ']',
// '>', ' ' and digits let different printed fields render the same text
// by imitating the "label#frame [path]" framing.
type raceGen struct {
	r    *rand.Rand
	pool []core.Race
}

func (g *raceGen) pick(xs ...string) string { return xs[g.r.IntN(len(xs))] }

func (g *raceGen) text() string {
	return g.pick("", "a", "a#1", "a#1 [b]", "b]#2 [c", "c", "main>f", ">", " ")
}

func (g *raceGen) access() core.Access {
	return core.Access{
		Frame:     cilk.FrameID(g.r.IntN(3)),
		Label:     g.text(),
		Path:      g.text(),
		Op:        core.AccessOp(g.r.IntN(3)),
		ViewAware: g.r.IntN(2) == 0,
		ViewOp:    cilk.ViewOp(g.r.IntN(3)),
		VID:       cilk.ViewID(g.r.IntN(3)),
	}
}

func (g *raceGen) fresh() core.Race {
	return core.Race{
		Kind:    core.Kind(g.r.IntN(3)), // includes an unnamed kind, printed like a determinacy race
		Addr:    mem.Addr(8 * g.r.IntN(3)),
		Reducer: g.pick("", "sum", "list"),
		First:   g.access(),
		Second:  g.access(),
		Prov: core.Provenance{
			FirstEvent:  int64(g.r.IntN(4)),
			SecondEvent: int64(g.r.IntN(4)),
			Relation:    g.pick("", "writer in P-bag", "reader on parallel view"),
		},
	}
}

// mutate redraws one field of an access.
func (g *raceGen) mutate(a *core.Access) {
	switch g.r.IntN(7) {
	case 0:
		a.Frame = cilk.FrameID(g.r.IntN(3))
	case 1:
		a.Label = g.text()
	case 2:
		a.Path = g.text()
	case 3:
		a.Op = core.AccessOp(g.r.IntN(3))
	case 4:
		a.ViewAware = !a.ViewAware
	case 5:
		a.ViewOp = cilk.ViewOp(g.r.IntN(3))
	default:
		a.VID = cilk.ViewID(g.r.IntN(3))
	}
}

// race returns a pool race, unchanged or with one field redrawn.
func (g *raceGen) race() core.Race {
	r := g.pool[g.r.IntN(len(g.pool))]
	switch g.r.IntN(8) {
	case 0:
		r.Kind = core.Kind(g.r.IntN(3))
	case 1:
		r.Addr = mem.Addr(8 * g.r.IntN(3))
	case 2:
		r.Reducer = g.pick("", "sum", "list")
	case 3:
		g.mutate(&r.First)
	case 4:
		g.mutate(&r.Second)
	case 5:
		r.Prov.FirstEvent = int64(g.r.IntN(4))
	case 6:
		r.Prov.Relation = g.pick("", "writer in P-bag")
	}
	return r
}

// TestCollectMatchesOracle: the memoized collect step yields exactly the
// oracle's Races (spec attribution, representative race, order and
// stored text) and Failures, over random verdict sequences whose specs
// arrive out of name order and whose races collide on text.
func TestCollectMatchesOracle(t *testing.T) {
	g := &raceGen{r: rand.New(rand.NewPCG(1, 2))}
	for trial := 0; trial < 300; trial++ {
		g.pool = g.pool[:0]
		for n := 1 + g.r.IntN(6); n > 0; n-- {
			g.pool = append(g.pool, g.fresh())
		}
		n := 1 + g.r.IntN(12)
		specs, verdicts := make([]string, n), make([]runVerdict, n)
		for i := range verdicts {
			specs[i] = g.pick("s", "s0", "s1", "labels:1", "labels:1,2", "depth:2")
			v := runVerdict{total: g.r.IntN(50)}
			switch g.r.IntN(8) {
			case 0:
				v.err = errors.New(g.pick("boom", "deadline"))
			case 1:
				// A run whose races are all empty-label repeats.
				v.races = make([]core.Race, 3)
			default:
				v.races = make([]core.Race, g.r.IntN(30))
				for j := range v.races {
					v.races[j] = g.race()
				}
			}
			verdicts[i] = v
		}
		var psErr error
		if g.r.IntN(2) == 0 {
			psErr = verdicts[0].err
		}
		want := collectOracle(specs, verdicts, psErr)
		got := &CoverageResult{ViewReads: &core.Report{}}
		named := make([]bool, n)
		got.collect(n, func(i int) *runVerdict { return &verdicts[i] }, func(i int) string {
			if named[i] {
				t.Fatalf("trial %d: spec %d formatted twice", trial, i)
			}
			named[i] = true
			return specs[i]
		}, psErr)
		if !reflect.DeepEqual(got.Races, want.Races) {
			t.Fatalf("trial %d: races differ:\n got  %v\n want %v", trial, got.Races, want.Races)
		}
		if !reflect.DeepEqual(got.Failures, want.Failures) ||
			got.SpecsRun != want.SpecsRun || got.total != want.total {
			t.Fatalf("trial %d: accounting differs: got %v/%d/%d, want %v/%d/%d", trial,
				got.Failures, got.SpecsRun, got.total, want.Failures, want.SpecsRun, want.total)
		}
	}
}

// TestCollectTextCollision: two races with different printed fields that
// render the same text are one finding, attributed to the first spec.
func TestCollectTextCollision(t *testing.T) {
	a := core.Race{Kind: core.Determinacy, Addr: 8,
		First:  core.Access{Label: "a", Frame: 1, Path: "b]#2 [c"},
		Second: core.Access{Label: "x", Frame: 3, Op: core.OpWrite}}
	b := a
	b.First = core.Access{Label: "a#1 [b]", Frame: 2, Path: "c"}
	if a.String() != b.String() || textKey(a) == textKey(b) {
		t.Fatalf("fixture must collide on text only: %q vs %q", a, b)
	}
	var cr CoverageResult
	specs := []string{"s2", "s1"}
	verdicts := []runVerdict{{races: []core.Race{b}}, {races: []core.Race{a}}}
	cr.collect(2, func(i int) *runVerdict { return &verdicts[i] }, func(i int) string { return specs[i] }, nil)
	if len(cr.Races) != 1 || cr.Races[0].Spec != "s2" || cr.Races[0].Race != b {
		t.Fatalf("findings = %v, want b under s2 only", cr.Races)
	}
}
