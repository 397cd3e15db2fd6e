package rader

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
)

// runVerdict is the outcome of one sweep run (a naive sweep's
// specification, a prefix sweep's trie group): its SP+ races, or the
// error that replaced them.
type runVerdict struct {
	races     []core.Race
	total     int
	err       error
	viewReads *core.Report // piggybacked Peer-Set verdict, first run only
}

// collect merges the verdicts of the n selected specifications, in
// selection order, into cr: failures, the Peer-Set verdict, run and report
// counts, and one finding per distinct race text, attributed to the first
// specification that reported it. verdict(i) is specification i's run and
// spec(i) its text, called at most once per specification and only when
// it fails or contributes a finding. psErr, when set, is the loss of the
// Peer-Set pass that rode along specification 0's failed run. Both sweep
// strategies end here, so their canonical results agree by construction
// once their verdicts do.
//
// Dedup is on Race.String() text, but each distinct text is rendered
// once: races are memoized under textKey, which zeroes the fields String
// does not print. Every finding keeps its text for sortCanonical.
func (cr *CoverageResult) collect(n int, verdict func(i int) *runVerdict, spec func(i int) string, psErr error) {
	texts := make(map[core.Race]string)
	seen := make(map[string]struct{})
	for i := 0; i < n; i++ {
		v := verdict(i)
		if v.err != nil {
			if i == 0 && psErr != nil {
				// The run carried the Peer-Set pass too; its loss must be
				// visible under both names.
				cr.Failures = append(cr.Failures, SpecFailure{Spec: "peer-set", Err: psErr})
			}
			cr.Failures = append(cr.Failures, SpecFailure{Spec: spec(i), Err: v.err})
			continue
		}
		if v.viewReads != nil {
			cr.ViewReads = v.viewReads
		}
		cr.SpecsRun++
		cr.total += v.total
		name := ""
		for _, race := range v.races {
			key := textKey(race)
			text, ok := texts[key]
			if !ok {
				text = race.String()
				texts[key] = text
			}
			if _, dup := seen[text]; !dup {
				seen[text] = struct{}{}
				if name == "" {
					name = spec(i)
				}
				cr.Races = append(cr.Races, CoverageFinding{Spec: name, Race: race, text: text})
			}
		}
	}
	cr.sortCanonical()
}

// textKey returns r with every field that core.Race.String does not print
// set to zero, so races rendering the same text share one memo entry: the
// provenance, the address of a view-read race or the reducer of any other,
// and the view operation and view of an access that is not view-aware.
// Zeroing a printed field would merge races of different text and change
// the verdict; leaving an unprinted field costs only an extra render.
func textKey(r core.Race) core.Race {
	r.Prov = core.Provenance{}
	if r.Kind == core.ViewRead {
		r.Addr = 0
	} else {
		r.Reducer = ""
	}
	r.First, r.Second = accessTextKey(r.First), accessTextKey(r.Second)
	return r
}

func accessTextKey(a core.Access) core.Access {
	if !a.ViewAware {
		a.ViewOp, a.VID = 0, 0
	}
	return a
}

// sortCanonical puts findings and failures into spec order (ties broken by
// the race or error text) so a sweep's result — and any JSON rendering of
// it — is byte-identical regardless of worker count or completion order.
// Finding texts are unique, so (spec, text) orders findings totally.
func (cr *CoverageResult) sortCanonical() {
	slices.SortFunc(cr.Races, func(a, b CoverageFinding) int {
		return cmp.Or(strings.Compare(a.Spec, b.Spec), strings.Compare(a.text, b.text))
	})
	sort.SliceStable(cr.Failures, func(i, j int) bool {
		if cr.Failures[i].Spec != cr.Failures[j].Spec {
			return cr.Failures[i].Spec < cr.Failures[j].Spec
		}
		return fmt.Sprint(cr.Failures[i].Err) < fmt.Sprint(cr.Failures[j].Err)
	})
}
