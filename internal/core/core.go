// Package core defines the shared vocabulary of the race detectors: race
// kinds, race records, the report accumulator, and the Detector interface
// that the Peer-Set, SP-bags and SP+ implementations satisfy. The paper's
// primary contribution — the two detection algorithms — lives in
// internal/peerset and internal/spplus; this package is their common
// foundation and the surface the rader driver programs against.
package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Kind classifies a race (§1 identifies exactly these two kinds for
// programs that use reducers).
type Kind int

const (
	// ViewRead is a view-read race: two reducer-reads at strands with
	// different peer sets (§3).
	ViewRead Kind = iota
	// Determinacy is a determinacy race: two accesses to one location,
	// at least one a write, that are logically parallel — and, when the
	// later access is view-aware, operate on parallel views (§5).
	Determinacy
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case ViewRead:
		return "view-read race"
	case Determinacy:
		return "determinacy race"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AccessOp names what each racing side did.
type AccessOp int

// Access operations.
const (
	OpRead AccessOp = iota
	OpWrite
	OpReducerRead
)

// String implements fmt.Stringer.
func (op AccessOp) String() string {
	switch op {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpReducerRead:
		return "reducer-read"
	default:
		return fmt.Sprintf("AccessOp(%d)", int(op))
	}
}

// Access records one side of a race.
type Access struct {
	Frame     cilk.FrameID
	Label     string
	Path      string // spawn path "main>f>g", when the detector tracks lineage
	Op        AccessOp
	ViewAware bool
	ViewOp    cilk.ViewOp // meaningful only when ViewAware
	VID       cilk.ViewID // view context of the access (SP+ only)
}

// String implements fmt.Stringer: "write by g#3 [main>g]", plus
// " (view-aware Update, view 2)" for a view-aware access.
func (a Access) String() string { return string(a.appendText(nil)) }

// appendText appends the String rendering of a to b.
func (a Access) appendText(b []byte) []byte {
	b = append(b, a.Op.String()...)
	b = append(b, " by "...)
	b = append(b, a.Label...)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(a.Frame), 10)
	if a.Path != "" {
		b = append(b, " ["...)
		b = append(b, a.Path...)
		b = append(b, ']')
	}
	if a.ViewAware {
		b = append(b, " (view-aware "...)
		b = append(b, a.ViewOp.String()...)
		b = append(b, ", view "...)
		b = strconv.AppendInt(b, int64(a.VID), 10)
		b = append(b, ')')
	}
	return b
}

// Provenance explains *why* a detector reported a race: which SP relation
// fired, and where in the event stream the two sides sat. Event ordinals
// are detector-relative — the 1-based index among the events that
// detector's algorithm consumes (Peer-Set, which ignores memory traffic,
// numbers only control and reducer events) — so two detectors replaying
// one trace may assign different ordinals to the same logical access.
// FirstEvent is 0 when the detector's shadow state no longer pins the
// earlier access's position.
type Provenance struct {
	// FirstEvent is the ordinal of the earlier access (0 = unknown).
	FirstEvent int64
	// SecondEvent is the ordinal of the access at which the race fired.
	SecondEvent int64
	// Relation names the SP relation (or label rule) that triggered the
	// report: "reader in P-bag", "writer on parallel view",
	// "spawn-count mismatch", "unordered labels", ...
	Relation string
}

// Race is one detected race.
type Race struct {
	Kind    Kind
	Addr    mem.Addr // racing location (Determinacy only)
	Reducer string   // racing reducer (ViewRead only)
	First   Access   // earlier access in serial order
	Second  Access   // access at which the race was detected
	Prov    Provenance
}

// String implements fmt.Stringer: the kind, the reducer (quoted) of a
// view-read race or the address (hex) of any other, and both accesses.
func (r Race) String() string {
	b := make([]byte, 0, 160)
	b = append(b, r.Kind.String()...)
	if r.Kind == ViewRead {
		b = append(b, " on reducer "...)
		b = strconv.AppendQuote(b, r.Reducer)
	} else {
		b = append(b, " at 0x"...)
		b = strconv.AppendUint(b, uint64(r.Addr), 16)
	}
	b = append(b, ": "...)
	b = r.First.appendText(b)
	b = append(b, " vs "...)
	b = r.Second.appendText(b)
	return string(b)
}

// raceKey dedups repeated reports of the same logical race. Detectors fire
// once per offending access, which in loops can repeat; the report keeps
// one representative per (kind, location, frame pair) and counts the rest.
type raceKey struct {
	kind          Kind
	addr          mem.Addr
	reducer       string
	first, second cilk.FrameID
}

// Report accumulates races from one detector run.
type Report struct {
	// Limit bounds the number of distinct races retained (0 = default 1024).
	Limit int

	races []Race
	seen  map[raceKey]int
	total int
}

// Admit counts one race report and decides whether the caller must
// materialize it: it returns true only for a race whose dedup key
// (kind, addr, reducer, first, second) is new and that fits under Limit.
// Admit does not allocate for a duplicate, nor for a new key once the
// dedup table has capacity for it.
//
// A detector whose races render spawn paths (Lineage.Path) or other
// derived text must call Admit at the race site before it builds the
// Race, and pass each admitted race to Keep: most reports are duplicates
// or fall past the limit, and rendering two accesses costs far more than
// detecting the race. A detector whose Race is a copy of fields it
// already holds may call Add instead.
func (rp *Report) Admit(kind Kind, addr mem.Addr, reducer string, first, second cilk.FrameID) bool {
	rp.total++
	if rp.seen == nil {
		rp.seen = make(map[raceKey]int)
	}
	k := raceKey{kind: kind, addr: addr, reducer: reducer, first: first, second: second}
	if n, dup := rp.seen[k]; dup {
		rp.seen[k] = n + 1
		return false
	}
	rp.seen[k] = 1
	limit := rp.Limit
	if limit == 0 {
		limit = 1024
	}
	return len(rp.races) < limit
}

// Keep retains a race that Admit accepted, in detection order. r's key
// fields must be the ones Admit was called with.
func (rp *Report) Keep(r Race) { rp.races = append(rp.races, r) }

// Add records a fully built race: Admit on its key, then Keep. It serves
// tests and detectors whose races cost nothing to build; see Admit.
func (rp *Report) Add(r Race) {
	if rp.Admit(r.Kind, r.Addr, r.Reducer, r.First.Frame, r.Second.Frame) {
		rp.Keep(r)
	}
}

// Races returns the retained distinct races in detection order.
func (rp *Report) Races() []Race { return rp.races }

// Clone returns an independent copy of the report; adding to either side
// afterward leaves the other unchanged.
func (rp *Report) Clone() *Report {
	out := &Report{Limit: rp.Limit, total: rp.total}
	out.races = append(make([]Race, 0, len(rp.races)), rp.races...)
	if rp.seen != nil {
		out.seen = make(map[raceKey]int, len(rp.seen))
		for k, v := range rp.seen {
			out.seen[k] = v
		}
	}
	return out
}

// CopyFrom makes rp an independent copy of src, reusing rp's allocations
// where possible.
func (rp *Report) CopyFrom(src *Report) {
	rp.Limit = src.Limit
	rp.total = src.total
	rp.races = append(rp.races[:0], src.races...)
	if rp.seen != nil {
		clear(rp.seen)
	}
	if src.seen != nil {
		if rp.seen == nil {
			rp.seen = make(map[raceKey]int, len(src.seen))
		}
		for k, v := range src.seen {
			rp.seen[k] = v
		}
	}
}

// Reset empties the report, keeping allocated capacity for reuse.
func (rp *Report) Reset() {
	rp.races = rp.races[:0]
	clear(rp.seen)
	rp.total = 0
}

// Total returns the total number of race reports, counting duplicates.
func (rp *Report) Total() int { return rp.total }

// Distinct returns the number of distinct races seen.
func (rp *Report) Distinct() int { return len(rp.seen) }

// Empty reports whether no race was detected.
func (rp *Report) Empty() bool { return rp.total == 0 }

// HasKind reports whether any race of kind k was detected.
func (rp *Report) HasKind(k Kind) bool {
	for _, r := range rp.races {
		if r.Kind == k {
			return true
		}
	}
	return false
}

// Summary renders a human-readable digest.
func (rp *Report) Summary() string {
	if rp.Empty() {
		return "no races detected"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d distinct race(s), %d report(s) total:\n", rp.Distinct(), rp.Total())
	lines := make([]string, 0, len(rp.races))
	for _, r := range rp.races {
		lines = append(lines, "  "+r.String())
	}
	sort.Strings(lines)
	b.WriteString(strings.Join(lines, "\n"))
	return b.String()
}

// Detector is a race-detection algorithm driven by the cilk event stream.
type Detector interface {
	cilk.Hooks
	// Name identifies the algorithm ("peer-set", "sp-bags", "sp+").
	Name() string
	// Report returns the races accumulated so far.
	Report() *Report
}

// Stats is the bookkeeping account of a disjoint-set-based detector: the
// number of Find and Union operations performed (each amortized O(α)) and
// the number of set elements created. The paper's Theorem 1 and Theorem 5
// bounds are, concretely, Finds+Unions = O(events) with the α factor
// hidden in each operation.
type Stats struct {
	Elems  int
	Finds  uint64
	Unions uint64
}

// StatsProvider is implemented by detectors that expose their accounting.
type StatsProvider interface {
	Stats() Stats
}

// EventCountsProvider is implemented by detectors that account for the
// event classes they consumed (obs.EventCounts), the measurement substrate
// behind the Figure 7/8 per-class overhead breakdown.
type EventCountsProvider interface {
	EventCounts() obs.EventCounts
}
