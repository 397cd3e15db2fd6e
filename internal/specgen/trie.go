// The steal-decision trie groups the §7 specification family by longest
// common prefix of steal decisions. For an ostensibly deterministic
// program the continuation-probe sequence is schedule-independent: every
// specification is asked ShouldSteal at the same probes, in the same
// order, with the same ContInfo. Two specifications that answer the same
// way up to probe t therefore produce bit-identical instrumentation-event
// prefixes up to probe t — the invariant the prefix-sharing sweep exploits
// by snapshotting detector state at trie branch points instead of
// re-analysing the shared prefix once per specification.
//
// Reduce ordering complicates sharing only after the first steal: with no
// views beyond the leftmost there is nothing to reduce, so ReduceOrder and
// ReduceScheduler cannot influence the stream. The trie's edge keys encode
// exactly that: decisions share freely while no steal has occurred, and
// once one has, the key conservatively incorporates the specification's
// reduce mode so only schedules with identical post-steal semantics keep
// sharing.
package specgen

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/cilk"
)

// ProbeRecord captures the scalar identity of one continuation probe from
// a recording run, enough to re-evaluate any steal specification offline
// and to verify a later run replays the same probe sequence.
type ProbeRecord struct {
	Frame     cilk.FrameID
	Label     string
	Depth     int
	SyncBlock int
	Index     int
	Seq       int
	PDepth    int
}

// Matches reports whether a live probe is the recorded one. A mismatch
// means the program is not ostensibly deterministic (its spawn structure
// changed across runs), which invalidates prefix sharing for the run.
func (p ProbeRecord) Matches(ci cilk.ContInfo) bool {
	return ci.Seq == p.Seq && ci.Index == p.Index && ci.SyncBlock == p.SyncBlock &&
		ci.PDepth == p.PDepth && ci.Depth == p.Depth &&
		ci.Frame != nil && ci.Frame.ID == p.Frame
}

type recordingSpec struct {
	pr     *profiler
	probes *[]ProbeRecord
}

func (s recordingSpec) ShouldSteal(ci cilk.ContInfo) bool {
	s.pr.observe(ci)
	*s.probes = append(*s.probes, ProbeRecord{
		Frame: ci.Frame.ID, Label: ci.Label, Depth: ci.Depth,
		SyncBlock: ci.SyncBlock, Index: ci.Index, Seq: ci.Seq, PDepth: ci.PDepth,
	})
	return false
}

func (s recordingSpec) Order() cilk.ReduceOrder { return cilk.ReduceAtSync }

// MeasureProbes is Measure plus a recording of every continuation probe in
// serial order — the single profiling run the prefix-sharing sweep builds
// its trie from.
func MeasureProbes(prog func(*cilk.Ctx)) (Profile, []ProbeRecord) {
	pr := &profiler{}
	var probes []ProbeRecord
	cilk.Run(prog, cilk.Config{Spec: recordingSpec{pr: pr, probes: &probes}})
	return pr.p, probes
}

// contInfos rebuilds the ContInfo each recorded probe presented, so any
// number of specifications can be asked ShouldSteal offline without
// allocating per question. The frames are rebuilt from the record's scalar
// fields and shared by every caller, which only reads them.
func contInfos(probes []ProbeRecord) []cilk.ContInfo {
	frames := make([]cilk.Frame, len(probes))
	cis := make([]cilk.ContInfo, len(probes))
	for i, p := range probes {
		frames[i] = cilk.Frame{ID: p.Frame, Label: p.Label, Depth: p.Depth, SyncBlock: p.SyncBlock}
		cis[i] = cilk.ContInfo{
			Frame: &frames[i], Label: p.Label, Depth: p.Depth, SyncBlock: p.SyncBlock,
			Index: p.Index, Seq: p.Seq, PDepth: p.PDepth,
		}
	}
	return cis
}

// DecisionVector evaluates spec offline over the recorded probes: element
// i is ShouldSteal's answer at probe i+1. Specifications in the §7 family
// decide from the probe's scalar fields alone, so offline evaluation
// agrees with a live run.
func DecisionVector(spec cilk.StealSpec, probes []ProbeRecord) []bool {
	vec := make([]bool, len(probes))
	for i, ci := range contInfos(probes) {
		vec[i] = spec.ShouldSteal(ci)
	}
	return vec
}

// TrieNode is one node of the steal-decision trie. A branch node carries
// the probe sequence number its children decide differently at and its
// children ordered shared-prefix-first (the no-steal edge, when present,
// is Children[0]); a leaf carries the specification group it covers.
//
// Nodes built by BuildTrieIndexed start unexpanded: the group partition
// and divergence scan run only when Trie.Expand materializes a node's
// children, so a sweep that never reaches a subtree (deadline skip,
// sampling) never pays for its structure. BuildTrie expands everything,
// matching the original eager construction exactly.
type TrieNode struct {
	Seq      int
	Children []*TrieNode
	Group    int

	// groups is the unexpanded cover set (nil once expanded, or for a
	// leaf); scanFrom is the probe sequence the divergence scan resumes at.
	groups   []int
	scanFrom int
}

// IsLeaf reports whether the node covers a single specification group.
func (n *TrieNode) IsLeaf() bool { return len(n.Children) == 0 && len(n.groups) == 0 }

// Leaves appends the group indices of every leaf under n, leftmost first.
// An unexpanded node reports its cover set without materializing children
// (in partition order, which is only guaranteed to be leftmost-first once
// expanded) — the deadline-skip path settles whole subtrees this way
// without forcing their structure.
func (n *TrieNode) Leaves(out []int) []int {
	if len(n.groups) > 0 {
		return append(out, n.groups...)
	}
	if n.IsLeaf() {
		return append(out, n.Group)
	}
	for _, c := range n.Children {
		out = c.Leaves(out)
	}
	return out
}

// Trie is the steal-decision trie over one specification family.
type Trie struct {
	// Probes is the recorded continuation-probe sequence.
	Probes []ProbeRecord
	// Groups partitions specification indices by identical (decision
	// vector, reduce mode): every spec in a group produces the same event
	// stream, so one run's verdict serves them all. Indices within a group
	// and groups themselves are in specification order.
	Groups [][]int
	// Root covers every group. It is a leaf when the family collapses to
	// one group (e.g. a program with no continuations).
	Root *TrieNode

	bits       [][]byte // per group, the packed decision bitset (bit j = probe j+1 steals)
	firstSteal []int    // per group, seq of first steal (len(Probes)+1 = none)
}

// stealAt reports group g's decision at probe seq (1-based).
func (t *Trie) stealAt(g, seq int) bool {
	return t.bits[g][(seq-1)>>3]&(1<<((seq-1)&7)) != 0
}

// modeKey fingerprints the schedule semantics that can influence the event
// stream once a steal has occurred. Specifications that schedule their own
// reductions get a unique key (their timing is not computable offline), so
// they never share past their first steal — conservative but safe.
func modeKey(spec cilk.StealSpec, idx int) string {
	if _, ok := spec.(cilk.ReduceScheduler); ok {
		return fmt.Sprintf("rs%d", idx)
	}
	return fmt.Sprintf("o%d", spec.Order())
}

// BuildTrie evaluates every specification over the recorded probes and
// builds the decision trie, fully expanded — the eager construction the
// original prefix-sharing sweep used, kept for callers (and tests) that
// want the whole structure up front. It is BuildTrieIndexed over the slice
// plus a full expansion, so the two constructions are structurally
// identical by definition.
func BuildTrie(specs []cilk.StealSpec, probes []ProbeRecord) *Trie {
	t := BuildTrieIndexed(len(specs), func(i int) cilk.StealSpec { return specs[i] }, probes)
	t.ExpandAll(t.Root)
	return t
}

// BuildTrieIndexed groups a virtual specification sequence — count members
// fetched one at a time through at, typically Family.At or a sampled
// remapping of it — by identical (decision bitset, reduce mode), and
// returns a trie whose root is unexpanded: subtree structure materializes
// through Expand only when a sweep unit actually walks it. Each member is
// held only while its bitset is packed, so a 10^4+-spec family never
// exists as a slice. The probes' ContInfos are built once per trie, not
// once per specification.
func BuildTrieIndexed(count int, at func(int) cilk.StealSpec, probes []ProbeRecord) *Trie {
	t := &Trie{Probes: probes}
	groupOf := make(map[string]int)
	nb := (len(probes) + 7) / 8
	cis := contInfos(probes)
	for i := 0; i < count; i++ {
		spec := at(i)
		bits := make([]byte, nb)
		first := len(probes) + 1
		for j := range cis {
			if spec.ShouldSteal(cis[j]) {
				bits[j>>3] |= 1 << (j & 7)
				if first > len(probes) {
					first = j + 1
				}
			}
		}
		gk := string(bits)
		if first <= len(probes) {
			// Reduce mode only matters once a steal occurs; all-serial
			// vectors coincide regardless of mode.
			gk += "|" + modeKey(spec, i)
		}
		g, ok := groupOf[gk]
		if !ok {
			g = len(t.Groups)
			groupOf[gk] = g
			t.Groups = append(t.Groups, nil)
			t.bits = append(t.bits, bits)
			t.firstSteal = append(t.firstSteal, first)
		}
		t.Groups[g] = append(t.Groups[g], i)
	}
	all := make([]int, len(t.Groups))
	for g := range all {
		all[g] = g
	}
	t.Root = t.newNode(all, 1)
	return t
}

// newNode covers a group set whose divergence scan starts at scanFrom. A
// single-group set is a leaf immediately; anything larger stays unexpanded
// until Expand partitions it.
func (t *Trie) newNode(groups []int, scanFrom int) *TrieNode {
	if len(groups) == 1 {
		return &TrieNode{Group: groups[0]}
	}
	return &TrieNode{groups: groups, scanFrom: scanFrom}
}

// edgeKey is the trie edge label of group g's decision at probe seq:
// decisions share freely while no steal has occurred on the path ("0");
// after the first steal the group identity joins the key (the
// representative's reduce mode was folded into the group key, so distinct
// modes are already distinct groups), and only schedules with identical
// post-steal semantics stay on one path. Keys sort with the no-steal edge
// first ("0" < "0|…" < "1|…").
func (t *Trie) edgeKey(g, seq int) string {
	steal := t.stealAt(g, seq)
	prior := t.firstSteal[g] < seq
	switch {
	case !steal && !prior:
		return "0"
	case !steal:
		return "0|g" + strconv.Itoa(g)
	default:
		return "1|g" + strconv.Itoa(g)
	}
}

// Expand materializes n's children: scan probes from the node's resume
// point until the cover set's edge keys diverge, then partition. It is
// idempotent and a no-op on leaves and already-expanded nodes. Callers
// must serialize expansion of a given node themselves; the sweep gets this
// for free because a node is only ever walked by the one unit that covers
// it, and units hand nodes to other workers only through the deque's
// mutex.
func (t *Trie) Expand(n *TrieNode) {
	if n.Children != nil || len(n.groups) == 0 {
		return
	}
	groups := n.groups
	for seq := n.scanFrom; seq <= len(t.Probes); seq++ {
		byKey := make(map[string][]int)
		var keys []string
		for _, g := range groups {
			k := t.edgeKey(g, seq)
			if _, ok := byKey[k]; !ok {
				keys = append(keys, k)
			}
			byKey[k] = append(byKey[k], g)
		}
		if len(keys) == 1 {
			continue
		}
		sort.Strings(keys)
		n.Seq = seq
		n.Children = make([]*TrieNode, 0, len(keys))
		for _, k := range keys {
			n.Children = append(n.Children, t.newNode(byKey[k], seq+1))
		}
		n.groups = nil
		return
	}
	// Distinct groups share every edge key: possible only when vectors are
	// identical and modes differ without any steal — excluded by grouping —
	// so reaching here is a construction bug.
	panic(fmt.Sprintf("specgen: trie groups %v never diverge", groups))
}

// ExpandAll expands the whole subtree under n.
func (t *Trie) ExpandAll(n *TrieNode) {
	t.Expand(n)
	for _, c := range n.Children {
		t.ExpandAll(c)
	}
}
