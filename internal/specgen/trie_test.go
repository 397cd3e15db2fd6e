package specgen

import (
	"reflect"
	"testing"

	"repro/internal/cilk"
	"repro/internal/sched"
)

// flatProbes synthesizes the probe sequence of a flat program with k
// spawns in one sync block: probe i has Index i, PDepth i, Seq i.
func flatProbes(k int) []ProbeRecord {
	probes := make([]ProbeRecord, k)
	for i := range probes {
		probes[i] = ProbeRecord{
			Frame: 1, Label: "w", Depth: 1, SyncBlock: 1,
			Index: i + 1, Seq: i + 1, PDepth: i + 1,
		}
	}
	return probes
}

func groupOfSpec(t *testing.T, tr *Trie, specs []cilk.StealSpec, target cilk.StealSpec) int {
	t.Helper()
	for i, s := range specs {
		if reflect.DeepEqual(s, target) {
			for g, members := range tr.Groups {
				for _, m := range members {
					if m == i {
						return g
					}
				}
			}
			t.Fatalf("spec %v in no group", target)
		}
	}
	t.Fatalf("spec %v not in family", target)
	return -1
}

// On a flat program, ByDepth{d} and Single{d} steal exactly the same
// continuation, so the trie must collapse them into one group — while
// Pair and its middle-first twin share a decision vector but not a reduce
// mode, and must stay apart.
func TestTrieGroupsFlatFamily(t *testing.T) {
	const k = 3
	probes := flatProbes(k)
	profile := Profile{MaxPDepth: k, MaxSyncBlock: k, CilkDepth: 2}
	specs := All(profile)
	tr := BuildTrie(specs, probes)

	if len(tr.Groups) >= len(specs) {
		t.Fatalf("no dedup: %d groups for %d specs", len(tr.Groups), len(specs))
	}
	for d := 1; d <= k; d++ {
		gb := groupOfSpec(t, tr, specs, sched.ByDepth{D: d})
		gs := groupOfSpec(t, tr, specs, sched.Single{A: d})
		if gb != gs {
			t.Errorf("ByDepth{%d} in group %d, Single{%d} in group %d; want shared", d, gb, d, gs)
		}
	}
	eager := groupOfSpec(t, tr, specs, sched.Pair{A: 1, B: 2})
	mid := groupOfSpec(t, tr, specs, sched.Pair{A: 1, B: 2, Mid: true})
	if eager == mid {
		t.Error("Pair and Pair-Mid share a group despite different reduce modes")
	}

	// Every group's members answer identically at every probe.
	for g, members := range tr.Groups {
		want := DecisionVector(specs[members[0]], probes)
		for _, m := range members[1:] {
			if got := DecisionVector(specs[m], probes); !reflect.DeepEqual(got, want) {
				t.Errorf("group %d member %d has vector %v, want %v", g, m, got, want)
			}
		}
	}
}

// Structural invariants: the leaves partition the groups, the leftmost
// leaf is the all-serial group (spec 0, NoSteals), every branch node
// splits at a strictly increasing probe sequence, and building twice
// yields the same trie.
func TestTrieStructure(t *testing.T) {
	probes := flatProbes(4)
	profile := Profile{MaxPDepth: 4, MaxSyncBlock: 4, CilkDepth: 2}
	specs := All(profile)
	tr := BuildTrie(specs, probes)

	leaves := tr.Root.Leaves(nil)
	if len(leaves) != len(tr.Groups) {
		t.Fatalf("%d leaves for %d groups", len(leaves), len(tr.Groups))
	}
	seen := map[int]bool{}
	for _, g := range leaves {
		if seen[g] {
			t.Fatalf("group %d appears under two leaves", g)
		}
		seen[g] = true
	}
	if tr.Groups[leaves[0]][0] != 0 {
		t.Fatalf("leftmost leaf covers spec %d, want 0 (NoSteals)", tr.Groups[leaves[0]][0])
	}

	var walk func(n *TrieNode, minSeq int)
	walk = func(n *TrieNode, minSeq int) {
		if n.IsLeaf() {
			return
		}
		if n.Seq < minSeq || n.Seq > len(probes) {
			t.Fatalf("branch at seq %d outside (%d, %d]", n.Seq, minSeq, len(probes))
		}
		if len(n.Children) < 2 {
			t.Fatalf("branch at seq %d has %d children", n.Seq, len(n.Children))
		}
		for _, c := range n.Children {
			walk(c, n.Seq+1)
		}
	}
	walk(tr.Root, 1)

	again := BuildTrie(specs, probes)
	if !reflect.DeepEqual(tr.Groups, again.Groups) || !reflect.DeepEqual(tr.Root, again.Root) {
		t.Fatal("two builds of the same family disagree")
	}
}

// A probe-free program collapses the whole family to one leaf: with no
// continuations there is nothing to decide, so every spec shares the
// all-empty decision vector.
func TestTrieNoProbes(t *testing.T) {
	specs := All(Profile{})
	tr := BuildTrie(specs, nil)
	if len(tr.Groups) != 1 {
		t.Fatalf("%d groups for a probe-free program, want 1", len(tr.Groups))
	}
	if !tr.Root.IsLeaf() {
		t.Fatal("root is not a leaf")
	}
}

// Matches accepts exactly the recorded probe and rejects perturbations of
// each discriminating field.
func TestProbeRecordMatches(t *testing.T) {
	p := ProbeRecord{Frame: 3, Label: "w", Depth: 2, SyncBlock: 1, Index: 2, Seq: 5, PDepth: 4}
	ci := cilk.ContInfo{
		Frame: &cilk.Frame{ID: 3}, Label: "w", Depth: 2, SyncBlock: 1,
		Index: 2, Seq: 5, PDepth: 4,
	}
	if !p.Matches(ci) {
		t.Fatal("recorded probe rejected")
	}
	bad := ci
	bad.Index = 3
	if p.Matches(bad) {
		t.Error("Index perturbation accepted")
	}
	bad = ci
	bad.Seq = 6
	if p.Matches(bad) {
		t.Error("Seq perturbation accepted")
	}
	bad = ci
	bad.Frame = &cilk.Frame{ID: 4}
	if p.Matches(bad) {
		t.Error("Frame perturbation accepted")
	}
	bad = ci
	bad.Frame = nil
	if p.Matches(bad) {
		t.Error("nil frame accepted")
	}
}

// BuildTrieIndexed's allocations per specification must not grow with
// the probe count: each probe's ContInfo is built once per trie, so a
// specification costs its bitset and group key whatever the probe count.
func TestBuildTrieIndexedAllocsPerSpec(t *testing.T) {
	const count = 64
	specs := make([]cilk.StealSpec, count)
	for i := range specs {
		specs[i] = sched.Single{A: 1 + i%2}
	}
	at := func(i int) cilk.StealSpec { return specs[i] }
	perSpec := func(k int) float64 {
		probes := flatProbes(k)
		return testing.AllocsPerRun(20, func() { BuildTrieIndexed(count, at, probes) }) / count
	}
	small, large := perSpec(16), perSpec(256)
	if large-small >= 1 {
		t.Fatalf("allocs per spec grew from %.2f at 16 probes to %.2f at 256", small, large)
	}
}
