// The §7 family as a virtual sequence. All materializes every
// specification up front, which is fine at the paper's ~10^2 scale but
// wasteful at 10^4+ (a 100-continuation sync block yields 171k reduce
// specifications). Family exposes the identical family — same members,
// same order — as Len/At arithmetic over the profile, so the sweep can
// walk, group and sample specifications without ever holding the whole
// slice, and the budget-aware sampler can pick a subset by index alone.
package specgen

import (
	"fmt"
	"sort"

	"repro/internal/cilk"
	"repro/internal/sched"
)

// Family is the §7 coverage family of a profile as an indexable virtual
// sequence: index i of a Family equals element i of All(p), but members
// are constructed on demand. The layout is the update family (NoSteals,
// then ByDepth 1..M) followed by the reduce family (Singles, then the
// Pair/Pair-Mid interleaving in (a,b) order, then Triples in (i,j,l)
// order).
type Family struct {
	P Profile

	m, k                    int
	singles, pairs, triples int
}

// NewFamily returns the family of profile p.
func NewFamily(p Profile) *Family {
	k := p.MaxSyncBlock
	return &Family{
		P: p, m: p.MaxPDepth, k: k,
		singles: k, pairs: k * (k - 1), triples: Binomial3(k),
	}
}

// Len is the family size: 1 + M + K + 2·C(K,2) + C(K,3), the Θ(M + K³)
// of Theorems 6 and 7.
func (f *Family) Len() int { return 1 + f.m + f.singles + f.pairs + f.triples }

// At constructs member i. The mapping is pure arithmetic over the
// profile, so At(i) for the same profile always yields the same value —
// the property the sweep's determinism contract rests on.
func (f *Family) At(i int) cilk.StealSpec {
	if i < 0 || i >= f.Len() {
		panic(fmt.Sprintf("specgen: family index %d out of range [0,%d)", i, f.Len()))
	}
	if i == 0 {
		return cilk.NoSteals{}
	}
	i--
	if i < f.m {
		return sched.ByDepth{D: i + 1}
	}
	i -= f.m
	if i < f.singles {
		return sched.Single{A: i + 1}
	}
	i -= f.singles
	if i < f.pairs {
		a, b := f.pairAt(i / 2)
		return sched.Pair{A: a, B: b, Mid: i%2 == 1}
	}
	i -= f.pairs
	a, b, c := f.tripleAt(i)
	return sched.Triple{I: a, J: b, K: c}
}

// pairAt maps q ∈ [0, C(K,2)) to the q-th (a,b) pair in lexicographic
// order with 1 ≤ a < b ≤ K.
func (f *Family) pairAt(q int) (a, b int) {
	for a = 1; a <= f.k; a++ {
		if n := f.k - a; q < n {
			return a, a + 1 + q
		} else {
			q -= n
		}
	}
	panic("specgen: pair index out of range")
}

// tripleAt maps q ∈ [0, C(K,3)) to the q-th (i,j,l) triple in
// lexicographic order with 1 ≤ i < j < l ≤ K.
func (f *Family) tripleAt(q int) (i, j, l int) {
	for i = 1; i <= f.k; i++ {
		rest := f.k - i
		if n := rest * (rest - 1) / 2; q < n {
			for j = i + 1; j <= f.k; j++ {
				if n := f.k - j; q < n {
					return i, j, j + 1 + q
				} else {
					q -= n
				}
			}
		} else {
			q -= n
		}
	}
	panic("specgen: triple index out of range")
}

// FirstSteal evaluates spec offline over the recorded probes and returns
// the 1-based sequence number of its first steal, or len(probes)+1 when it
// steals nothing — the decision-prefix subtree the specification diverges
// into, and the stratum key of the coverage-guided sampler.
func FirstSteal(spec cilk.StealSpec, probes []ProbeRecord) int {
	for j, ci := range contInfos(probes) {
		if spec.ShouldSteal(ci) {
			return j + 1
		}
	}
	return len(probes) + 1
}

// SampleFamily picks n member indices from the family deterministically,
// coverage-guided: specifications are stratified by the sequence number of
// their first steal (each stratum is one divergence point — one subtree of
// the steal-decision trie), and the sample round-robins across strata so
// sparsely populated subtrees are weighted higher than their share of the
// family, keeping breadth of schedule coverage as the sample shrinks.
// Member 0 (the all-serial NoSteals schedule) is always kept: it anchors
// the Peer-Set piggyback and the base schedule's verdict. Order within a
// stratum is a seeded xorshift shuffle — never wall-clock randomness — so
// the same (family, probes, n, seed) always selects the same subset, in
// every sweep strategy. The returned indices are sorted ascending. When n
// is non-positive or covers the family, every index is returned.
func SampleFamily(f *Family, probes []ProbeRecord, n int, seed uint64) []int {
	total := f.Len()
	if n <= 0 || n >= total {
		all := make([]int, total)
		for i := range all {
			all[i] = i
		}
		return all
	}

	strata := make(map[int][]int)
	var keys []int
	for i := 0; i < total; i++ {
		fs := FirstSteal(f.At(i), probes)
		if _, ok := strata[fs]; !ok {
			keys = append(keys, fs)
		}
		strata[fs] = append(strata[fs], i)
	}
	sort.Ints(keys)
	for _, k := range keys {
		shuffle(strata[k], seed^uint64(k)*0x9e3779b97f4a7c15)
	}

	out := make([]int, 0, n)
	out = append(out, 0)
	taken := map[int]bool{0: true}
	for len(out) < n {
		progress := false
		for _, k := range keys {
			if len(out) >= n {
				break
			}
			s := strata[k]
			for len(s) > 0 && taken[s[0]] {
				s = s[1:]
			}
			if len(s) > 0 {
				out = append(out, s[0])
				taken[s[0]] = true
				s = s[1:]
				progress = true
			}
			strata[k] = s
		}
		if !progress {
			break
		}
	}
	sort.Ints(out)
	return out
}

// shuffle is a seeded Fisher-Yates over an xorshift64 stream.
func shuffle(s []int, seed uint64) {
	x := seed
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	for i := len(s) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		s[i], s[j] = s[j], s[i]
	}
}
