package dsu

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMakeSetSingleton(t *testing.T) {
	f := NewForest(4)
	a := f.MakeSet(10)
	b := f.MakeSet(20)
	if f.Same(a, b) {
		t.Fatal("fresh sets must be disjoint")
	}
	if got := f.Payload(a); got != 10 {
		t.Fatalf("payload(a) = %v, want 10", got)
	}
	if got := f.Payload(b); got != 20 {
		t.Fatalf("payload(b) = %v, want 20", got)
	}
}

func TestUnionKeepsDstPayload(t *testing.T) {
	f := NewForest(4)
	a := f.MakeSet(1)
	b := f.MakeSet(2)
	f.Union(a, b)
	if !f.Same(a, b) {
		t.Fatal("union failed")
	}
	if got := f.Payload(b); got != 1 {
		t.Fatalf("payload after union = %v, want 1 (dst payload survives)", got)
	}
}

func TestUnionChainPayload(t *testing.T) {
	// Repeatedly union singletons into a growing set; payload must always be
	// the original destination's, regardless of which root rank picks.
	f := NewForest(64)
	dst := f.MakeSet(-7)
	for i := int32(0); i < 50; i++ {
		e := f.MakeSet(i)
		f.Union(dst, e)
		if got := f.Payload(e); got != -7 {
			t.Fatalf("after union %d payload = %v, want -7", i, got)
		}
	}
}

func TestUnionSelf(t *testing.T) {
	f := NewForest(2)
	a := f.MakeSet(5)
	if r := f.Union(a, a); r != f.Find(a) {
		t.Fatal("self union should be a no-op returning the root")
	}
	if f.Payload(a) != 5 {
		t.Fatal("self union must not drop payload")
	}
}

func TestSetPayload(t *testing.T) {
	f := NewForest(2)
	a := f.MakeSet(1)
	b := f.MakeSet(99)
	f.Union(a, b)
	f.SetPayload(b, 2)
	if got := f.Payload(a); got != 2 {
		t.Fatalf("payload = %v, want 2", got)
	}
}

func TestFindCompresses(t *testing.T) {
	f := NewForest(1024)
	elems := make([]Elem, 1000)
	for i := range elems {
		elems[i] = f.MakeSet(0)
	}
	for i := 1; i < len(elems); i++ {
		f.Union(elems[0], elems[i])
	}
	root := f.Find(elems[0])
	for _, e := range elems {
		if f.Find(e) != root {
			t.Fatal("all elements must share one root")
		}
	}
	// After compression every node points at the root directly.
	for _, e := range elems {
		if p := f.nodes[e].parent; p != root {
			t.Fatalf("node %d parent = %d, want root %d after compression", e, p, root)
		}
	}
}

// refDSU is a trivially correct reference: set membership by map coloring.
type refDSU struct {
	color   map[int]int
	payload map[int]int32
	next    int
}

func newRefDSU() *refDSU {
	return &refDSU{color: map[int]int{}, payload: map[int]int32{}}
}

func (r *refDSU) makeSet(p int32) int {
	id := r.next
	r.next++
	r.color[id] = id
	r.payload[id] = p
	return id
}

func (r *refDSU) union(dst, src int) {
	cd, cs := r.color[dst], r.color[src]
	if cd == cs {
		return
	}
	keep := r.payload[cd]
	for k, c := range r.color {
		if c == cs {
			r.color[k] = cd
		}
	}
	delete(r.payload, cs)
	r.payload[cd] = keep
}

func (r *refDSU) same(a, b int) bool { return r.color[a] == r.color[b] }

func (r *refDSU) pay(e int) int32 { return r.payload[r.color[e]] }

// TestQuickAgainstReference drives Forest and a reference implementation with
// the same random operation sequence and requires identical observable
// behaviour (Same and Payload on random pairs).
func TestQuickAgainstReference(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := NewForest(0)
		ref := newRefDSU()
		var elems []Elem
		var refs []int
		for op := 0; op < 300; op++ {
			switch {
			case len(elems) < 2 || rng.Intn(3) == 0:
				p := rng.Int31n(1000)
				elems = append(elems, f.MakeSet(p))
				refs = append(refs, ref.makeSet(p))
			default:
				i, j := rng.Intn(len(elems)), rng.Intn(len(elems))
				f.Union(elems[i], elems[j])
				ref.union(refs[i], refs[j])
			}
			a, b := rng.Intn(len(elems)), rng.Intn(len(elems))
			if f.Same(elems[a], elems[b]) != ref.same(refs[a], refs[b]) {
				return false
			}
			if f.Payload(elems[a]) != ref.pay(refs[a]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveForestMatchesForest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := NewForest(0)
	n := NewNaiveForest()
	var fe []Elem
	var ne []Elem
	for op := 0; op < 500; op++ {
		if len(fe) < 2 || rng.Intn(3) == 0 {
			p := rng.Int31n(100)
			fe = append(fe, f.MakeSet(p))
			ne = append(ne, n.MakeSet(p))
		} else {
			i, j := rng.Intn(len(fe)), rng.Intn(len(fe))
			f.Union(fe[i], fe[j])
			n.Union(ne[i], ne[j])
		}
		a, b := rng.Intn(len(fe)), rng.Intn(len(fe))
		if f.Same(fe[a], fe[b]) != (n.Find(ne[a]) == n.Find(ne[b])) {
			t.Fatal("naive and fast forests disagree on Same")
		}
		if f.Payload(fe[a]) != n.Payload(ne[a]) {
			t.Fatal("naive and fast forests disagree on Payload")
		}
	}
}

func TestStats(t *testing.T) {
	f := NewForest(4)
	a := f.MakeSet(0)
	b := f.MakeSet(0)
	f.Union(a, b)
	f.Find(a)
	finds, unions := f.Stats()
	if unions != 1 {
		t.Fatalf("unions = %d, want 1", unions)
	}
	if finds < 3 { // two inside Union, one explicit
		t.Fatalf("finds = %d, want >= 3", finds)
	}
}

type attr struct {
	kind int8
	vid  int64
}

// TestBagsReleaseOnlyWhenEmpty: an emptied bag's slot is reused by the
// next New; a bag that still has members keeps its slot and attributes,
// so those members go on reporting them.
func TestBagsReleaseOnlyWhenEmpty(t *testing.T) {
	var bags Bags[attr]
	s := bags.New(attr{kind: 0})
	p := bags.New(attr{kind: 1, vid: 3})
	e := bags.Add(p)
	bags.Release(p) // still holds e: must not be reused
	if q := bags.New(attr{kind: 2}); q == p {
		t.Fatalf("New reused non-empty bag %d", p)
	}
	if got := bags.AttrOf(e); got != (attr{kind: 1, vid: 3}) {
		t.Fatalf("AttrOf(e) = %+v after releasing a non-empty bag", got)
	}
	bags.UnionInto(s, p)
	if bags.Of(e) != s {
		t.Fatalf("Of(e) = %d, want %d after UnionInto", bags.Of(e), s)
	}
	bags.Release(p) // now empty: the next New takes its slot
	if q := bags.New(attr{kind: 1, vid: 9}); q != p || bags.Attr(q) != (attr{kind: 1, vid: 9}) {
		t.Fatalf("New = %d %+v, want reused slot %d with fresh attributes", q, bags.Attr(q), p)
	}
	if got := bags.AttrOf(e); got != (attr{kind: 0}) {
		t.Fatalf("AttrOf(e) = %+v, want the S bag's", got)
	}
	if bags.Ops() != 2 {
		t.Fatalf("Ops = %d, want 2 (one Add, one non-empty union)", bags.Ops())
	}
	bags.UnionInto(s, p) // empty source: free and uncounted
	if bags.Ops() != 2 {
		t.Fatalf("Ops = %d after an empty union, want 2", bags.Ops())
	}
}

// TestBagsCopyFrom: a copy carries members, attributes, the free list and
// counters, and the two tables evolve independently afterwards — also
// when the destination was a dirty table with more slots than the source.
func TestBagsCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var src, dirty Bags[attr]
	for i := 0; i < 40; i++ {
		b := dirty.New(attr{kind: int8(i % 3)})
		dirty.Add(b)
		if i%2 == 0 {
			dirty.Release(b)
		}
	}
	var live []Bag
	var elems []Elem
	for i := 0; i < 200; i++ {
		switch {
		case len(live) < 2 || rng.Intn(4) == 0:
			live = append(live, src.New(attr{kind: int8(rng.Intn(3)), vid: int64(i)}))
		case rng.Intn(2) == 0:
			elems = append(elems, src.Add(live[rng.Intn(len(live))]))
		default:
			i, j := rng.Intn(len(live)), rng.Intn(len(live))
			if i != j {
				src.UnionInto(live[i], live[j])
				src.Release(live[j])
				live = append(live[:j], live[j+1:]...)
			}
		}
	}
	dirty.CopyFrom(&src)
	check := func(what string) {
		t.Helper()
		for _, e := range elems {
			if dirty.Of(e) != src.Of(e) || dirty.AttrOf(e) != src.AttrOf(e) {
				t.Fatalf("%s: element %d in bag %d %+v, source has %d %+v",
					what, e, dirty.Of(e), dirty.AttrOf(e), src.Of(e), src.AttrOf(e))
			}
		}
		if dirty.Ops() != src.Ops() || dirty.Len() != src.Len() {
			t.Fatalf("%s: ops/len %d/%d, source %d/%d", what, dirty.Ops(), dirty.Len(), src.Ops(), src.Len())
		}
		if a, b := dirty.New(attr{}), src.New(attr{}); a != b {
			t.Fatalf("%s: copies hand out slot %d vs %d", what, a, b)
		}
	}
	check("after copy")
	// Mutate the copy only; the source must not move.
	before := make([]Bag, len(elems))
	for i, e := range elems {
		before[i] = src.Of(e)
	}
	target := dirty.New(attr{kind: 1})
	for _, b := range live {
		dirty.UnionInto(target, b)
	}
	for i, e := range elems {
		if src.Of(e) != before[i] {
			t.Fatalf("mutating the copy moved source element %d", e)
		}
	}
}

func BenchmarkAblationPathCompression(b *testing.B) {
	const n = 1 << 12
	b.Run("forest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := NewForest(n)
			elems := make([]Elem, n)
			for j := range elems {
				elems[j] = f.MakeSet(0)
			}
			for j := 1; j < n; j++ {
				f.Union(elems[j], elems[j-1])
			}
			for j := 0; j < n; j++ {
				f.Find(elems[j])
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := NewNaiveForest()
			elems := make([]Elem, n)
			for j := range elems {
				elems[j] = f.MakeSet(0)
			}
			for j := 1; j < n; j++ {
				f.Union(elems[j], elems[j-1])
			}
			for j := 0; j < n; j++ {
				f.Find(elems[j])
			}
		}
	})
}
