// Package dsu implements a fast disjoint-set (union-find) data structure
// with union by rank and path compression, following CLRS chapter 21, and
// on top of it the table of "bags" that the Peer-Set, SP-bags and SP+
// algorithms keep their procedure IDs in. Each set root carries an int32
// payload, the index of its bag, so finding the bag that holds an element
// is a Find plus one slice load.
//
// Amortized cost per operation is O(alpha(n)), Tarjan's functional inverse
// of Ackermann's function, which is the alpha that appears in the paper's
// Theorem 1 and Theorem 5 running-time bounds.
package dsu

// Elem is the handle for one element of the universe. Elements are created
// by Forest.MakeSet and are meaningful only with the Forest that made them.
type Elem int32

// None is the zero Elem sentinel for "no element". MakeSet never returns it.
const None Elem = -1

type node struct {
	parent Elem
	rank   int8
}

// Forest is a collection of disjoint sets over elements it has created.
// The zero value is an empty forest ready for use.
type Forest struct {
	nodes   []node
	payload []int32 // payload[root] is the set's payload; stale elsewhere
	finds   uint64
	unions  uint64
}

// NewForest returns a forest with capacity preallocated for n elements.
func NewForest(n int) *Forest {
	return &Forest{
		nodes:   make([]node, 0, n),
		payload: make([]int32, 0, n),
	}
}

// Len reports how many elements have been created.
func (f *Forest) Len() int { return len(f.nodes) }

// MakeSet creates a fresh singleton set and returns its element. The new
// set's payload is p.
func (f *Forest) MakeSet(p int32) Elem {
	e := Elem(len(f.nodes))
	f.nodes = append(f.nodes, node{parent: e})
	f.payload = append(f.payload, p)
	return e
}

// Find returns the representative (root) of the set containing e,
// compressing the path along the way.
func (f *Forest) Find(e Elem) Elem {
	f.finds++
	root := e
	for f.nodes[root].parent != root {
		root = f.nodes[root].parent
	}
	for f.nodes[e].parent != root {
		e, f.nodes[e].parent = f.nodes[e].parent, root
	}
	return root
}

// Payload returns the payload attached to the set containing e.
func (f *Forest) Payload(e Elem) int32 {
	return f.payload[f.Find(e)]
}

// SetPayload replaces the payload of the set containing e.
func (f *Forest) SetPayload(e Elem, p int32) {
	f.payload[f.Find(e)] = p
}

// Union merges the set containing src into the set containing dst and
// returns the new root. The payload of dst's set survives; src's payload is
// dropped. This directed flavour is what the bag algorithms need: "union bag
// B into bag A" keeps A's identity (its kind and view ID).
func (f *Forest) Union(dst, src Elem) Elem {
	f.unions++
	rd, rs := f.Find(dst), f.Find(src)
	if rd == rs {
		return rd
	}
	keep := f.payload[rd]
	// Union by rank, then make sure the surviving root carries dst's payload.
	root := rd
	switch {
	case f.nodes[rd].rank < f.nodes[rs].rank:
		f.nodes[rd].parent = rs
		root = rs
	case f.nodes[rd].rank > f.nodes[rs].rank:
		f.nodes[rs].parent = rd
	default:
		f.nodes[rs].parent = rd
		f.nodes[rd].rank++
	}
	f.payload[root] = keep
	return root
}

// Same reports whether a and b are in the same set.
func (f *Forest) Same(a, b Elem) bool { return f.Find(a) == f.Find(b) }

// Stats reports the number of Find and Union operations performed, for the
// harness's accounting of detector work.
func (f *Forest) Stats() (finds, unions uint64) { return f.finds, f.unions }

// CopyFrom makes f an independent copy of src — parent links, ranks,
// payloads and operation counters — reusing f's slice capacity.
func (f *Forest) CopyFrom(src *Forest) {
	f.nodes = append(f.nodes[:0], src.nodes...)
	f.payload = append(f.payload[:0], src.payload...)
	f.finds, f.unions = src.finds, src.unions
}

// Reset empties the forest, keeping allocated capacity for reuse.
func (f *Forest) Reset() {
	f.nodes = f.nodes[:0]
	f.payload = f.payload[:0]
	f.finds, f.unions = 0, 0
}

// Bag is the index of one bag in a Bags table.
type Bag int32

// Bags is a table of bags: possibly empty disjoint sets of one Forest, each
// carrying attributes A (a bag kind, and for SP+ a view ID) that unions
// into it preserve. The forest payload of every non-empty bag's root is
// the bag's index, so Of is a Find plus one load.
//
// All state lives in flat slices — the forest, the bag slots and a free
// list of released slots — so CopyFrom is a handful of slice copies and a
// warmed table allocates nothing. The zero value is an empty table ready
// for use.
type Bags[A any] struct {
	forest Forest
	slots  []bagSlot[A]
	free   []Bag // released slots, reused last in, first out
	ops    uint64
}

type bagSlot[A any] struct {
	root Elem // a member of the bag, None when the bag is empty
	attr A
}

// New returns an empty bag with attributes a, reusing a released slot
// when there is one.
func (t *Bags[A]) New(a A) Bag {
	if n := len(t.free); n > 0 {
		b := t.free[n-1]
		t.free = t.free[:n-1]
		t.slots[b].attr = a
		return b
	}
	t.slots = append(t.slots, bagSlot[A]{root: None, attr: a})
	return Bag(len(t.slots) - 1)
}

// Add creates a fresh element and inserts it into bag b.
func (t *Bags[A]) Add(b Bag) Elem {
	t.ops++
	e := t.forest.MakeSet(int32(b))
	if s := &t.slots[b]; s.root == None {
		s.root = e
	} else {
		s.root = t.forest.Union(s.root, e)
	}
	return e
}

// UnionInto moves every member of src into dst, leaving src empty. The
// union keeps dst's attributes. Moving an empty bag is free and uncounted.
func (t *Bags[A]) UnionInto(dst, src Bag) {
	rs := t.slots[src].root
	if rs == None {
		return
	}
	t.ops++
	if d := &t.slots[dst]; d.root == None {
		d.root = rs
		t.forest.SetPayload(rs, int32(dst))
	} else {
		d.root = t.forest.Union(d.root, rs)
	}
	t.slots[src].root = None
}

// Release gives b's slot back for New to reuse — but only when b is
// empty. A bag that still holds members keeps its slot, so those members
// go on reporting b's attributes; a malformed stream that drops a Sync can
// leave such a bag behind.
func (t *Bags[A]) Release(b Bag) {
	if t.slots[b].root == None {
		t.free = append(t.free, b)
	}
}

// Of returns the bag holding element e.
func (t *Bags[A]) Of(e Elem) Bag { return Bag(t.forest.Payload(e)) }

// Attr returns bag b's attributes.
func (t *Bags[A]) Attr(b Bag) A { return t.slots[b].attr }

// AttrOf returns the attributes of the bag holding element e.
func (t *Bags[A]) AttrOf(e Elem) A { return t.slots[t.Of(e)].attr }

// Ops reports how many insertions and non-empty unions the table has
// performed, the detectors' bag-operation count.
func (t *Bags[A]) Ops() uint64 { return t.ops }

// Len reports how many elements the table's forest holds.
func (t *Bags[A]) Len() int { return t.forest.Len() }

// Stats reports the forest's Find and Union counts.
func (t *Bags[A]) Stats() (finds, unions uint64) { return t.forest.Stats() }

// CopyFrom makes t an independent copy of src, free list included,
// reusing t's slice capacity.
func (t *Bags[A]) CopyFrom(src *Bags[A]) {
	t.forest.CopyFrom(&src.forest)
	t.slots = append(t.slots[:0], src.slots...)
	t.free = append(t.free[:0], src.free...)
	t.ops = src.ops
}

// Reset empties the table, keeping allocated capacity for reuse.
func (t *Bags[A]) Reset() {
	t.forest.Reset()
	t.slots = t.slots[:0]
	t.free = t.free[:0]
	t.ops = 0
}

// NaiveForest is a linked-list disjoint-set without path compression or
// union by rank. It exists only as the ablation baseline for
// BenchmarkAblationPathCompression; production code uses Forest.
type NaiveForest struct {
	parent  []Elem
	payload []int32
}

// NewNaiveForest returns an empty naive forest.
func NewNaiveForest() *NaiveForest { return &NaiveForest{} }

// MakeSet creates a fresh singleton set with payload p.
func (f *NaiveForest) MakeSet(p int32) Elem {
	e := Elem(len(f.parent))
	f.parent = append(f.parent, e)
	f.payload = append(f.payload, p)
	return e
}

// Find returns the root of e's set without compressing.
func (f *NaiveForest) Find(e Elem) Elem {
	for f.parent[e] != e {
		e = f.parent[e]
	}
	return e
}

// Payload returns the payload of e's set.
func (f *NaiveForest) Payload(e Elem) int32 { return f.payload[f.Find(e)] }

// Union merges src's set into dst's, keeping dst's payload.
func (f *NaiveForest) Union(dst, src Elem) Elem {
	rd, rs := f.Find(dst), f.Find(src)
	if rd == rs {
		return rd
	}
	f.parent[rs] = rd
	return rd
}
