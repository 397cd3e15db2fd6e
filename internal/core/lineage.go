package core

import (
	"slices"
	"strings"

	"repro/internal/cilk"
)

// Lineage records, for each detector element (function instantiation or
// reduce invocation), its frame, label and parent element, so a race
// report can reconstruct the spawn path of each participant on demand —
// "main>update_list>insert" tells the user where the racing strand came
// from without any cost on the hot path.
//
// Element ids are dense and a parent's id is smaller than its children's
// (a parent is registered first), which is what lets the rendered-path
// memo be invalidated by truncation.
type Lineage struct {
	meta []lineageEntry
	// paths memoizes Path by element id ("" = not rendered yet). Entries
	// at and past a re-registered id are dropped, since every descendant
	// of that id sits at a larger index.
	paths []string
}

type lineageEntry struct {
	frame  cilk.FrameID
	label  string
	parent int32
}

// NoParent marks a root element.
const NoParent int32 = -1

// CopyFrom makes l an independent copy of src, reusing l's capacity.
// src's path memo is neither read nor written, so concurrent CopyFroms of
// one source are safe.
func (l *Lineage) CopyFrom(src *Lineage) {
	l.meta = append(l.meta[:0], src.meta...)
	l.paths = l.paths[:0]
}

// Reset empties the lineage, keeping allocated capacity for reuse.
func (l *Lineage) Reset() {
	l.meta = l.meta[:0]
	l.paths = l.paths[:0]
}

// Add registers element id (dense, append-ordered) with its parent.
// Re-registering an id invalidates the memoized path of it and of every
// later id, which covers all of its descendants.
func (l *Lineage) Add(id int32, frame cilk.FrameID, label string, parent int32) {
	if int(id) < len(l.paths) {
		l.paths = l.paths[:id]
	}
	for int(id) >= len(l.meta) {
		l.meta = append(l.meta, lineageEntry{parent: NoParent})
	}
	l.meta[id] = lineageEntry{frame: frame, label: label, parent: parent}
}

// Frame returns the frame of element id.
func (l *Lineage) Frame(id int32) cilk.FrameID {
	if int(id) >= len(l.meta) || id < 0 {
		return -1
	}
	return l.meta[id].frame
}

// Label returns the label of element id.
func (l *Lineage) Label(id int32) string {
	if int(id) >= len(l.meta) || id < 0 {
		return "?"
	}
	return l.meta[id].label
}

// Path returns the spawn path of element id, outermost first, labels
// joined by ">": "main>f>g". It keeps at most the innermost 17 labels:
// once the chain reaches 17 elements, the path is a leading "…" segment
// followed by those 17 labels — also at exactly 17, where nothing was
// dropped. An id outside the lineage yields "". The rendering is memoized
// per element, so a report naming one strand many times renders it once;
// the memo makes Path a writer, so calls must not run concurrently.
func (l *Lineage) Path(id int32) string {
	if id < 0 || int(id) >= len(l.meta) {
		return ""
	}
	if int(id) < len(l.paths) && l.paths[id] != "" {
		return l.paths[id]
	}
	p := l.render(id)
	if old := len(l.paths); int(id) >= old {
		// Capacity past len may still hold renderings a truncation
		// invalidated; clear it as it comes back into use.
		l.paths = slices.Grow(l.paths, int(id)+1-old)[:id+1]
		clear(l.paths[old:])
	}
	l.paths[id] = p
	return p
}

// render walks id's parent chain from id outward, stopping after 17
// labels with a "…" marker.
func (l *Lineage) render(id int32) string {
	const maxSegs = 17
	var segs []string
	for cur := id; cur != NoParent && int(cur) < len(l.meta); cur = l.meta[cur].parent {
		segs = append(segs, l.meta[cur].label)
		if len(segs) == maxSegs {
			segs = append(segs, "…")
			break
		}
	}
	slices.Reverse(segs)
	return strings.Join(segs, ">")
}
