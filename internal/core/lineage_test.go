package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cilk"
)

func TestLineagePath(t *testing.T) {
	var l Lineage
	l.Add(0, 0, "main", NoParent)
	l.Add(1, 1, "f", 0)
	l.Add(2, 2, "g", 1)
	if got := l.Path(2); got != "main>f>g" {
		t.Fatalf("path = %q", got)
	}
	if got := l.Path(0); got != "main" {
		t.Fatalf("root path = %q", got)
	}
	if l.Frame(2) != 2 || l.Label(1) != "f" {
		t.Fatal("accessors")
	}
	if l.Frame(-1) != -1 || l.Label(99) != "?" {
		t.Fatal("out-of-range accessors must be safe")
	}
}

// TestLineageTruncatesDeepPaths pins the truncation rule: a 41-element
// chain keeps its innermost 17 labels behind a leading "…".
func TestLineageTruncatesDeepPaths(t *testing.T) {
	var l Lineage
	l.Add(0, 0, "root", NoParent)
	for i := int32(1); i <= 40; i++ {
		l.Add(i, cilk.FrameID(i), fmt.Sprintf("n%d", i), i-1)
	}
	const want = "…>n24>n25>n26>n27>n28>n29>n30>n31>n32>n33>n34>n35>n36>n37>n38>n39>n40"
	if got := l.Path(40); got != want {
		t.Fatalf("path = %q, want %q", got, want)
	}
	if got := l.Path(40); got != want {
		t.Fatalf("memoized path = %q, want %q", got, want)
	}
	// Exactly 17 elements already carry the marker; 16 do not.
	if got := l.Path(16); !strings.HasPrefix(got, "…>root>n1>") || !strings.HasSuffix(got, ">n16") {
		t.Fatalf("17-element path = %q", got)
	}
	if got := l.Path(15); !strings.HasPrefix(got, "root>n1>") {
		t.Fatalf("16-element path = %q", got)
	}
}

// TestLineagePathMemoInvalidation: a memoized path must never outlive the
// lineage entries it was rendered from — across Reset, CopyFrom, and an
// Add that re-registers an ancestor (what a sweep-snapshot restore
// followed by new frames does).
func TestLineagePathMemoInvalidation(t *testing.T) {
	chain := func(labels ...string) *Lineage {
		l := &Lineage{}
		for i, lb := range labels {
			l.Add(int32(i), cilk.FrameID(i), lb, int32(i)-1)
		}
		for i := range labels {
			l.Path(int32(i)) // fill the memo
		}
		return l
	}

	l := chain("main", "f", "g", "h")
	if got := l.Path(3); got != "main>f>g>h" {
		t.Fatalf("path = %q", got)
	}
	l.Reset()
	if got := l.Path(0); got != "" {
		t.Fatalf("path after Reset = %q, want empty", got)
	}
	l.Add(0, 0, "root", NoParent)
	l.Add(1, 1, "x", 0)
	if got := l.Path(1); got != "root>x" {
		t.Fatalf("path after Reset+Add = %q", got)
	}

	l = chain("main", "f", "g", "h")
	src := chain("main", "p", "q")
	src.Reset()
	src.Add(0, 0, "main", NoParent)
	src.Add(1, 1, "p2", 0)
	src.Add(2, 2, "q2", 1)
	l.CopyFrom(src)
	if got := l.Path(2); got != "main>p2>q2" {
		t.Fatalf("path after CopyFrom = %q", got)
	}
	if got := l.Path(3); got != "" {
		t.Fatalf("path of an id CopyFrom dropped = %q, want empty", got)
	}
	if len(src.paths) != 0 {
		t.Fatalf("CopyFrom wrote the source's memo (%d entries)", len(src.paths))
	}

	// Re-adding an ancestor with a new label must re-render every
	// descendant, not just the re-added element.
	l = chain("main", "f", "g", "h")
	l.Add(1, 1, "f2", 0)
	if got := l.Path(3); got != "main>f2>g>h" {
		t.Fatalf("descendant path after re-adding its ancestor = %q", got)
	}
	if got := l.Path(0); got != "main" {
		t.Fatalf("root path = %q", got)
	}
	// Growing past a truncated memo must not resurrect stale entries.
	l.Add(2, 2, "g2", 1)
	l.Add(3, 3, "h2", 2)
	l.Add(4, 4, "i", 3)
	if got := l.Path(4); got != "main>f2>g2>h2>i" {
		t.Fatalf("path after regrowing = %q", got)
	}
	if got := l.Path(3); got != "main>f2>g2>h2" {
		t.Fatalf("path after regrowing = %q", got)
	}
}
