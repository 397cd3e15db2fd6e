package cilk

import "testing"

// TestReusedExecutorAllocs: a warmed Executor runs a program that spawns,
// steals, reduces and syncs without allocating — frames, view slots,
// reducer handles and the Steals slice are all recycled. The program's
// closures are built once and its monoid's views are bools, which convert
// to interfaces without boxing. The CI allocation-regression step runs
// this test.
func TestReusedExecutorAllocs(t *testing.T) {
	m := MonoidFuncs(
		func(*Ctx) any { return false },
		func(_ *Ctx, l, r any) any { return l.(bool) || r.(bool) },
	)
	var r *Reducer
	set := func(*Ctx, any) any { return true }
	leaf := func(c *Ctx) {
		c.Store(1)
		c.Update(r, set)
	}
	mid := func(c *Ctx) {
		c.Spawn("leaf", leaf)
		c.Spawn("leaf", leaf)
		c.Sync()
	}
	prog := func(c *Ctx) {
		r = c.NewReducer("or", m, false)
		for i := 0; i < 8; i++ {
			c.Spawn("mid", mid)
		}
		c.Sync()
		c.Value(r)
	}
	for _, order := range []ReduceOrder{ReduceAtSync, ReduceEager, ReduceMiddleFirst} {
		cfg := Config{Spec: StealAll{Reduce: order}, Hooks: Empty{}}
		var ex Executor
		res := ex.Run(prog, cfg)
		if res.Views == 0 || res.Reduces == 0 || len(res.Steals) != res.Spawns {
			t.Fatalf("order %d: program did not steal and reduce: %+v", order, res)
		}
		if allocs := testing.AllocsPerRun(100, func() { ex.Run(prog, cfg) }); allocs != 0 {
			t.Fatalf("order %d: reused executor allocates %.2f times per run, want 0", order, allocs)
		}
	}
}

// TestFreshRunFrameAllocs: a fresh Run allocates one frame per depth the
// program reaches, not one per spawn. The CI allocation-regression step
// runs this test.
func TestFreshRunFrameAllocs(t *testing.T) {
	leaf := func(c *Ctx) { c.Store(1) }
	wide := func(n int) func(*Ctx) {
		return func(c *Ctx) {
			for i := 0; i < n; i++ {
				c.Spawn("leaf", leaf)
			}
			c.Sync()
		}
	}
	deep := func(d int) func(*Ctx) {
		var rec func(c *Ctx, d int)
		rec = func(c *Ctx, d int) {
			if d > 0 {
				c.Spawn("leaf", leaf)
				c.Call("rec", func(c *Ctx) { rec(c, d-1) })
				c.Sync()
			}
		}
		return func(c *Ctx) { rec(c, d) }
	}
	allocs := func(prog func(*Ctx)) float64 {
		return testing.AllocsPerRun(20, func() { Run(prog, Config{}) })
	}
	narrow, broad := wide(16), wide(1024)
	if a, b := allocs(narrow), allocs(broad); a != b {
		t.Fatalf("16 spawns allocate %.0f times, 1024 spawns %.0f: allocations grow with spawn count", a, b)
	}
	// Each extra level costs its frame and the frame's view-slot stack.
	shallow, deeper := deep(32), deep(64)
	if grow := allocs(deeper) - allocs(shallow); grow < 32 || grow > 3*32 {
		t.Fatalf("32 extra levels allocate %.0f more times, want 1 to 3 per level", grow)
	}
}
