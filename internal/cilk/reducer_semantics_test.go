package cilk

import (
	"fmt"
	"testing"
)

// These tests pin reducer lifecycle semantics that the paper's §2/§5
// narrative implies but never spells out.

func TestReducerCreatedInChildVisibleAfterReturn(t *testing.T) {
	// A reducer created in a called child writes its initial view into
	// the shared (inherited) view slot; the caller can read it after the
	// child returns.
	var got int
	Run(func(c *Ctx) {
		var r *Reducer
		c.Call("maker", func(cc *Ctx) {
			r = cc.NewReducer("h", sumMonoid, 7)
		})
		got = c.Value(r).(int)
	}, Config{})
	if got != 7 {
		t.Fatalf("value = %d, want 7", got)
	}
}

func TestReducerCreatedInSpawnedChildFoldsIntoParent(t *testing.T) {
	// Created in a spawned child under steals: the child's view context
	// is the leftmost view for that reducer, and updates fold normally.
	var got int
	Run(func(c *Ctx) {
		var r *Reducer
		c.Spawn("maker", func(cc *Ctx) {
			r = cc.NewReducer("h", sumMonoid, 1)
			cc.Update(r, func(_ *Ctx, v any) any { return v.(int) + 10 })
		})
		c.Sync()
		// After the sync every view has been reduced; the parent reads
		// the folded value.
		got = c.Value(r).(int)
	}, Config{Spec: StealAll{}})
	if got != 11 {
		t.Fatalf("value = %d, want 11", got)
	}
}

func TestSetValueDiscardsCurrentView(t *testing.T) {
	// set_value replaces the current view outright; prior updates to that
	// view are gone, but parallel views still fold in around it.
	var got []int
	Run(func(c *Ctx) {
		r := c.NewReducer("l", listMonoid, []int{1})
		c.Update(r, func(_ *Ctx, v any) any { return append(v.([]int), 2) })
		c.SetValue(r, []int{100}) // discards [1 2]
		c.Spawn("u", func(cc *Ctx) {
			cc.Update(r, func(_ *Ctx, v any) any { return append(v.([]int), 3) })
		})
		c.Sync()
		got = c.Value(r).([]int)
	}, Config{})
	// No steals: the child shares the view; serial semantics.
	if fmt.Sprint(got) != "[100 3]" {
		t.Fatalf("value = %v, want [100 3]", got)
	}
}

func TestUpdateReturningNewViewObject(t *testing.T) {
	// Update's body may return a brand-new view value (views are values,
	// not mutable slots); the runtime must store it back.
	var got int
	Run(func(c *Ctx) {
		r := c.NewReducer("h", sumMonoid, 5)
		c.ParForGrain("w", 8, 1, func(cc *Ctx, i int) {
			cc.Update(r, func(_ *Ctx, v any) any {
				return v.(int) + 1 // fresh int each time
			})
		})
		got = c.Value(r).(int)
	}, Config{Spec: StealAll{Reduce: ReduceEager}})
	if got != 13 {
		t.Fatalf("value = %d, want 13", got)
	}
}

func TestTwoReducersReduceIndependently(t *testing.T) {
	// A view slot holding two reducers reduces each with its own monoid,
	// in registration order, without cross-talk.
	var a []int
	var b int
	Run(func(c *Ctx) {
		rl := c.NewReducer("list", listMonoid, []int(nil))
		rs := c.NewReducer("sum", sumMonoid, 0)
		for i := 0; i < 6; i++ {
			i := i
			c.Spawn("u", func(cc *Ctx) {
				cc.Update(rl, func(_ *Ctx, v any) any { return append(v.([]int), i) })
				cc.Update(rs, func(_ *Ctx, v any) any { return v.(int) + i })
			})
		}
		c.Sync()
		a = c.Value(rl).([]int)
		b = c.Value(rs).(int)
	}, Config{Spec: StealAll{Reduce: ReduceMiddleFirst}})
	if fmt.Sprint(a) != "[0 1 2 3 4 5]" || b != 15 {
		t.Fatalf("list=%v sum=%d", a, b)
	}
}

func TestViewSlotGrowthPastInlineArray(t *testing.T) {
	// A frame's view-slot stack grows with its live views; thirteen
	// slots must reduce in serial order like two.
	var got []int
	Run(func(c *Ctx) {
		r := c.NewReducer("l", listMonoid, []int(nil))
		for i := 0; i < 12; i++ { // 12 steals → 13 slots live before sync
			i := i
			c.Spawn("u", func(cc *Ctx) {
				cc.Update(r, func(_ *Ctx, v any) any { return append(v.([]int), i) })
			})
		}
		if pending := c.Frame().PendingViews(); pending != 12 {
			t.Fatalf("pending views = %d, want 12", pending)
		}
		c.Sync()
		got = c.Value(r).([]int)
	}, Config{Spec: StealAll{}})
	if len(got) != 12 {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken: %v", got)
		}
	}
}
