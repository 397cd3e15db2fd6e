package cilk_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/progs"
	"repro/internal/sched"
	"repro/internal/trace"
)

// reduceEveryThird steals odd continuations and schedules reductions
// right after children return, so reused executors see mid-block reduces.
type reduceEveryThird struct{}

func (reduceEveryThird) ShouldSteal(ci cilk.ContInfo) bool { return ci.Seq%2 == 1 }

func (reduceEveryThird) Order() cilk.ReduceOrder { return cilk.ReduceAtSync }

func (reduceEveryThird) ReducesAfterReturn(ci cilk.ContInfo) int { return ci.Seq % 3 }

var errPlanned = errors.New("planned panic")

var intSum = cilk.MonoidFuncs(
	func(*cilk.Ctx) any { return 0 },
	func(_ *cilk.Ctx, l, r any) any { return l.(int) + r.(int) },
)

func add1(_ *cilk.Ctx, v any) any { return v.(int) + 1 }

// panicMidSpawn panics two spawns deep, with stolen views pending in
// both frames.
func panicMidSpawn(c *cilk.Ctx) {
	r := c.NewReducer("p", intSum, 0)
	c.Spawn("a", func(c *cilk.Ctx) { c.Update(r, add1) })
	c.Spawn("b", func(c *cilk.Ctx) {
		c.Spawn("c", func(c *cilk.Ctx) {
			c.Store(7)
			c.Update(r, add1)
		})
		c.Spawn("d", func(c *cilk.Ctx) { panic(errPlanned) })
		c.Sync()
	})
	c.Sync()
}

// panicInUpdate panics inside a view-aware section, leaving the executor
// mid-Update.
func panicInUpdate(c *cilk.Ctx) {
	r := c.NewReducer("u", intSum, 0)
	c.Spawn("a", func(c *cilk.Ctx) { c.Update(r, add1) })
	c.Spawn("b", func(c *cilk.Ctx) {
		c.Update(r, func(*cilk.Ctx, any) any { panic(errPlanned) })
	})
	c.Sync()
}

// record runs prog under cfg with a trace.Writer attached and returns the
// summary (nil when prog panicked), the encoded stream and the panic value.
func record(run func(func(*cilk.Ctx), cilk.Config) *cilk.Result, prog func(*cilk.Ctx), cfg cilk.Config) (res *cilk.Result, stream []byte, panicked any) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	cfg.Hooks = w
	defer func() {
		panicked = recover()
		if err := w.Close(); err != nil {
			panic(err)
		}
		stream = buf.Bytes()
	}()
	return run(prog, cfg), nil, nil
}

// TestExecutorReuseMatchesFreshRuns: one Executor running random programs
// under every kind of specification, in random order and interleaved with
// runs that panic mid-spawn and mid-Update, produces for each run the
// Result and the trace bytes of a fresh cilk.Run.
func TestExecutorReuseMatchesFreshRuns(t *testing.T) {
	specs := []cilk.StealSpec{
		nil,
		cilk.NoSteals{},
		cilk.StealAll{Reduce: cilk.ReduceAtSync},
		cilk.StealAll{Reduce: cilk.ReduceEager},
		cilk.StealAll{Reduce: cilk.ReduceMiddleFirst},
		sched.Random{Seed: 3, K: 4},
		sched.Random{Seed: 9, K: 2},
		reduceEveryThird{},
	}
	type runCase struct {
		name string
		prog func(*cilk.Ctx)
		cfg  cilk.Config
	}
	var cases []runCase
	for seed := int64(1); seed <= 6; seed++ {
		prog := progs.Random(mem.NewAllocator(), progs.RandomOpts{
			Seed: seed, MaxDepth: 2 + int(seed%4), Reducers: 1 + int(seed%3),
			MonoidStores: seed%2 == 0, Reads: true,
		})
		for i, spec := range specs {
			cases = append(cases, runCase{
				name: fmt.Sprintf("random%d/spec%d", seed, i),
				prog: prog,
				cfg:  cilk.Config{Spec: spec, EagerViews: seed == 5},
			})
		}
	}
	for i, spec := range specs[2:] {
		cases = append(cases,
			runCase{name: fmt.Sprintf("panic-mid-spawn/spec%d", i), prog: panicMidSpawn, cfg: cilk.Config{Spec: spec}},
			runCase{name: fmt.Sprintf("panic-in-update/spec%d", i), prog: panicInUpdate, cfg: cilk.Config{Spec: spec}})
	}

	var ex cilk.Executor
	reused := func(prog func(*cilk.Ctx), cfg cilk.Config) *cilk.Result {
		res := ex.Run(prog, cfg)
		return &res
	}
	rng := rand.New(rand.NewSource(1))
	panics := 0
	for round := 0; round < 3; round++ {
		rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
		for _, c := range cases {
			wantRes, wantStream, wantPanic := record(cilk.Run, c.prog, c.cfg)
			gotRes, gotStream, gotPanic := record(reused, c.prog, c.cfg)
			if gotPanic != wantPanic {
				t.Fatalf("%s: reused run panicked with %v, fresh run with %v", c.name, gotPanic, wantPanic)
			}
			if wantPanic != nil {
				panics++
			}
			if !bytes.Equal(gotStream, wantStream) {
				t.Fatalf("%s: reused run's trace (%d bytes) differs from a fresh run's (%d bytes)", c.name, len(gotStream), len(wantStream))
			}
			if got, want := fmt.Sprintf("%+v", gotRes), fmt.Sprintf("%+v", wantRes); got != want {
				t.Fatalf("%s: reused run's result differs:\n got %s\nwant %s", c.name, got, want)
			}
		}
	}
	if panics == 0 {
		t.Fatal("no planned panic fired")
	}
}
