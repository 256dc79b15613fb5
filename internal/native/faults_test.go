package native

import (
	"errors"
	"testing"
	"time"

	"parhask/internal/exec"
	"parhask/internal/faults"
	"parhask/internal/graph"
	"parhask/internal/workloads/euler"
)

func mustPlan(t *testing.T, spec string) *faults.Injector {
	t.Helper()
	p, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return faults.NewInjector(p)
}

func TestNativeInjectedSparkPanic(t *testing.T) {
	// Spark index 3 panics; the run must abort with a structured
	// *faults.InjectedPanic reachable through errors.As, and peers
	// blocked on the dead worker's claims must unwind (no hang —
	// awaitRun is the watchdog).
	cfg := NewConfig(4)
	cfg.Faults = mustPlan(t, "seed=7,panic-spark=3")
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg, euler.Program(1500, 60, 0, true))
		done <- err
	}()
	err := awaitRun(t, done)
	var ip *faults.InjectedPanic
	if !errors.As(err, &ip) {
		t.Fatalf("err = %v, want *faults.InjectedPanic", err)
	}
	if ip.Kind != "spark" || ip.Index != 3 || ip.Seed != 7 {
		t.Fatalf("injected panic fields: %+v", ip)
	}
	if c := cfg.Faults.Counts(); c.Panics != 1 {
		t.Fatalf("Counts.Panics = %d, want 1", c.Panics)
	}
}

func TestNativeSparkFaultFiresWhenSparkFizzles(t *testing.T) {
	// With one worker nothing steals, so every spark fizzles and main
	// evaluates each thunk itself. The spark index counts creations, so
	// spark 2 still fails, on main instead of a stealer: the outcome is
	// a property of the program, not of which sparks were converted.
	cfg := NewConfig(1)
	cfg.Faults = mustPlan(t, "seed=4,panic-spark=2")
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg, euler.Program(400, 8, 0, true))
		done <- err
	}()
	err := awaitRun(t, done)
	var ip *faults.InjectedPanic
	if !errors.As(err, &ip) || ip.Kind != "spark" || ip.Index != 2 || ip.Seed != 4 {
		t.Fatalf("err = %v, want injected spark panic at index 2", err)
	}
	if c := cfg.Faults.Counts(); c.Panics != 1 {
		t.Fatalf("Counts.Panics = %d, want 1", c.Panics)
	}
}

func TestNativeInjectedProcPanic(t *testing.T) {
	// Fork index 0 dies on entry; main blocked on the placeholder the
	// fork was supposed to resolve must unwind with the injected error.
	cfg := NewConfig(2)
	cfg.Faults = mustPlan(t, "seed=1,panic-proc=0")
	ph := graph.NewPlaceholder()
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg, func(c exec.Ctx) graph.Value {
			exec.Fork(c, "resolver", func(exec.Ctx) {
				ph.Resolve(1)
			})
			return c.Force(ph)
		})
		done <- err
	}()
	err := awaitRun(t, done)
	var ip *faults.InjectedPanic
	if !errors.As(err, &ip) || ip.Kind != "proc" || ip.Index != 0 {
		t.Fatalf("err = %v, want proc *faults.InjectedPanic index 0", err)
	}
}

func TestNativePoisonedClaimUnblocksPeer(t *testing.T) {
	// The orphaned-claim hazard: a stealer claims thunk a (eager CAS),
	// panics mid-evaluation, and main is blocked forcing a. Recovery
	// must poison a so main's force raises *graph.PoisonError instead
	// of spinning on the black hole forever. The failure ordering—
	// poison before fail — means main may also unwind via errAborted;
	// either way the run error must carry the spark's failure.
	cfg := NewConfig(2)
	var a *graph.Thunk
	a = exec.Thunk(func(c exec.Ctx) graph.Value {
		panic("claimant boom")
	})
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg, func(c exec.Ctx) graph.Value {
			c.Par(a)
			return c.Force(a) // either runs it (panics here) or blocks on the stealer's claim
		})
		done <- err
	}()
	err := awaitRun(t, done)
	if err == nil {
		t.Fatal("run must fail")
	}
	// Whichever goroutine ran the spark, the thunk must never be left
	// as a permanent black hole.
	if s := a.State(); s != graph.Poisoned {
		t.Fatalf("thunk state after claimant death = %v, want poisoned", s)
	}
	if pe := a.PoisonedErr(); pe == nil {
		t.Fatal("poisoned thunk should carry the claimant's failure")
	}
}

func TestNativeDeadlineReturnsDeadlockError(t *testing.T) {
	// Main blocks forever on a placeholder nothing resolves. Without a
	// deadline this hangs; with one, the watchdog must return a
	// structured *faults.DeadlockError naming the blocked main thread.
	cfg := NewConfig(2)
	cfg.Deadline = 100 * time.Millisecond
	ph := graph.NewPlaceholder()
	done := make(chan error, 1)
	var res *Result
	go func() {
		r, err := Run(cfg, func(c exec.Ctx) graph.Value {
			return c.Force(ph)
		})
		res = r
		done <- err
	}()
	err := awaitRun(t, done)
	var de *faults.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *faults.DeadlockError", err)
	}
	if de.Backend != "native" || de.Reason != "deadline" {
		t.Fatalf("deadlock fields: %+v", de)
	}
	found := false
	for _, b := range de.Blocked {
		if b.PE == 0 && b.Thread == "main" {
			found = true
		}
	}
	if !found {
		t.Fatalf("diagnostics %v should name the blocked main thread", de.Blocked)
	}
	if res == nil {
		t.Fatal("failed runs must still return the partial Result")
	}
	if res.Value != nil {
		t.Fatal("failed runs must not leak a value")
	}
}

func TestNativeFailedRunKeepsEventlog(t *testing.T) {
	// Satellite: the event rings of a failed run are flushed so
	// tracedump can render the partial timeline post-mortem.
	cfg := NewConfig(2)
	cfg.EventLog = true
	cfg.Faults = mustPlan(t, "seed=3,panic-spark=0")
	done := make(chan error, 1)
	var res *Result
	go func() {
		r, err := Run(cfg, euler.Program(1500, 60, 0, true))
		res = r
		done <- err
	}()
	if err := awaitRun(t, done); err == nil {
		t.Fatal("run must fail")
	}
	if res == nil || res.Events == nil {
		t.Fatal("failed run must carry its eventlog")
	}
	total := 0
	for i := 0; i < res.Events.Workers(); i++ {
		total += res.Events.Buf(i).Len()
	}
	if total == 0 {
		t.Fatal("failed run's eventlog is empty")
	}
	tl := res.Trace()
	if tl == nil || len(tl.Agents()) == 0 {
		t.Fatal("failed run's eventlog must reduce to a renderable timeline")
	}
}

func TestNativeStallInjection(t *testing.T) {
	// A stalled worker slows the run but must not change the result.
	cfg := NewConfig(2)
	cfg.Faults = mustPlan(t, "stall=1:1ms")
	res, err := Run(cfg, euler.Program(800, 16, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	if want := euler.SumTotientSieve(800); res.Value.(int64) != want {
		t.Fatalf("stalled run result %v != %d", res.Value, want)
	}
}

func TestNativeFaultReplayDeterministic(t *testing.T) {
	// The same spec must produce the same structured failure on every
	// run — the replay guarantee the chaos soak depends on.
	for i := 0; i < 3; i++ {
		cfg := NewConfig(4)
		cfg.Faults = mustPlan(t, "seed=5,panic-spark=10")
		done := make(chan error, 1)
		go func() {
			_, err := Run(cfg, euler.Program(2000, 80, 0, true))
			done <- err
		}()
		err := awaitRun(t, done)
		var ip *faults.InjectedPanic
		if !errors.As(err, &ip) || ip.Index != 10 {
			t.Fatalf("replay %d: err = %v, want injected spark panic at 10", i, err)
		}
	}
}
