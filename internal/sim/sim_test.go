package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestAdvanceAccumulatesTime(t *testing.T) {
	s := New(1)
	var end Time
	s.Spawn("a", func(tk *Task) {
		tk.Advance(100)
		tk.Advance(250)
		end = tk.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 350 {
		t.Fatalf("end = %d, want 350", end)
	}
	if s.Now() != 350 {
		t.Fatalf("sim now = %d, want 350", s.Now())
	}
}

func TestTasksOverlapInVirtualTime(t *testing.T) {
	// Two tasks each advancing 100ns "in parallel" finish at t=100, not 200.
	s := New(1)
	var ends []Time
	for i := 0; i < 2; i++ {
		s.Spawn(fmt.Sprintf("t%d", i), func(tk *Task) {
			tk.Advance(100)
			ends = append(ends, tk.Now())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ends) != 2 || ends[0] != 100 || ends[1] != 100 {
		t.Fatalf("ends = %v, want [100 100]", ends)
	}
}

func TestEventOrderIsFIFOAtSameTime(t *testing.T) {
	s := New(1)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		s.Spawn(name, func(tk *Task) {
			order = append(order, name)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("order = %q, want abc", got)
	}
}

func TestParkUnpark(t *testing.T) {
	s := New(1)
	var wakeTime Time
	waiter := s.Spawn("waiter", func(tk *Task) {
		tk.Park()
		wakeTime = tk.Now()
	})
	s.Spawn("waker", func(tk *Task) {
		tk.Advance(500)
		waiter.Unpark()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if wakeTime != 500 {
		t.Fatalf("wakeTime = %d, want 500", wakeTime)
	}
}

func TestUnparkBeforeParkBuffersPermit(t *testing.T) {
	s := New(1)
	var wakeTime Time
	var waiter *Task
	s.Spawn("waker", func(tk *Task) {
		waiter.Unpark() // waiter hasn't parked yet
	})
	waiter = s.Spawn("waiter", func(tk *Task) {
		tk.Advance(10)
		tk.Park() // consumes buffered permit, returns immediately
		wakeTime = tk.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if wakeTime != 10 {
		t.Fatalf("wakeTime = %d, want 10 (permit should be consumed without waiting)", wakeTime)
	}
}

func TestSleepInterruptibleTimesOut(t *testing.T) {
	s := New(1)
	var woken bool
	var at Time
	s.Spawn("sleeper", func(tk *Task) {
		woken = tk.SleepInterruptible(300)
		at = tk.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woken || at != 300 {
		t.Fatalf("woken=%v at=%d, want false at 300", woken, at)
	}
}

func TestSleepInterruptibleWoken(t *testing.T) {
	s := New(1)
	var woken bool
	var at Time
	sleeper := s.Spawn("sleeper", func(tk *Task) {
		woken = tk.SleepInterruptible(1000)
		at = tk.Now()
	})
	s.Spawn("waker", func(tk *Task) {
		tk.Advance(100)
		sleeper.Unpark()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !woken || at != 100 {
		t.Fatalf("woken=%v at=%d, want true at 100", woken, at)
	}
}

func TestSleepTimeoutCancelledAfterWake(t *testing.T) {
	// The timeout an Unpark cut short must not resume the task a second time.
	s := New(1)
	var resumes int
	sleeper := s.Spawn("sleeper", func(tk *Task) {
		tk.SleepInterruptible(1000)
		resumes++
		tk.Park() // parks again; the cancelled timeout at t=1000 must not wake it
		resumes++
	})
	s.Spawn("waker", func(tk *Task) {
		tk.Advance(100)
		sleeper.Unpark()
		tk.Advance(2000)
		sleeper.Unpark()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if resumes != 2 {
		t.Fatalf("resumes = %d, want 2", resumes)
	}
}

func TestAfterCallback(t *testing.T) {
	s := New(1)
	var fired Time = -1
	s.After(400, func() { fired = s.Now() })
	s.Spawn("t", func(tk *Task) { tk.Advance(1000) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 400 {
		t.Fatalf("fired = %d, want 400", fired)
	}
}

func TestCallbackCanUnparkTask(t *testing.T) {
	s := New(1)
	var at Time
	waiter := s.Spawn("waiter", func(tk *Task) {
		tk.Park()
		at = tk.Now()
	})
	s.After(250, func() { waiter.Unpark() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 250 {
		t.Fatalf("at = %d, want 250", at)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New(1)
	s.Spawn("stuck", func(tk *Task) { tk.Park() })
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock error", err)
	}
}

func TestHaltStopsRun(t *testing.T) {
	s := New(1)
	steps := 0
	s.Spawn("looper", func(tk *Task) {
		for {
			tk.Advance(10)
			steps++
			if steps == 5 {
				tk.Sim().Halt()
				// keep looping; Halt must stop us anyway after we yield
			}
			if steps > 5 {
				t.Error("task ran after Halt")
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 5 {
		t.Fatalf("steps = %d, want 5", steps)
	}
}

func TestSpawnFromTask(t *testing.T) {
	s := New(1)
	var childEnd Time
	s.Spawn("parent", func(tk *Task) {
		tk.Advance(50)
		tk.Sim().Spawn("child", func(c *Task) {
			c.Advance(25)
			childEnd = c.Now()
		})
		tk.Advance(100)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if childEnd != 75 {
		t.Fatalf("childEnd = %d, want 75", childEnd)
	}
}

func TestTaskPanicPropagates(t *testing.T) {
	s := New(1)
	s.Spawn("boom", func(tk *Task) { panic("kaboom") })
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "kaboom") {
			t.Fatalf("recover = %v, want panic containing kaboom", r)
		}
	}()
	_ = s.Run()
	t.Fatal("Run returned without panicking")
}

func TestDeterminismManyTasks(t *testing.T) {
	run := func() []string {
		s := New(42)
		var log []string
		for i := 0; i < 8; i++ {
			i := i
			s.Spawn(fmt.Sprintf("t%d", i), func(tk *Task) {
				for j := 0; j < 20; j++ {
					d := Time(tk.Sim().Rand().Intn(50) + 1)
					tk.Advance(d)
					log = append(log, fmt.Sprintf("%d@%d", i, tk.Now()))
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestAdvanceBuffersUnparkAsPermit(t *testing.T) {
	s := New(1)
	var at Time
	sleeper := s.Spawn("sleeper", func(tk *Task) {
		tk.Advance(100) // Unpark arrives during this; must be buffered
		tk.Park()       // must consume the permit instantly
		at = tk.Now()
	})
	s.Spawn("waker", func(tk *Task) {
		tk.Advance(50)
		sleeper.Unpark()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 100 {
		t.Fatalf("at = %d, want 100", at)
	}
}

func TestPRNGIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%31) + 1
		p := NewPRNG(seed)
		for i := 0; i < 100; i++ {
			v := p.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPRNGDeterministic(t *testing.T) {
	a, b := NewPRNG(7), NewPRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("PRNG streams diverge")
		}
	}
}

func TestZeroAdvanceKeepsBall(t *testing.T) {
	s := New(1)
	order := []string{}
	s.Spawn("a", func(tk *Task) {
		tk.Advance(0)
		order = append(order, "a")
	})
	s.Spawn("b", func(tk *Task) {
		order = append(order, "b")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// a spawned first, Advance(0) must not reorder it behind b.
	if strings.Join(order, "") != "ab" {
		t.Fatalf("order = %v, want [a b]", order)
	}
}

// untilAt returns a SleepWhile plan that sleeps until virtual time end,
// counting in *onTask the calls made while tk itself held the ball (that
// is, after tk was resumed) and in *calls all of them.
func untilAt(tk *Task, end Time, calls, onTask *int) func() Time {
	return func() Time {
		*calls++
		if tk.sim.cur == tk {
			*onTask++
		}
		return end - tk.Now()
	}
}

func TestSleepWhileUnparkedNTimesResumesOnce(t *testing.T) {
	const n = 25
	s := New(1)
	var calls, onTask int
	var end Time
	sleeper := s.Spawn("sleeper", func(tk *Task) {
		tk.SleepWhile(untilAt(tk, 1000, &calls, &onTask))
		end = tk.Now()
	})
	s.Spawn("waker", func(tk *Task) {
		for i := 0; i < n; i++ {
			tk.Advance(10)
			sleeper.Unpark()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 1000 {
		t.Fatalf("sleeper woke at %d, want 1000", end)
	}
	// One plan call on entry, one per Unpark, one at the deadline; only
	// the entry call runs on the task itself.
	if calls != n+2 || onTask != 1 {
		t.Fatalf("plan calls = %d (%d on the task), want %d (1 on the task)", calls, onTask, n+2)
	}
}

func TestSleepWhileConsumesBufferedPermit(t *testing.T) {
	s := New(1)
	var calls, onTask int
	var slept, parked Time
	var sleeper *Task
	sleeper = s.Spawn("sleeper", func(tk *Task) {
		tk.Advance(10) // an Unpark at 5 is buffered as a permit
		tk.SleepWhile(untilAt(tk, 100, &calls, &onTask))
		slept = tk.Now()
		tk.Park() // the permit is gone: this waits for the Unpark at 200
		parked = tk.Now()
	})
	s.Spawn("waker", func(tk *Task) {
		tk.Advance(5)
		sleeper.Unpark()
		tk.Advance(195)
		sleeper.Unpark()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if slept != 100 || parked != 200 {
		t.Fatalf("SleepWhile returned at %d and Park at %d, want 100 and 200", slept, parked)
	}
	// As with SleepInterruptible in a loop: the permit cuts the first
	// sleep short at once, so the plan runs twice on entry.
	if calls != 3 || onTask != 2 {
		t.Fatalf("plan calls = %d (%d on the task), want 3 (2 on the task)", calls, onTask)
	}
}

func TestSleepWhileUnparkKeepsTieOrder(t *testing.T) {
	// a and b both sleep until 100; b went to sleep later, so it is behind
	// a at that instant. An Unpark of a at 60 does not change a's
	// deadline, but it does re-schedule a, behind b: a kernel that skipped
	// the re-schedule because nothing changed would finish a first.
	s := New(1)
	var order []string
	var calls, onTask int
	sleep := func(name string, start Time) *Task {
		return s.Spawn(name, func(tk *Task) {
			tk.Advance(start)
			tk.SleepWhile(untilAt(tk, 100, &calls, &onTask))
			order = append(order, name)
		})
	}
	a := sleep("a", 1)
	sleep("b", 50)
	s.Spawn("waker", func(tk *Task) {
		tk.Advance(60)
		a.Unpark()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "ba" {
		t.Fatalf("finish order = %q, want ba", got)
	}
}

func TestQueueHoldsOneEventPerTask(t *testing.T) {
	// At every pop — a task resume, a callback or a kernel re-plan — the
	// queue holds at most one event per unfinished task plus the pending
	// callbacks, however many times the sleepers are woken.
	s := New(1)
	pendingCallbacks := 0
	pops := 0
	var violation string
	check := func() {
		pops++
		if len(s.queue) > s.live+pendingCallbacks && violation == "" {
			violation = fmt.Sprintf("t=%d: %d queued events, %d unfinished tasks, %d pending callbacks",
				s.now, len(s.queue), s.live, pendingCallbacks)
		}
	}
	var sleepers []*Task
	for i := 0; i < 4; i++ {
		sleepers = append(sleepers, s.Spawn(fmt.Sprintf("sleeper%d", i), func(tk *Task) {
			check()
			end := Time(5000 + 100*tk.ID())
			tk.SleepWhile(func() Time { check(); return end - tk.Now() })
			check()
			for j := 0; j < 10; j++ {
				tk.SleepInterruptible(300)
				check()
			}
		}))
	}
	s.Spawn("waker", func(tk *Task) {
		for j := 0; j < 200; j++ {
			check()
			tk.Advance(7)
			for _, sl := range sleepers {
				sl.Unpark()
			}
			pendingCallbacks++
			s.After(3, func() { pendingCallbacks--; check() })
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if violation != "" {
		t.Fatal(violation)
	}
	if pops < 1000 {
		t.Fatalf("only %d pops checked", pops)
	}
}

type callbackBoom struct{ code int }

func TestCallbackPanicSurfacesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(s *Sim)
	}{
		// The callback is dispatched by a task yielding in Advance.
		{"from a yield", func(s *Sim) {
			s.Spawn("x", func(tk *Task) { tk.Advance(100) })
		}},
		// ... by a task that has just finished.
		{"from a finished task", func(s *Sim) {
			s.Spawn("x", func(tk *Task) { tk.Advance(4) })
		}},
		// ... by Run itself, before any task holds the ball.
		{"from Run", func(s *Sim) {
			s.After(50, func() { s.Spawn("x", func(tk *Task) {}) })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(1)
			tc.setup(s)
			s.After(10, func() { panic(callbackBoom{7}) })
			defer func() {
				if r := recover(); r != (callbackBoom{7}) {
					t.Fatalf("Run panicked with %#v, want callbackBoom{7}", r)
				}
			}()
			_ = s.Run()
			t.Fatal("Run returned without panicking")
		})
	}
}

// goroutinesSettle waits briefly for goroutines that have finished their
// work to exit, and returns the final count.
func goroutinesSettle(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestEndedRunsLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		s := New(1)
		s.Spawn("stuck", func(tk *Task) { tk.Park() })
		s.Spawn("sleeper", func(tk *Task) {
			tk.SleepWhile(func() Time { return 1 })
		})
		s.Spawn("halter", func(tk *Task) {
			tk.Advance(1000)
			tk.Sim().Halt()
			tk.Sim().Spawn("never-started", func(tk *Task) {})
			tk.Advance(1)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		d := New(1)
		unwound := false
		d.Spawn("stuck", func(tk *Task) {
			defer func() { unwound = true }()
			tk.Park()
		})
		if err := d.Run(); err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("err = %v, want deadlock", err)
		}
		if !unwound {
			t.Fatal("deadlocked task was not unwound before Run returned")
		}
	}
	if after := goroutinesSettle(before); after > before {
		t.Fatalf("goroutines: %d before 200 ended runs, %d after", before, after)
	}
}
