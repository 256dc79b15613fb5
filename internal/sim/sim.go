// Package sim implements a deterministic discrete-event simulation (DES)
// kernel with coroutine-style tasks.
//
// The kernel maintains a virtual clock (int64 nanoseconds) and an event
// queue ordered by (time, sequence number). Tasks are goroutines that run
// one at a time: exactly one task (or kernel callback) executes at any
// real instant, so simulated state needs no locking and every run of the
// same program is bit-for-bit reproducible. Virtual time intervals of
// different tasks still overlap freely, which is what models parallelism.
//
// Tasks yield by advancing virtual time (Advance), parking (Park,
// SleepInterruptible, SleepWhile) or finishing. Other tasks or timer
// callbacks wake parked tasks with Unpark.
//
// Three rules keep an event that changes nothing cheap:
//
//   - A task has at most one pending resume event. Re-scheduling a task
//     (an Unpark cutting a sleep short) rewrites that event in place with
//     a new time and sequence number, so the queue holds no stale entries
//     and never grows beyond the unfinished tasks plus pending callbacks.
//   - There is no kernel goroutine between tasks. A yielding task runs the
//     dispatch loop itself, callbacks included, and passes the ball
//     straight to the next task, or keeps it when the next task is itself.
//     Run only waits for the end of the run.
//   - A task in SleepWhile is re-planned by the kernel: when its event
//     comes up, the kernel calls its plan and, if the wait is not over,
//     re-schedules it without resuming its goroutine.
//
// None of these changes which events exist or their (time, sequence)
// keys, so the order of events, ties included, is exactly that of a
// kernel that resumed every task for every event.
package sim

import (
	"fmt"
	"sort"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time = int64

// event is a scheduled occurrence: either resuming a task or running a
// kernel callback.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among same-time events
	task *Task  // non-nil: resume this task
	fn   func() // non-nil: kernel callback
}

func (e *event) before(f *event) bool {
	return e.at < f.at || e.at == f.at && e.seq < f.seq
}

// taskState describes where a task is in its lifecycle.
type taskState int8

const (
	tsNew     taskState = iota // spawned, not yet started
	tsRunning                  // currently executing (has the ball)
	tsWaiting                  // waiting for a scheduled resume event
	tsParked                   // parked indefinitely (needs Unpark)
	tsDone                     // finished
)

func (s taskState) String() string {
	switch s {
	case tsNew:
		return "new"
	case tsRunning:
		return "running"
	case tsWaiting:
		return "waiting"
	case tsParked:
		return "parked"
	case tsDone:
		return "done"
	}
	return "?"
}

// Task is a simulated thread of control: a goroutine that runs only while
// it holds the ball, and gives it up only by yielding.
type Task struct {
	sim     *Sim
	id      int
	name    string
	fn      func(t *Task)
	state   taskState
	ev      int         // index of the pending resume event in sim.queue, or -1
	permit  bool        // a buffered Unpark (LockSupport-style)
	woke    bool        // last sleep ended due to Unpark rather than timeout
	plan    func() Time // non-nil while in SleepWhile
	started bool        // the goroutine running fn exists

	resume chan struct{} // the ball, handed to this task
}

// killed is the panic value that unwinds a task still alive when Run
// returns.
type killed struct{}

// Sim is a deterministic discrete-event simulator.
type Sim struct {
	now   Time
	seq   uint64
	queue []event // binary min-heap on (at, seq)
	tasks []*Task
	live  int           // tasks not yet done
	cur   *Task         // task currently holding the ball (nil in dispatch/callback)
	done  chan struct{} // a task goroutine -> Run: the run is over
	rng   PRNG

	panicV  interface{} // re-raised panic from a task or callback
	halted  bool
	killing bool // Run is unwinding the unfinished tasks
}

// New returns a fresh simulator. seed initialises the simulator's
// deterministic PRNG (used e.g. for work-stealing victim selection).
func New(seed uint64) *Sim {
	return &Sim{
		done: make(chan struct{}),
		rng:  NewPRNG(seed),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulator's deterministic PRNG.
func (s *Sim) Rand() *PRNG { return &s.rng }

// Spawn creates a new task executing fn and schedules it to start at the
// current virtual time. It may be called from the kernel (before Run),
// from another task, or from a timer callback. The task's goroutine is
// started when it first gets the ball.
func (s *Sim) Spawn(name string, fn func(t *Task)) *Task {
	t := &Task{
		sim:    s,
		id:     len(s.tasks),
		name:   name,
		fn:     fn,
		state:  tsNew,
		ev:     -1,
		resume: make(chan struct{}),
	}
	s.tasks = append(s.tasks, t)
	s.live++
	s.schedule(s.now, t)
	return t
}

// After schedules fn to run in kernel context at now+d. Callbacks must not
// block; they may Unpark tasks, Spawn tasks, and schedule further callbacks.
func (s *Sim) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	s.seq++
	s.push(event{at: s.now + d, seq: s.seq, fn: fn})
}

// schedule sets t's resume event to time at, with a fresh sequence
// number: it rewrites t's pending event if there is one.
func (s *Sim) schedule(at Time, t *Task) {
	s.seq++
	t.state = tsWaiting
	i := t.ev
	if i < 0 {
		s.push(event{at: at, seq: s.seq, task: t})
		return
	}
	s.queue[i].at, s.queue[i].seq = at, s.seq
	s.down(i)
	s.up(t.ev)
}

func (s *Sim) push(ev event) {
	s.queue = append(s.queue, ev)
	s.up(len(s.queue) - 1)
}

func (s *Sim) pop() event {
	q := s.queue
	ev := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	s.queue = q[:n]
	if n > 0 {
		s.queue[0] = last
		s.down(0)
	}
	if ev.task != nil {
		ev.task.ev = -1
	}
	return ev
}

// put stores ev at heap index i and records the index in its task.
func (s *Sim) put(i int, ev event) {
	s.queue[i] = ev
	if ev.task != nil {
		ev.task.ev = i
	}
}

func (s *Sim) up(i int) {
	q := s.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p]) {
			break
		}
		s.put(i, q[p])
		i = p
	}
	s.put(i, ev)
}

func (s *Sim) down(i int) {
	q := s.queue
	n := len(q)
	ev := q[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&ev) {
			break
		}
		s.put(i, q[c])
		i = c
	}
	s.put(i, ev)
}

// Run executes events until the queue is empty or the simulation is
// halted. It returns an error if any task is still alive (parked forever)
// when the queue drains — a simulated deadlock. A panic in a task is
// re-raised naming the task; a panic in a callback is re-raised with the
// callback's own value. Before Run returns, every unfinished task is
// unwound, so a run leaves no goroutine behind.
func (s *Sim) Run() error {
	defer s.unwind()
	if t := s.dispatch(); t != nil {
		s.pass(t)
		<-s.done
	}
	if s.panicV != nil {
		panic(s.panicV)
	}
	if s.halted {
		return nil
	}
	if s.live > 0 {
		var stuck []string
		for _, t := range s.tasks {
			if t.state != tsDone {
				stuck = append(stuck, fmt.Sprintf("%s(%s)", t.name, t.state))
			}
		}
		sort.Strings(stuck)
		return fmt.Errorf("sim: deadlock at t=%d: %d task(s) never finished: %v", s.now, s.live, stuck)
	}
	return nil
}

// Halt stops the simulation after the current event completes. Pending
// events are discarded; Run returns nil.
func (s *Sim) Halt() { s.halted = true }

// dispatch runs events until one resumes a task and returns that task,
// which now holds the ball; nil means the run is over. Callbacks and
// re-plans run inline, on the calling goroutine.
func (s *Sim) dispatch() *Task {
	s.cur = nil
	for len(s.queue) > 0 && !s.halted {
		ev := s.pop()
		s.now = ev.at
		if ev.fn != nil {
			s.callback(ev.fn)
			continue
		}
		t := ev.task
		if t.plan != nil && t.sleep() {
			continue
		}
		t.state = tsRunning
		s.cur = t
		return t
	}
	return nil
}

// callback runs fn, noting its panic value so that Run re-raises it
// unchanged whatever the panic unwinds through on its way.
func (s *Sim) callback(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			s.panicV = r
			panic(r)
		}
	}()
	fn()
}

// pass hands the ball to t, starting its goroutine on first use, or, for
// nil, tells Run that the run is over.
func (s *Sim) pass(t *Task) {
	switch {
	case t == nil:
		s.done <- struct{}{}
	case !t.started:
		t.started = true
		go t.main()
	default:
		t.resume <- struct{}{}
	}
}

// main is the body of t's goroutine.
func (t *Task) main() {
	s := t.sim
	r := catch(func() { t.fn(t) })
	t.state = tsDone
	s.live--
	if s.killing {
		s.done <- struct{}{}
		return
	}
	if r == nil {
		if r = catch(func() { s.pass(s.dispatch()) }); r == nil {
			return
		}
	}
	if s.panicV == nil {
		s.panicV = fmt.Sprintf("task %q panicked: %v", t.name, r)
	}
	s.done <- struct{}{}
}

// catch calls f and returns the value it panicked with, if any.
func catch(f func()) (r interface{}) {
	defer func() { r = recover() }()
	f()
	return nil
}

// unwind ends the goroutine of every task that is still alive, one at a
// time: each is resumed with the killed panic, which its main swallows.
func (s *Sim) unwind() {
	s.killing = true
	for _, t := range s.tasks {
		if t.started && t.state != tsDone {
			s.cur = t
			t.resume <- struct{}{}
			<-s.done
		}
	}
}

// yield gives up the ball and blocks until the task holds it again. The
// task dispatches events itself and keeps the ball if the next event to
// resume a task is its own.
func (t *Task) yield() {
	s := t.sim
	next := s.dispatch()
	if next == t {
		return
	}
	s.pass(next)
	<-t.resume
	if s.killing {
		panic(killed{})
	}
}

// sleep re-plans a task in SleepWhile: it calls the plan, consuming a
// buffered permit the way a SleepInterruptible loop would, and either
// schedules the rest of the sleep and reports true, or reports false
// when the wait is over.
func (t *Task) sleep() bool {
	for {
		d := t.plan()
		if d <= 0 {
			return false
		}
		if t.permit {
			t.permit = false
			continue
		}
		t.sim.schedule(t.sim.now+d, t)
		t.state = tsParked
		return true
	}
}

func (t *Task) mustHoldBall(op string) {
	if t.sim.cur != t {
		panic(fmt.Sprintf("sim: %s called on task %q which is not running", op, t.name))
	}
}

// Name returns the task's name (for traces and error messages).
func (t *Task) Name() string { return t.name }

// ID returns the task's creation index.
func (t *Task) ID() int { return t.id }

// Sim returns the simulator this task belongs to.
func (t *Task) Sim() *Sim { return t.sim }

// Now returns the current virtual time.
func (t *Task) Now() Time { return t.sim.now }

// Advance moves this task d nanoseconds forward in virtual time.
// Unparks arriving during an Advance are buffered as a permit for the
// next Park/SleepInterruptible/SleepWhile; Advance itself always sleeps
// fully.
func (t *Task) Advance(d Time) {
	t.mustHoldBall("Advance")
	if d < 0 {
		panic("sim: Advance with negative duration")
	}
	if d == 0 {
		return
	}
	t.sim.schedule(t.sim.now+d, t)
	t.yield()
}

// Park suspends the task until another task or callback calls Unpark. If
// a permit is buffered (an earlier Unpark arrived while the task was not
// parked), Park consumes it and returns immediately without yielding time.
func (t *Task) Park() {
	t.mustHoldBall("Park")
	if t.permit {
		t.permit = false
		return
	}
	t.state = tsParked
	t.yield()
}

// SleepInterruptible parks for at most d nanoseconds. It returns true if
// it was woken early by Unpark, false if the full duration elapsed. A
// buffered permit makes it return true immediately.
func (t *Task) SleepInterruptible(d Time) (woken bool) {
	t.mustHoldBall("SleepInterruptible")
	if t.permit {
		t.permit = false
		return true
	}
	if d < 0 {
		d = 0
	}
	t.woke = false
	t.sim.schedule(t.sim.now+d, t)
	t.state = tsParked // parked-with-timeout: Unpark may preempt the timer
	t.yield()
	return t.woke
}

// SleepWhile sleeps for as long as plan asks. plan returns how much
// longer to sleep, or 0 when the wait is over. It behaves exactly like
//
//	for d := plan(); d > 0; d = plan() {
//		t.SleepInterruptible(d)
//	}
//
// but only the first call of plan runs on the task: every later one is
// made by the kernel when the sleep ends, by timeout or Unpark, and the
// task is resumed only once plan returns 0. plan must not call task
// operations; it may only read simulated state and the clock.
func (t *Task) SleepWhile(plan func() Time) {
	t.mustHoldBall("SleepWhile")
	t.plan = plan
	if t.sleep() {
		t.yield()
	}
	t.plan = nil
}

// Unpark wakes t if it is parked (scheduling its resumption at the
// caller's current virtual time); otherwise it buffers a permit for t's
// next Park, SleepInterruptible or SleepWhile. Unpark of a finished task
// is a no-op. It may be called from any task or callback.
func (t *Task) Unpark() {
	switch t.state {
	case tsDone:
		return
	case tsParked:
		t.woke = true
		t.sim.schedule(t.sim.now, t)
	default:
		t.permit = true
	}
}

// Parked reports whether the task is currently parked (with or without a
// timeout).
func (t *Task) Parked() bool { return t.state == tsParked }

// Done reports whether the task has finished.
func (t *Task) Done() bool { return t.state == tsDone }
