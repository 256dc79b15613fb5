// Package nativeeden is the real-concurrency counterpart of the
// simulated Eden runtime (internal/eden): N processing elements on real
// goroutines, each a self-contained sequential runtime with its own
// thunk arena and owner-written counters, connected by typed channels
// with Eden's normal-form-before-send semantics. It executes the same
// backend-neutral programs (pe.Program — the skeletons and the
// workloads' Eden programs) and measures wall-clock time, completing
// the paper's GpH-vs-Eden head-to-head on real hardware.
//
// Architecture:
//
//   - One goroutine per Eden thread; each thread belongs to exactly one
//     PE. A PE is a big lock (mutex + condvar): a thread holds its PE's
//     mutex for its entire execution and releases it only while blocked
//     on a placeholder or during a cross-process send. Threads of one
//     PE therefore interleave only at blocking points — the same
//     granularity as the simulator, which is what makes the skeletons'
//     plain shared-state mutations (e.g. the master-worker
//     coordination state) safe unchanged. Virtual PEs beyond
//     GOMAXPROCS are just goroutines; the Go scheduler timeslices them
//     the way the OS timesliced the paper's 9- and 17-PE PVM runs on 8
//     cores.
//   - A thread only ever holds its own PE's lock. Every PE has an inbox
//     (a mutex-guarded FIFO and a condition variable on that mutex,
//     inbox.go):
//     a sender posts the copied message there and returns, and the
//     receiving PE's own threads apply their inbox under their own lock
//     at their scheduling points — before every wait, on wake-up, and
//     at thread exit. A send therefore never waits for the receiver to
//     stop computing, and the cluster transport's reader posts remote
//     messages the same way.
//   - No shared graph between PEs. Every value sent over a channel is
//     reduced to normal form, measured with the simulator's packing
//     model (eden.SizeOfChecked), and deep-copied before it is resolved
//     into the receiving PE's heap — a *graph.Thunk is never reachable
//     from two PEs. Channel cells live in a per-PE registry keyed by
//     channel id; ports are plain {id, pe} value structs, so shipping a
//     port ships no heap.
//   - Inports are heap placeholders (graph.NewPlaceholder): a thread
//     forcing one waits until its PE applies the message that fills it.
//   - Each PE owns a graph.Arena for its thunk allocation and a
//     wall-clock eventlog buffer; a send emits MsgSend under
//     CommBegin/CommEnd brackets and the receiver emits MsgRecv when it
//     applies the message, so the drained log renders EdenTV-style
//     per-PE timelines with message overlays through the same
//     exporters as the GpH runtimes.
//
// Go's garbage collector remains global — per-PE *independent* GC is a
// property this backend cannot reproduce honestly, so the telemetry
// reports what is real: run-level GC cycles/pauses plus per-PE
// allocation, arena footprint and message volume (see DESIGN.md §8).
package nativeeden

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parhask/internal/eventlog"
	"parhask/internal/faults"
	"parhask/internal/gcscope"
	"parhask/internal/graph"
	"parhask/internal/metrics"
	"parhask/internal/pe"
	"parhask/internal/trace"
)

// Config selects a native Eden runtime setup.
type Config struct {
	// PEs is the number of processing elements. It may exceed
	// GOMAXPROCS (virtual PEs); defaults to GOMAXPROCS.
	PEs int
	// ArenaChunk is the per-PE thunk-arena chunk capacity, in thunks
	// (0 selects graph.DefaultArenaChunk).
	ArenaChunk int
	// EventLog enables the per-PE wall-clock event rings; Result.Trace
	// then renders the EdenTV-style per-PE timeline.
	EventLog bool
	// EventLogConfig tunes the event rings (zero value = defaults).
	EventLogConfig eventlog.Config
	// Faults is an optional fault-injection plan (nil = none): injected
	// process panics, per-edge message drop/delay, and stalled PEs, all
	// seed-deterministic for exact replay.
	Faults *faults.Injector
	// Deadline arms the watchdog: the run fails with a structured
	// *faults.DeadlockError either when global quiescence is detected
	// (every live thread blocked on a placeholder, no progress) or when
	// the hard deadline expires, whichever comes first. Zero disables
	// the watchdog (and quiescence detection with it).
	Deadline time.Duration
	// Metrics, if non-nil, registers lane telemetry series
	// (internal/metrics). Honoured by NewResident only; batch runs
	// report through Result. Nil — the default — keeps every recording
	// hook a nil check.
	Metrics *metrics.Registry
	// TraceID, if non-zero, tags PE 0's event ring with a TraceMark
	// carrying this id (ignored unless EventLog): the serve layer's
	// handle for pulling one request's timeline off a live server.
	TraceID int32
	// Cluster, if non-nil, makes this RTS one member of a multi-process
	// Eden cluster (see cluster.go): it hosts only its rank's PEs,
	// cross-process sends go through Cluster.Transport as wire-encoded
	// bytes, and PEs is overridden to Cluster.TotalPEs(). Deadline is
	// ignored — deadlock detection is the coordinator's job, because a
	// worker waiting on remote messages is locally quiescent.
	Cluster *ClusterSpec
}

// NewConfig returns a native Eden configuration with pes PEs.
func NewConfig(pes int) Config {
	if pes <= 0 {
		pes = runtime.GOMAXPROCS(0)
	}
	return Config{PEs: pes}
}

// Stats aggregates counters over one native Eden run.
type Stats struct {
	// Messages / BytesSent count every channel and stream packet
	// (stream elements are one message each, as in Eden).
	Messages  int64 `json:"messages"`
	BytesSent int64 `json:"bytes_sent"`
	// Processes counts Spawn instantiations; ThreadsCreated counts every
	// thread (processes, local forks, and the root).
	Processes      int64 `json:"processes"`
	ThreadsCreated int64 `json:"threads_created"`
}

// PEStats is one PE's share of the run counters — owner-written under
// the PE's lock, read after the run's join barrier.
type PEStats struct {
	// MsgsSent/MsgsRecv and BytesSent/BytesRecv count this PE's side of
	// every packet.
	MsgsSent  int64 `json:"msgs_sent"`
	MsgsRecv  int64 `json:"msgs_recv"`
	BytesSent int64 `json:"bytes_sent"`
	BytesRecv int64 `json:"bytes_recv"`
	// Threads counts threads that ran on this PE.
	Threads int64 `json:"threads"`
	// AllocBytes is the heap allocation the workload declared via Alloc
	// (the virtual-cost hook doubles as telemetry here); Resident is
	// long-lived data declared via AddResident.
	AllocBytes int64 `json:"alloc_bytes"`
	Resident   int64 `json:"resident_bytes"`
	// ArenaChunks/ArenaThunks describe the PE's thunk arena footprint.
	ArenaChunks int64 `json:"arena_chunks"`
	ArenaThunks int64 `json:"arena_thunks"`
}

// GCStats is what Go's (global) collector did while the run executed.
// There is no per-PE GC to report — Go's heap is shared — so this is
// run-level, with the per-PE allocation story carried by PEStats.
type GCStats struct {
	Cycles     int64 `json:"cycles"`
	PauseNS    int64 `json:"pause_ns"`
	BytesAlloc int64 `json:"bytes_alloc"`
	// Shared reports that another run's measurement window overlapped
	// this one, so the deltas describe the whole process over the
	// interval rather than this run alone (see internal/gcscope).
	Shared bool `json:"shared,omitempty"`
}

// Result is the outcome of one native Eden run.
type Result struct {
	// Value is what the root process returned.
	Value graph.Value
	// WallNS is the real elapsed time in nanoseconds.
	WallNS int64
	// PEs is the processing-element count the run used.
	PEs int
	// Stats is the whole-run aggregate.
	Stats Stats
	// PerPE breaks the counters down by PE.
	PerPE []PEStats
	// GC is the run-level Go GC telemetry.
	GC GCStats
	// Events is the drained per-PE eventlog (nil unless Config.EventLog).
	Events *eventlog.Log
}

// Wall returns the elapsed wall-clock time as a duration.
func (r *Result) Wall() time.Duration { return time.Duration(r.WallNS) }

// Trace reduces the run's eventlog into a wall-clock per-PE trace.Log
// ("pe0", "pe1", …), rendered by the same exporters as the simulated
// EdenTV figures. Returns nil when the run was not event-logged.
func (r *Result) Trace() *trace.Log {
	if r.Events == nil {
		return nil
	}
	return r.Events.TraceNamed("pe")
}

// Report is the machine-readable summary of a native Eden run.
type Report struct {
	PEs    int       `json:"pes"`
	WallNS int64     `json:"wall_ns"`
	Total  Stats     `json:"total"`
	GC     GCStats   `json:"gc"`
	PerPE  []PEStats `json:"per_pe"`
}

// Report builds the machine-readable summary of the run.
func (r *Result) Report() Report {
	return Report{PEs: r.PEs, WallNS: r.WallNS, Total: r.Stats, GC: r.GC, PerPE: r.PerPE}
}

// errAborted unwinds a blocked thread after another thread already
// recorded the run's failure.
var errAborted = errors.New("nativeeden: run aborted")

// peRT is one processing element: the big lock its threads serialise
// on, its inbox, its private heap machinery, and its owner-written
// counters (owner = whichever thread currently holds mu).
type peRT struct {
	id  int
	rts *RTS
	mu  sync.Mutex

	// inbox holds deliveries posted by other PEs' threads and the
	// cluster reader, in arrival order; guarded by inboxMu, never by
	// mu. wake (on inboxMu) is where this PE's threads wait. See
	// inbox.go.
	inboxMu sync.Mutex
	inbox   []delivery
	wake    *sync.Cond

	// arena is this PE's thunk allocation region. Guarded by mu.
	arena *graph.Arena

	// cells maps channel id -> the inport placeholder living in this
	// PE's heap; streams maps stream id -> its cursor pair. Guarded by
	// mu.
	cells   map[int64]*cellState
	streams map[int64]*streamState

	// blockedOn records, per blocked thread, what it is waiting for —
	// the diagnostics a *faults.DeadlockError reports. Guarded by mu
	// (written by the blocking thread at block entry, read by the
	// watchdog under TryLock).
	blockedOn map[*PCtx]faults.BlockedThread

	// ctr is this PE's counter block. Guarded by mu.
	ctr PEStats

	// ev is this PE's wall-clock event ring (nil when disabled). All
	// emissions happen under mu, which serialises the PE's threads
	// (receives included: the PE applies its own inbox), so the
	// buffer's single-writer discipline holds.
	ev *eventlog.Buf
}

// cellState is one one-value channel's heap anchor on its owning PE:
// the inport placeholder plus the PE that created the channel (the
// best available guess at the peer expected to fill it, used by the
// deadlock watchdog's diagnostics).
type cellState struct {
	t      *graph.Thunk
	origin int
}

// streamState is one stream channel's heap anchor on its owning PE:
// tail is where the next arriving element lands (advanced by senders),
// cursor is the next cell the receiver will read. origin is the
// creating PE (watchdog diagnostics); cancelled marks a stream
// terminated from the receiving side by CancelStream, whose late
// sends are dropped silently instead of panicking.
type streamState struct {
	tail      *graph.Thunk
	cursor    *graph.Thunk
	origin    int
	cancelled bool
}

// RTS is a running native Eden instance.
type RTS struct {
	cfg Config
	pes []*peRT

	// chanIDs hands out channel and stream ids for root threads (a
	// sequence that replays identically across cluster processes);
	// workerChanIDs feeds the rank-partitioned space non-root threads
	// allocate from in cluster mode (see newChanID).
	chanIDs       atomic.Int64
	workerChanIDs atomic.Int64

	// stats fields updated from any thread.
	processes atomic.Int64
	threads   atomic.Int64

	// Watchdog bookkeeping. alive counts threads that have been spawned
	// and not yet exited; blocked counts threads currently inside
	// peRT.wait; progress increments on every wait return. Global
	// quiescence — alive > 0, blocked == alive, all three stable across
	// watchdog ticks, and every inbox empty — is a deadlock: every live
	// thread waits on a placeholder no runnable thread can fill, and no
	// message is left to fill it.
	alive    atomic.Int64
	blocked  atomic.Int64
	progress atomic.Uint64

	failed  atomic.Bool
	errOnce sync.Once
	err     error

	wg sync.WaitGroup

	events *eventlog.Log
}

// Run executes main as the root process on PE 0 and returns the
// result. The value is identical to the same program's simulated-Eden
// and sequential runs (referential transparency); only the time is
// real.
func Run(cfg Config, main pe.Program) (*Result, error) {
	r, err := NewRTS(cfg)
	if err != nil {
		return nil, err
	}
	return r.RunMain(main)
}

// NewRTS assembles a runtime without executing anything — the entry
// point cluster workers need, because the transport reader must be
// wired to Deliver before RunMain starts the program. In cluster mode
// only this rank's PEs exist; the r.pes slice keeps global indexing
// with nil holes for remote PEs.
func NewRTS(cfg Config) (*RTS, error) {
	if cl := cfg.Cluster; cl != nil {
		if err := cl.validate(); err != nil {
			return nil, err
		}
		cfg.PEs = cl.TotalPEs()
	} else if cfg.PEs <= 0 {
		cfg.PEs = runtime.GOMAXPROCS(0)
	}
	r := &RTS{cfg: cfg}
	r.pes = make([]*peRT, cfg.PEs)
	for i := range r.pes {
		if cl := cfg.Cluster; cl != nil && !cl.Owns(i) {
			continue
		}
		p := newPE(i, cfg.ArenaChunk)
		p.rts = r
		r.pes[i] = p
	}
	return r, nil
}

// RunMain executes main as the program's root process. On cluster rank
// 0 (and always outside cluster mode) the root is real; on other ranks
// it runs as the shadow-root replay (see cluster.go) and RunMain
// returns ErrDrained once the coordinator drains the run.
func (r *RTS) RunMain(main pe.Program) (*Result, error) {
	if main == nil {
		return nil, errors.New("nativeeden: nil main")
	}
	return r.run(main)
}

// newPE builds one processing element with empty registries and a
// fresh arena. The rts pointer is attached by the caller: a batch Run
// wires it once, a Resident lane re-points the same PEs at a fresh
// per-job RTS.
func newPE(id, arenaChunk int) *peRT {
	p := &peRT{id: id,
		arena:     graph.NewArena(arenaChunk),
		cells:     map[int64]*cellState{},
		streams:   map[int64]*streamState{},
		blockedOn: map[*PCtx]faults.BlockedThread{},
	}
	p.wake = sync.NewCond(&p.inboxMu)
	return p
}

// run executes main as the root process on PE 0 of an assembled RTS —
// the shared execution core of the batch Run and the Resident lane.
func (r *RTS) run(main pe.Program) (*Result, error) {
	cfg := r.cfg
	cl := cfg.Cluster
	gcWin := gcscope.Begin()
	start := time.Now()
	if cfg.EventLog {
		// In cluster mode the rings cover only the local PEs (event
		// indices are local; the worker names them by global PE id when
		// it dumps the log for the coordinator to fold).
		n := cfg.PEs
		if cl != nil {
			n = cl.PerProc
		}
		r.events = eventlog.New(start, n, cfg.EventLogConfig)
		li := 0
		for _, p := range r.pes {
			if p == nil {
				continue
			}
			// No thread runs yet, and the cluster transport reader only
			// posts to the inbox, so the ring is ours to set up.
			p.ev = r.events.Buf(li)
			li++
			if p.id == 0 && cfg.TraceID != 0 {
				// The mark is the ring's first event so a trace reader can
				// identify the job before decoding anything else. Emitted
				// pre-thread, so the single-writer rule holds.
				p.ev.EmitArg(eventlog.TraceMark, cfg.TraceID)
			}
			// A PE with no thread is idle, not runnable: open an Idle
			// bracket each thread's Run brackets nest inside. Emitted here,
			// before any thread exists, so the single-writer rule holds.
			p.ev.Emit(eventlog.IdleBegin)
		}
	}

	// The watchdog is its own goroutine: it fires while the root thread
	// itself may be among the deadlocked. Cluster members never arm it —
	// a worker blocked on remote messages is locally quiescent, so
	// deadlock detection belongs to the coordinator.
	var watchdogStop chan struct{}
	if cfg.Deadline > 0 && cl == nil {
		watchdogStop = make(chan struct{})
		go r.watchdog(start, watchdogStop)
	}

	// The caller's goroutine is the root process's thread on PE 0 — or,
	// on a cluster rank other than 0, the shadow-root replay pinned to
	// this rank's first local PE.
	var value graph.Value
	rootPE := r.pes[0]
	shadow := false
	if cl != nil && cl.Rank != 0 {
		rootPE = r.pes[cl.Rank*cl.PerProc]
		shadow = true
	}
	c0 := &PCtx{rts: r, pe: rootPE, name: "root", isRoot: true, shadow: shadow}
	runErr := func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				if v == errAborted {
					err = r.err // visible: errOnce.Do precedes failed.Store
					return
				}
				err = panicErr("nativeeden: root process panicked", v)
				// Orphaned-claim recovery: poison whatever the root had
				// black-holed so blocked peers unblock into the failure.
				poisonThunks(c0.claims, err)
			}
		}()
		p0 := c0.pe
		r.threads.Add(1)
		r.alive.Add(1)
		defer r.alive.Add(-1)
		p0.mu.Lock()
		defer p0.mu.Unlock()
		p0.ctr.Threads++
		if p0.ev != nil {
			p0.ev.Emit(eventlog.RunBegin)
		}
		value = main(c0)
		c0.end()
		return nil
	}()
	if runErr != nil {
		// The root's failure must unwind every blocked thread, exactly as
		// a thread panic aborts the root (see the native GpH runtime's
		// main-panic path for the hang this prevents). errOnce keeps the
		// first failure when the root merely unwound via errAborted.
		r.fail(runErr)
	}
	r.wg.Wait()
	if watchdogStop != nil {
		close(watchdogStop)
	}
	wall := time.Since(start)

	gcDelta := gcWin.End()

	if runErr == nil {
		runErr = r.err
	}
	// Every thread has joined, so the PEs are the run's own. Apply the
	// deliveries no thread was left to apply (a message to a PE whose
	// threads had all exited) so the per-PE receive counters see every
	// message. A failed run's leftovers die with its heap; a drained
	// cluster member's are applied, as its reader delivered them.
	if runErr == nil || errors.Is(runErr, ErrDrained) {
		for _, p := range r.pes {
			if p != nil {
				p.drain()
			}
		}
		if runErr == nil {
			runErr = r.err
		}
	}

	res := &Result{Value: value, WallNS: wall.Nanoseconds(), PEs: cfg.PEs}
	res.GC = GCStats{
		Cycles:     gcDelta.Cycles,
		PauseNS:    gcDelta.PauseNS,
		BytesAlloc: gcDelta.BytesAlloc,
		Shared:     gcDelta.Shared,
	}
	res.Stats = Stats{Processes: r.processes.Load(), ThreadsCreated: r.threads.Load()}
	res.PerPE = make([]PEStats, cfg.PEs)
	for i, p := range r.pes {
		if p == nil {
			continue // remote PE (cluster mode); its owner reports it
		}
		// The WaitGroup barrier orders every PE-thread write before this;
		// a late cluster frame only reaches the inbox.
		ps := p.ctr
		ps.ArenaChunks, ps.ArenaThunks = p.arena.Stats()
		res.PerPE[i] = ps
		res.Stats.Messages += ps.MsgsSent
		res.Stats.BytesSent += ps.BytesSent
	}
	if r.events != nil {
		r.events.Close(res.WallNS)
		res.Events = r.events
	}
	if runErr != nil {
		// Failed runs still return the partial Result — flushed event
		// rings and counters — so tracedump and the chaos soak can render
		// what happened up to the failure. Only the value is withheld.
		res.Value = nil
		return res, runErr
	}
	return res, nil
}

// panicErr turns a recovered panic value into an error, preserving
// error values (typed injected faults, misuse errors, poison) through
// %w so errors.As sees them from the run error.
func panicErr(prefix string, p any) error {
	if err, ok := p.(error); ok {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	return fmt.Errorf("%s: %v", prefix, p)
}

// poisonThunks marks every claimed thunk of a dead thread as Poisoned,
// newest-first, so peers blocked on them unblock into the failure path
// instead of waiting forever on a black hole.
func poisonThunks(claims []*graph.Thunk, err error) {
	for i := len(claims) - 1; i >= 0; i-- {
		if t := claims[i]; t != nil {
			t.Poison(err)
		}
	}
}

// watchdog polls the run's liveness counters. It fails the run with a
// structured *faults.DeadlockError on global quiescence (every live
// thread blocked, nothing progressing, stable across ticks) or when
// the hard deadline expires. Stopped by closing stop after the join
// barrier.
func (r *RTS) watchdog(start time.Time, stop chan struct{}) {
	const tick = 2 * time.Millisecond
	// ~40ms of perfect stillness before declaring quiescence: long
	// enough that a delay-injected sender (alive, not blocked) can't be
	// mistaken for deadlock, short enough that hung tests fail fast.
	const stableTicks = 20
	var lastAlive, lastBlocked int64
	var lastProgress uint64
	stable := 0
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if r.failed.Load() {
			return
		}
		elapsed := time.Since(start)
		if elapsed >= r.cfg.Deadline {
			r.fail(r.deadlockError("deadline", elapsed))
			return
		}
		a, b, pr := r.alive.Load(), r.blocked.Load(), r.progress.Load()
		if a > 0 && b == a && a == lastAlive && b == lastBlocked && pr == lastProgress && r.inboxesEmpty() {
			stable++
			if stable >= stableTicks {
				r.fail(r.deadlockError("quiescence", elapsed))
				return
			}
		} else {
			stable = 0
		}
		lastAlive, lastBlocked, lastProgress = a, b, pr
	}
}

// inboxesEmpty reports whether every local PE has applied everything
// posted to it: a queued message may still fill a parked thread's
// placeholder, so a run with one is not quiescent.
func (r *RTS) inboxesEmpty() bool {
	for _, p := range r.pes {
		if p != nil && !p.inboxEmpty() {
			return false
		}
	}
	return true
}

// deadlockError collects per-PE blocked-on diagnostics. TryLock, not
// Lock: on the quiescence path every PE lock is free (all threads are
// in peRT.wait), but on the deadline path a long-running mutator may
// hold its PE for its whole execution — report that PE as busy rather
// than hang the watchdog behind it.
func (r *RTS) deadlockError(reason string, elapsed time.Duration) *faults.DeadlockError {
	de := &faults.DeadlockError{Backend: "nativeeden", Reason: reason, Elapsed: elapsed}
	for _, p := range r.pes {
		if p == nil {
			continue
		}
		if !p.mu.TryLock() {
			de.Blocked = append(de.Blocked, faults.BlockedThread{
				PE: p.id, Thread: "(busy)", Reason: "running", Chan: -1, Peer: -1,
			})
			continue
		}
		for _, b := range p.blockedOn {
			de.Blocked = append(de.Blocked, b)
		}
		p.mu.Unlock()
	}
	sort.Slice(de.Blocked, func(i, j int) bool {
		if de.Blocked[i].PE != de.Blocked[j].PE {
			return de.Blocked[i].PE < de.Blocked[j].PE
		}
		return de.Blocked[i].Thread < de.Blocked[j].Thread
	})
	return de
}

// fail records the first thread failure and wakes every blocked thread
// so the run unwinds instead of hanging. It takes no PE lock, so any
// thread — or the cluster reader — may call it, holding its own lock
// or none.
func (r *RTS) fail(err error) {
	r.errOnce.Do(func() { r.err = err })
	r.failed.Store(true)
	for _, p := range r.pes {
		if p != nil {
			p.notify()
		}
	}
}

// checkFailed panics with errAborted if the run has failed; called at
// every blocking-loop iteration so no thread waits on a value that
// will never arrive.
func (p *peRT) checkFailed() {
	if p.rts.failed.Load() {
		panic(errAborted)
	}
}

// startThread runs body as a new Eden thread on this PE. The recover
// handler is registered before the lock is taken so that, on panic,
// the unlock (deferred later, hence run earlier) has already released
// the PE before the claims are poisoned and the run fails. alive is
// incremented here, synchronously, so the watchdog counts a
// spawned-but-not-yet-scheduled thread as live-and-runnable rather
// than seeing a transiently quiescent system.
func (r *RTS) startThread(p *peRT, name string, body func(*PCtx)) {
	r.wg.Add(1)
	r.threads.Add(1)
	r.alive.Add(1)
	go func() {
		defer r.wg.Done()
		defer r.alive.Add(-1)
		c := &PCtx{rts: r, pe: p, name: name}
		defer func() {
			if v := recover(); v != nil && v != errAborted {
				err := panicErr(fmt.Sprintf("nativeeden: PE %d thread %q panicked", p.id, name), v)
				// Orphaned-claim recovery before fail(): peers blocked on
				// this thread's black holes see poison, not a permanent
				// hole, even if they race past the abort flag.
				poisonThunks(c.claims, err)
				r.fail(err)
			}
		}()
		p.mu.Lock()
		defer p.mu.Unlock()
		c.begin()
		body(c)
		c.end()
	}()
}

// startSupervised runs body as a supervised Eden thread: a panic is
// contained — claims poisoned, PE woken, a pe.ThreadFailure death
// notice sent on the verdict channel — instead of aborting the run.
// Success sends true. Verdict delivery goes through the ordinary
// transport, so it is itself subject to message-fault injection (a
// dropped death notice becomes a watchdog-detected deadlock, which is
// the honest outcome).
func (r *RTS) startSupervised(p *peRT, name string, done Outport, body func(*PCtx)) {
	r.wg.Add(1)
	r.threads.Add(1)
	r.alive.Add(1)
	go func() {
		defer r.wg.Done()
		defer r.alive.Add(-1)
		c := &PCtx{rts: r, pe: p, name: name}
		aborted := false
		var failure *pe.ThreadFailure
		func() {
			defer func() {
				if v := recover(); v != nil {
					if v == errAborted {
						aborted = true
						return
					}
					err := panicErr(fmt.Sprintf("nativeeden: PE %d supervised thread %q panicked", p.id, name), v)
					poisonThunks(c.claims, err)
					// The deferred unlock already ran; wake siblings that
					// may be blocked on the freshly poisoned thunks.
					p.mu.Lock()
					p.notify()
					p.mu.Unlock()
					failure = &pe.ThreadFailure{PE: p.id, Name: name, Err: err.Error()}
				}
			}()
			p.mu.Lock()
			defer p.mu.Unlock()
			c.begin()
			body(c)
			c.end()
		}()
		if aborted {
			return
		}
		// Deliver the verdict. The send can fail too (injected faults,
		// closed run); that falls back to the ordinary abort path.
		func() {
			defer func() {
				if v := recover(); v != nil && v != errAborted {
					r.fail(panicErr(fmt.Sprintf("nativeeden: supervised thread %q verdict send failed", name), v))
				}
			}()
			p.mu.Lock()
			defer p.mu.Unlock()
			if failure != nil {
				if p.ev != nil {
					p.ev.EmitArg(eventlog.WorkerDead, int32(p.id))
				}
				c.Send(done, *failure)
			} else {
				c.Send(done, true)
			}
		}()
	}()
}
