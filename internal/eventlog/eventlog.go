// Package eventlog is the wall-clock observability layer of the native
// work-stealing runtime: a GHC-eventlog/ThreadScope-style per-worker
// event recorder cheap enough to leave on during measurement.
//
// Design constraints (the same ones GHC's eventlog solves):
//
//   - Owner-written buffers. Each worker appends to its own Buf; no
//     other goroutine touches the events until the run is over, so the
//     hot path takes no locks and issues no atomic operations — one
//     monotonic-clock read and one slice append per event.
//   - Fixed-capacity chunks with ring wraparound. A Buf grows chunk by
//     chunk up to a cap; past the cap the oldest chunk is recycled and
//     its events are counted as dropped. Memory stays bounded on any
//     run length, and a full buffer degrades to "most recent window"
//     rather than stopping the run or stalling the worker.
//   - Drain after the barrier. Run drains the buffers only after every
//     worker has stopped (stealers.Wait), so the owner-written slices
//     are published by the WaitGroup's happens-before edge — the same
//     discipline as the simulated runtime's post-run trace close.
//
// A drained Log reduces to the existing trace.Log/Segment model
// (Trace), so the ASCII/CSV/JSON/HTML renderers draw native wall-clock
// timelines identically to the simulated EdenTV-style figures.
package eventlog

import (
	"fmt"
	"sync/atomic"
	"time"

	"parhask/internal/trace"
)

// Type identifies one native-runtime event.
type Type uint8

const (
	// SparkPush: Par pushed a spark onto this worker's pool.
	SparkPush Type = iota
	// SparkConvert: this worker took a spark and is about to force it.
	SparkConvert
	// SparkFizzle: this worker took a spark that was already evaluated.
	SparkFizzle
	// StealAttempt: a steal was tried on a non-empty victim pool (Arg =
	// victim worker id).
	StealAttempt
	// StealSuccess: the steal won its CAS (Arg = victim worker id).
	StealSuccess
	// ThunkClaim: an eager black-holing CAS claim succeeded.
	ThunkClaim
	// ThunkRelease: the claimed thunk's evaluation completed.
	ThunkRelease
	// ThunkDupEntry: a lazy-black-holing duplicate thunk entry.
	ThunkDupEntry
	// BlockBegin: a force found a black hole and started waiting.
	BlockBegin
	// BlockEnd: the awaited thunk became evaluated.
	BlockEnd
	// IdleBegin: the worker found no work anywhere and began backing off.
	IdleBegin
	// IdleEnd: work appeared (or the run ended) after an idle stretch.
	IdleEnd
	// Fork: this worker created a new GpH thread (a real goroutine).
	Fork
	// RunBegin: the worker started running mutator code (a converted
	// spark, or worker 0 entering the program's main function).
	RunBegin
	// RunEnd: the mutator stretch opened by the matching RunBegin ended.
	RunEnd
	// MsgSend: a message left this PE (Arg = destination PE). Native-Eden
	// backend only; GpH workers never emit it.
	MsgSend
	// MsgRecv: a message was delivered into this PE's heap (Arg = source
	// PE).
	MsgRecv
	// CommBegin: the PE started packing/shipping or unpacking a message;
	// the bracket renders as the Comm band in the EdenTV-style timeline.
	CommBegin
	// CommEnd: the communication stretch opened by CommBegin ended.
	CommEnd
	// MsgDrop: the fault injector discarded an outgoing message after
	// packing (Arg = destination PE).
	MsgDrop
	// FaultPanic: the fault injector panicked this worker/thread, or
	// doomed a spark created here (Arg = the injected spark/process
	// index, truncated to 32 bits).
	FaultPanic
	// ThunkPoison: a dying thread poisoned a claimed thunk so blocked
	// peers fail over instead of waiting forever.
	ThunkPoison
	// WorkerDead: a supervisor observed a worker/process death (Arg =
	// the dead worker's index); recovery (re-dispatch) follows.
	WorkerDead
	// DelayBegin: the fault injector started delaying an outgoing
	// message (sender-side sleep; Arg = destination PE). Renders as a
	// Blocked band.
	DelayBegin
	// DelayEnd: the injected delay ended and the send proceeds.
	DelayEnd
	// StallBegin: the fault injector started a stall sleep on this
	// PE/worker (a "slow PE"). Renders as a Blocked band.
	StallBegin
	// StallEnd: the injected stall ended.
	StallEnd
	// TraceMark tags the ring with the service-assigned trace ID of the
	// job it records (Arg = the numeric id). Emitted once, before any
	// other worker can write, so cross-process consumers (tracedump
	// -job) can associate a drained ring with its request.
	TraceMark

	numTypes
)

var typeNames = [numTypes]string{
	SparkPush:     "spark-push",
	SparkConvert:  "spark-convert",
	SparkFizzle:   "spark-fizzle",
	StealAttempt:  "steal-attempt",
	StealSuccess:  "steal-success",
	ThunkClaim:    "thunk-claim",
	ThunkRelease:  "thunk-release",
	ThunkDupEntry: "thunk-dup-entry",
	BlockBegin:    "block-begin",
	BlockEnd:      "block-end",
	IdleBegin:     "idle-begin",
	IdleEnd:       "idle-end",
	Fork:          "fork",
	RunBegin:      "run-begin",
	RunEnd:        "run-end",
	MsgSend:       "msg-send",
	MsgRecv:       "msg-recv",
	CommBegin:     "comm-begin",
	CommEnd:       "comm-end",
	MsgDrop:       "msg-drop",
	FaultPanic:    "fault-panic",
	ThunkPoison:   "thunk-poison",
	WorkerDead:    "worker-dead",
	DelayBegin:    "delay-begin",
	DelayEnd:      "delay-end",
	StallBegin:    "stall-begin",
	StallEnd:      "stall-end",
	TraceMark:     "trace-mark",
}

// String returns the event type's name.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("eventlog.Type(%d)", uint8(t))
}

// Event is one recorded occurrence: 16 bytes, value-copied into the
// owner's chunk with no per-event allocation.
type Event struct {
	// T is the event time in nanoseconds since the run started, from the
	// monotonic clock (so it never goes backwards within a worker).
	T int64
	// Arg is event-specific: the victim worker id for steal events,
	// zero otherwise.
	Arg int32
	// Type says what happened.
	Type Type
}

// Config tunes the per-worker buffers; the zero value selects defaults.
type Config struct {
	// ChunkEvents is the number of events per fixed-capacity chunk
	// (default 2048).
	ChunkEvents int
	// MaxChunks caps how many chunks one worker may hold before the ring
	// wraps and the oldest chunk is dropped (default 64 — about 2 MiB of
	// events per worker at the default chunk size).
	MaxChunks int
}

// DefaultChunkEvents and DefaultMaxChunks are the Config defaults.
const (
	DefaultChunkEvents = 2048
	DefaultMaxChunks   = 64
)

func (c Config) withDefaults() Config {
	if c.ChunkEvents <= 0 {
		c.ChunkEvents = DefaultChunkEvents
	}
	if c.MaxChunks <= 0 {
		c.MaxChunks = DefaultMaxChunks
	}
	return c
}

// chunk is one fixed-capacity run of events.
type chunk struct {
	ev []Event // len grows to cap(ChunkEvents), then a new chunk starts
}

// Buf is one worker's event buffer. Only the owning worker may call
// Emit/EmitArg; readers must wait for the run's termination barrier
// (eventlog draining is a post-mortem operation by design).
type Buf struct {
	start  time.Time
	cfg    Config
	cur    *chunk
	chunks []*chunk // oldest to newest; cur == chunks[len-1]
	// drops counts events lost to ring wraparound. The owner is the only
	// writer (on wrap, a rare event), but observers may read it live via
	// Dropped while the worker is still emitting — a plain int64 there is
	// a data race — so the counter is atomic. The hot path (append with
	// no wrap) still performs no atomic operations.
	drops atomic.Int64
}

// Emit records an event of type t, stamped now.
func (b *Buf) Emit(t Type) { b.EmitArg(t, 0) }

// EmitArg records an event of type t with an argument, stamped now.
func (b *Buf) EmitArg(t Type, arg int32) {
	b.append(Event{T: int64(time.Since(b.start)), Arg: arg, Type: t})
}

// append stores e, growing or wrapping the chunk ring as needed.
func (b *Buf) append(e Event) {
	c := b.cur
	if len(c.ev) == cap(c.ev) {
		c = b.grow()
	}
	c.ev = append(c.ev, e)
}

// grow returns a fresh current chunk: a new allocation while under the
// chunk cap, otherwise the recycled oldest chunk (ring wraparound), so a
// saturated buffer keeps the most recent window without allocating.
func (b *Buf) grow() *chunk {
	if len(b.chunks) < b.cfg.MaxChunks {
		c := &chunk{ev: make([]Event, 0, b.cfg.ChunkEvents)}
		b.chunks = append(b.chunks, c)
		b.cur = c
		return c
	}
	oldest := b.chunks[0]
	b.drops.Add(int64(len(oldest.ev)))
	copy(b.chunks, b.chunks[1:])
	oldest.ev = oldest.ev[:0]
	b.chunks[len(b.chunks)-1] = oldest
	b.cur = oldest
	return oldest
}

// Events returns the buffered events oldest-first. Call only after the
// owner has stopped emitting (post-run).
func (b *Buf) Events() []Event {
	n := 0
	for _, c := range b.chunks {
		n += len(c.ev)
	}
	out := make([]Event, 0, n)
	for _, c := range b.chunks {
		out = append(out, c.ev...)
	}
	return out
}

// Len returns the number of buffered (non-dropped) events.
func (b *Buf) Len() int {
	n := 0
	for _, c := range b.chunks {
		n += len(c.ev)
	}
	return n
}

// Dropped returns how many events ring wraparound discarded. Unlike
// Events and Len it is safe to call while the owner is still emitting.
func (b *Buf) Dropped() int64 { return b.drops.Load() }

// Log owns the per-worker buffers of one native run.
type Log struct {
	bufs   []*Buf
	wallNS int64
}

// New creates a log with one buffer per worker. All timestamps are
// relative to start, which must be the instant the run's wall clock
// began (so event times line up with the measured wall time).
func New(start time.Time, workers int, cfg Config) *Log {
	cfg = cfg.withDefaults()
	l := &Log{bufs: make([]*Buf, workers)}
	for i := range l.bufs {
		c := &chunk{ev: make([]Event, 0, cfg.ChunkEvents)}
		l.bufs[i] = &Buf{start: start, cfg: cfg, cur: c, chunks: []*chunk{c}}
	}
	return l
}

// Buf returns worker i's buffer.
func (l *Log) Buf(i int) *Buf { return l.bufs[i] }

// Workers returns the number of per-worker buffers.
func (l *Log) Workers() int { return len(l.bufs) }

// Close records the run's final wall-clock time. Call after every
// worker has stopped emitting.
func (l *Log) Close(wallNS int64) { l.wallNS = wallNS }

// WallNS returns the wall-clock time recorded by Close.
func (l *Log) WallNS() int64 { return l.wallNS }

// Events returns worker i's events oldest-first (post-run only).
func (l *Log) Events(i int) []Event { return l.bufs[i].Events() }

// Dropped returns the total events lost to ring wraparound. Safe to
// call while workers are still emitting.
func (l *Log) Dropped() int64 {
	var n int64
	for _, b := range l.bufs {
		n += b.drops.Load()
	}
	return n
}

// Trace reduces the event stream into the shared trace.Log/Segment
// model, one agent per worker, so the native run renders through the
// same ASCII/CSV/JSON/HTML exporters as the simulated EdenTV figures.
// Times are wall-clock nanoseconds.
//
// The reduction is a per-worker state stack: Run/Block/Idle begin
// events push the corresponding trace state, end events pop back to
// whatever the bracket interrupted. Worker 0's base state is Idle (its
// main function is bracketed by explicit Run events); stealing workers'
// base is Runnable — between brackets they are scanning pools for work,
// the paper's yellow "system work" band.
func (l *Log) Trace() *trace.Log { return l.TraceNamed("w") }

// TraceNamed is Trace with a caller-chosen agent-name prefix: "w" gives
// the GpH worker timelines ("w0", "w1", …), "pe" the native-Eden PE
// timelines ("pe0", "pe1", …).
func (l *Log) TraceNamed(prefix string) *trace.Log {
	names := make([]string, len(l.bufs))
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return l.TraceAgents(names)
}

// TraceAgents is the reduction with explicit per-buffer agent names
// (one per buffer; missing names fall back to "agentN"). Per-job trace
// rings use it to label buffer 0 "main" and the rest after the workers
// that wrote them.
func (l *Log) TraceAgents(names []string) *trace.Log {
	tl := trace.NewLog()
	for i, b := range l.bufs {
		name := fmt.Sprintf("agent%d", i)
		if i < len(names) && names[i] != "" {
			name = names[i]
		}
		base := trace.Runnable
		if i == 0 {
			base = trace.Idle
		}
		r := trace.NewStackReducer(tl.NewAgent(name), base)
		for _, e := range b.Events() {
			switch e.Type {
			case RunBegin:
				r.Push(e.T, trace.Run)
			case BlockBegin:
				r.Push(e.T, trace.Blocked)
			case IdleBegin:
				r.Push(e.T, trace.Idle)
			case CommBegin:
				r.Push(e.T, trace.Comm)
			case DelayBegin, StallBegin:
				// Injected waits render as Blocked bands: the thread is
				// losing wall time it did not ask to lose. The point
				// events (MsgDrop, FaultPanic, …) stay in the raw log.
				r.Push(e.T, trace.Blocked)
			case RunEnd, BlockEnd, IdleEnd, CommEnd, DelayEnd, StallEnd:
				r.Pop(e.T)
			}
		}
	}
	tl.Close(l.wallNS)
	return tl
}
