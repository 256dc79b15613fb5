// Package faults is the deterministic fault-injection plane shared by
// both native backends (internal/native and internal/nativeeden).
//
// A Plan describes which faults to inject — thread panics at chosen
// spark/process indices, per-edge message drop/delay, and stalled
// ("slow") PEs — and is entirely derived from a seed, so any chaos
// failure replays exactly: parse the spec the failing run printed,
// re-run, observe the same injected fault multiset.
//
// The package also owns the structured failure types the recovery
// machinery returns instead of hanging: InjectedPanic for faults the
// plan asked for, and DeadlockError with per-PE blocked-on diagnostics
// for runs the watchdog had to kill.
//
// Determinism model: every injection decision is a pure hash of
// (seed, fault kind, edge, per-edge sequence number). The decision
// sequence for each spark index, process index and message edge is
// therefore a deterministic function of the seed. Under real
// concurrency two racing messages on the same edge may swap sequence
// numbers between runs — the multiset of injected faults is identical,
// but which of two racing sends is dropped can differ. That is the
// honest limit of replay on a real scheduler; in practice failing
// seeds reproduce because the fault pattern (not the interleaving) is
// what programs are sensitive to.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Fate classifies what the injector decided for one message.
type Fate int

const (
	// Deliver means the message proceeds normally.
	Deliver Fate = iota
	// Drop means the message is silently discarded after packing.
	Drop
	// Delay means the sender sleeps for the returned duration before
	// delivering (sender-side delay preserves per-edge FIFO order).
	Delay
)

// EdgeRule injects drop/delay on messages from PE Src to PE Dst.
// Src or Dst may be Any (-1) to match every PE on that side.
type EdgeRule struct {
	Src       int           // sending PE, or Any
	Dst       int           // receiving PE, or Any
	DropProb  float64       // probability in [0,1] a matching message is dropped
	DelayProb float64       // probability in [0,1] a matching message is delayed
	Delay     time.Duration // sender-side sleep for delayed messages
}

// Any matches every PE on one side of an EdgeRule.
const Any = -1

// Plan is a complete, seed-driven fault schedule.
type Plan struct {
	// Seed drives every probabilistic decision. Two runs of the same
	// program with the same Plan see the same per-edge decision
	// sequences.
	Seed uint64
	// PanicSparks are global spark indices, in spark-creation order,
	// whose evaluation panics: the backend fails the spark's thunk, so
	// whichever thread runs it (a worker or, after a fizzle, the
	// creator) dies. Creation order is program order whenever one
	// thread creates the sparks, so the index replays exactly.
	PanicSparks map[int64]bool
	// PanicProcs are process/thread spawn indices whose body panics on
	// entry.
	PanicProcs map[int64]bool
	// Edges are message drop/delay rules, applied first-match.
	Edges []EdgeRule
	// Stall maps a PE id (or worker id) to an extra sleep injected at
	// each communication point and thread start, simulating a slow PE.
	Stall map[int]time.Duration
	// KillRank maps a cluster worker rank to a delay after which the
	// whole worker *process* exits hard (os.Exit, no cleanup) — the
	// genuinely new fault class multi-process Eden adds over injected
	// panics. Applied by the worker itself after the run starts.
	KillRank map[int]time.Duration
	// SeverRank maps a cluster worker rank to a delay after which the
	// worker severs its coordinator link (closes the connection),
	// simulating a network partition; the orphaned worker then exits.
	SeverRank map[int]time.Duration
	// FlapRank maps a cluster worker rank to a transient link outage:
	// the worker drops its coordinator connection at At, stays dark for
	// Down, then redials. Unlike SeverRank the failure is recoverable —
	// a reconnect-capable cluster should ride it out in place.
	FlapRank map[int]FlapRule
	// WedgeRank maps a cluster worker rank to a delay after which the
	// worker stops servicing its link entirely (no reads, no pongs, no
	// sends) while the process stays alive — the failure mode only a
	// liveness heartbeat can tell apart from a slow worker.
	WedgeRank map[int]time.Duration
	// RankEvery makes the one-shot rank fault classes (kill/sever/flap/
	// wedge) re-fire on every supervised restart attempt instead of only
	// the first. The default (one-shot) is what lets a restart budget
	// recover a run; RankEvery exists to test budget exhaustion.
	RankEvery bool
}

// FlapRule describes one transient link outage for a cluster rank.
type FlapRule struct {
	// At is how long after the run starts the link drops.
	At time.Duration
	// Down is how long the link stays down before the worker redials.
	Down time.Duration
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	if p == nil {
		return true
	}
	return len(p.PanicSparks) == 0 && len(p.PanicProcs) == 0 &&
		len(p.Edges) == 0 && len(p.Stall) == 0 &&
		len(p.KillRank) == 0 && len(p.SeverRank) == 0 &&
		len(p.FlapRank) == 0 && len(p.WedgeRank) == 0
}

// String renders the plan in the -faults spec grammar; Parse(p.String())
// round-trips.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	for _, k := range sortedKeys(p.PanicSparks) {
		parts = append(parts, fmt.Sprintf("panic-spark=%d", k))
	}
	for _, k := range sortedKeys(p.PanicProcs) {
		parts = append(parts, fmt.Sprintf("panic-proc=%d", k))
	}
	for _, e := range p.Edges {
		if e.DropProb > 0 {
			parts = append(parts, fmt.Sprintf("drop=%s%s", formatProb(e.DropProb), formatEdge(e.Src, e.Dst)))
		}
		if e.DelayProb > 0 {
			parts = append(parts, fmt.Sprintf("delay=%s:%s%s", e.Delay, formatProb(e.DelayProb), formatEdge(e.Src, e.Dst)))
		}
	}
	stallIDs := make([]int, 0, len(p.Stall))
	for id := range p.Stall {
		stallIDs = append(stallIDs, id)
	}
	sort.Ints(stallIDs)
	for _, id := range stallIDs {
		parts = append(parts, fmt.Sprintf("stall=%d:%s", id, p.Stall[id]))
	}
	for _, id := range sortedIntKeys(p.KillRank) {
		parts = append(parts, fmt.Sprintf("kill-rank=%d:%s", id, p.KillRank[id]))
	}
	for _, id := range sortedIntKeys(p.SeverRank) {
		parts = append(parts, fmt.Sprintf("sever-rank=%d:%s", id, p.SeverRank[id]))
	}
	flapIDs := make([]int, 0, len(p.FlapRank))
	for id := range p.FlapRank {
		flapIDs = append(flapIDs, id)
	}
	sort.Ints(flapIDs)
	for _, id := range flapIDs {
		r := p.FlapRank[id]
		parts = append(parts, fmt.Sprintf("flap-rank=%d:%s:%s", id, r.At, r.Down))
	}
	for _, id := range sortedIntKeys(p.WedgeRank) {
		parts = append(parts, fmt.Sprintf("wedge-rank=%d:%s", id, p.WedgeRank[id]))
	}
	if p.RankEvery {
		parts = append(parts, "rank-faults=every")
	}
	return strings.Join(parts, ",")
}

func sortedIntKeys(m map[int]time.Duration) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

func sortedKeys(m map[int64]bool) []int64 {
	ks := make([]int64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

func formatProb(p float64) string {
	return strconv.FormatFloat(p, 'g', -1, 64)
}

func formatEdge(src, dst int) string {
	if src == Any && dst == Any {
		return ""
	}
	s, d := "*", "*"
	if src != Any {
		s = strconv.Itoa(src)
	}
	if dst != Any {
		d = strconv.Itoa(dst)
	}
	return "@" + s + "-" + d
}

// Parse reads a fault spec in the grammar accepted by the -faults flag:
//
//	seed=42,panic-spark=17,panic-proc=3,drop=0.1@0-2,delay=2ms:0.3,stall=1:5ms
//
// Clauses are comma-separated key=value pairs:
//
//	seed=N            seed for all probabilistic decisions (default 1)
//	panic-spark=K     panic whichever thread evaluates the K-th spark created
//	panic-proc=K      panic process/thread spawn index K on entry
//	drop=P[@S-D]      drop matching messages with probability P;
//	                  @S-D restricts to edge S→D, either side may be *
//	delay=DUR:P[@S-D] delay matching messages by DUR with probability P
//	stall=PE:DUR      slow PE/worker id by DUR at each comm point
//	kill-rank=R:DUR   cluster mode: worker process rank R exits hard
//	                  (os.Exit) DUR after its run starts
//	sever-rank=R:DUR  cluster mode: rank R severs its coordinator link
//	                  DUR after its run starts, then exits
//	flap-rank=R:AT:DOWN  cluster mode: rank R drops its link AT after
//	                  the run starts, stays down for DOWN, then redials
//	wedge-rank=R:DUR  cluster mode: rank R stops servicing its link
//	                  (no reads, pongs or sends) DUR after the run
//	                  starts while the process lives on
//	rank-faults=every re-fire the rank fault classes on every
//	                  supervised restart attempt (default: first only)
//
// An empty spec returns a nil Plan (no faults).
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{Seed: 1}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("faults: clause %q is not key=value", clause)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", val, err)
			}
			p.Seed = n
		case "panic-spark":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faults: bad panic-spark index %q", val)
			}
			if p.PanicSparks == nil {
				p.PanicSparks = make(map[int64]bool)
			}
			p.PanicSparks[n] = true
		case "panic-proc":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faults: bad panic-proc index %q", val)
			}
			if p.PanicProcs == nil {
				p.PanicProcs = make(map[int64]bool)
			}
			p.PanicProcs[n] = true
		case "drop":
			probStr, edge := splitEdge(val)
			prob, err := parseProb(probStr)
			if err != nil {
				return nil, fmt.Errorf("faults: bad drop %q: %v", val, err)
			}
			src, dst, err := parseEdge(edge)
			if err != nil {
				return nil, fmt.Errorf("faults: bad drop edge %q: %v", val, err)
			}
			p.Edges = append(p.Edges, EdgeRule{Src: src, Dst: dst, DropProb: prob})
		case "delay":
			durStr, rest, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("faults: delay %q must be DUR:P[@S-D]", val)
			}
			dur, err := time.ParseDuration(durStr)
			if err != nil || dur <= 0 {
				return nil, fmt.Errorf("faults: bad delay duration %q", durStr)
			}
			probStr, edge := splitEdge(rest)
			prob, err := parseProb(probStr)
			if err != nil {
				return nil, fmt.Errorf("faults: bad delay %q: %v", val, err)
			}
			src, dst, err := parseEdge(edge)
			if err != nil {
				return nil, fmt.Errorf("faults: bad delay edge %q: %v", val, err)
			}
			p.Edges = append(p.Edges, EdgeRule{Src: src, Dst: dst, DelayProb: prob, Delay: dur})
		case "stall":
			idStr, durStr, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("faults: stall %q must be PE:DUR", val)
			}
			id, err := strconv.Atoi(idStr)
			if err != nil || id < 0 {
				return nil, fmt.Errorf("faults: bad stall PE %q", idStr)
			}
			dur, err := time.ParseDuration(durStr)
			if err != nil || dur <= 0 {
				return nil, fmt.Errorf("faults: bad stall duration %q", durStr)
			}
			if p.Stall == nil {
				p.Stall = make(map[int]time.Duration)
			}
			p.Stall[id] = dur
		case "kill-rank", "sever-rank":
			idStr, durStr, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("faults: %s %q must be RANK:DUR", key, val)
			}
			id, err := strconv.Atoi(idStr)
			if err != nil || id < 0 {
				return nil, fmt.Errorf("faults: bad %s rank %q", key, idStr)
			}
			dur, err := time.ParseDuration(durStr)
			if err != nil || dur <= 0 {
				return nil, fmt.Errorf("faults: bad %s duration %q", key, durStr)
			}
			if key == "kill-rank" {
				if p.KillRank == nil {
					p.KillRank = make(map[int]time.Duration)
				}
				p.KillRank[id] = dur
			} else {
				if p.SeverRank == nil {
					p.SeverRank = make(map[int]time.Duration)
				}
				p.SeverRank[id] = dur
			}
		case "wedge-rank":
			idStr, durStr, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("faults: wedge-rank %q must be RANK:DUR", val)
			}
			id, err := strconv.Atoi(idStr)
			if err != nil || id < 0 {
				return nil, fmt.Errorf("faults: bad wedge-rank rank %q", idStr)
			}
			dur, err := time.ParseDuration(durStr)
			if err != nil || dur <= 0 {
				return nil, fmt.Errorf("faults: bad wedge-rank duration %q", durStr)
			}
			if p.WedgeRank == nil {
				p.WedgeRank = make(map[int]time.Duration)
			}
			p.WedgeRank[id] = dur
		case "flap-rank":
			fields := strings.Split(val, ":")
			if len(fields) != 3 {
				return nil, fmt.Errorf("faults: flap-rank %q must be RANK:AT:DOWN", val)
			}
			id, err := strconv.Atoi(fields[0])
			if err != nil || id < 0 {
				return nil, fmt.Errorf("faults: bad flap-rank rank %q", fields[0])
			}
			at, err := time.ParseDuration(fields[1])
			if err != nil || at <= 0 {
				return nil, fmt.Errorf("faults: bad flap-rank onset %q", fields[1])
			}
			down, err := time.ParseDuration(fields[2])
			if err != nil || down <= 0 {
				return nil, fmt.Errorf("faults: bad flap-rank outage %q", fields[2])
			}
			if p.FlapRank == nil {
				p.FlapRank = make(map[int]FlapRule)
			}
			p.FlapRank[id] = FlapRule{At: at, Down: down}
		case "rank-faults":
			switch val {
			case "every":
				p.RankEvery = true
			case "once":
				p.RankEvery = false
			default:
				return nil, fmt.Errorf("faults: rank-faults %q must be once or every", val)
			}
		default:
			return nil, fmt.Errorf("faults: unknown clause %q", key)
		}
	}
	return p, nil
}

func splitEdge(s string) (prob, edge string) {
	if i := strings.IndexByte(s, '@'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %g outside [0,1]", p)
	}
	return p, nil
}

func parseEdge(s string) (src, dst int, err error) {
	if s == "" {
		return Any, Any, nil
	}
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("edge %q must be S-D", s)
	}
	parse := func(t string) (int, error) {
		if t == "*" {
			return Any, nil
		}
		n, err := strconv.Atoi(t)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("bad PE %q", t)
		}
		return n, nil
	}
	if src, err = parse(a); err != nil {
		return 0, 0, err
	}
	if dst, err = parse(b); err != nil {
		return 0, 0, err
	}
	return src, dst, nil
}

// InjectedPanic is the panic value raised by a fault the plan asked
// for; chaos harnesses match on it to distinguish injected failures
// from genuine bugs.
type InjectedPanic struct {
	Kind  string // "spark" or "proc"
	Index int64  // spark/process index the plan named
	Seed  uint64 // plan seed, for replay
}

func (e *InjectedPanic) Error() string {
	return fmt.Sprintf("faults: injected %s panic at index %d (seed %d)", e.Kind, e.Index, e.Seed)
}

// BlockedThread is one blocked thread's diagnostics inside a
// DeadlockError: what it is waiting on and who should have supplied it.
type BlockedThread struct {
	PE     int    // PE or worker id
	Thread string // thread name, if known
	Reason string // "channel" | "stream" | "local" | "spin"
	Chan   int64  // channel/stream id, or -1
	Peer   int    // PE expected to fill the channel, or -1
}

func (b BlockedThread) String() string {
	s := fmt.Sprintf("PE %d", b.PE)
	if b.Thread != "" {
		s += " " + b.Thread
	}
	s += " blocked on " + b.Reason
	if b.Chan >= 0 {
		s += fmt.Sprintf(" #%d", b.Chan)
	}
	if b.Peer >= 0 {
		s += fmt.Sprintf(" from PE %d", b.Peer)
	}
	return s
}

// DeadlockError is returned by the run watchdog when a computation can
// no longer make progress: every live thread is blocked and no message
// is in flight ("quiescence"), or the configured Deadline elapsed.
type DeadlockError struct {
	Backend string          // "native" | "nativeeden"
	Reason  string          // "quiescence" | "deadline"
	Elapsed time.Duration   // wall time when the watchdog fired
	Blocked []BlockedThread // per-PE blocked-on diagnostics
}

func (e *DeadlockError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: deadlock detected (%s) after %v", e.Backend, e.Reason, e.Elapsed)
	for _, b := range e.Blocked {
		sb.WriteString("; ")
		sb.WriteString(b.String())
	}
	return sb.String()
}

// ProcessDeathError is the structured failure for the fault class only
// a multi-process runtime has: a worker process died or its link was
// severed while the run was in flight. The coordinator raises it when
// a worker connection breaks before the run's results are in, kills
// the remaining workers, and exits cleanly — the distributed analogue
// of the in-process watchdog's DeadlockError.
type ProcessDeathError struct {
	// Rank is the dead worker's cluster rank.
	Rank int
	// PEs are the global PE indices the dead worker owned.
	PEs []int
	// Reason classifies the detection: "connection closed" (EOF — the
	// process exited or was killed), "connection error" (reset/refused
	// — a severed link), or "exit" (a nonzero exit status was reaped
	// first).
	Reason string
	// Err is the underlying transport error, if any.
	Err error
}

func (e *ProcessDeathError) Error() string {
	s := fmt.Sprintf("cluster: worker rank %d died (%s)", e.Rank, e.Reason)
	if len(e.PEs) > 0 {
		s += fmt.Sprintf("; its PEs %v are unreachable", e.PEs)
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Unwrap exposes the transport error to errors.Is/As.
func (e *ProcessDeathError) Unwrap() error { return e.Err }

// Counts are the injector's tallies of what it actually injected.
type Counts struct {
	Panics int64
	Drops  int64
	Delays int64
	Stalls int64
}

// Injector applies a Plan at runtime. All methods are safe for
// concurrent use and are nil-check-only on the hot path when no
// injector is configured (the backends guard every hook with
// `if inj != nil`).
type Injector struct {
	plan  *Plan
	spark atomic.Int64 // next spark-creation index
	proc  atomic.Int64 // next process/thread index
	// edgeSeq is the per-edge message sequence counter; keyed by
	// src<<32|dst (src, dst < 2^31 in practice).
	edgeSeq [maxEdgePEs * maxEdgePEs]atomic.Int64
	wideSeq atomic.Int64 // fallback for PEs >= maxEdgePEs

	panics atomic.Int64
	drops  atomic.Int64
	delays atomic.Int64
	stalls atomic.Int64
}

const maxEdgePEs = 64

// NewInjector arms a plan. A nil or empty plan returns a non-nil
// injector that injects nothing (useful for overhead benchmarks);
// callers that want zero overhead keep the Config field nil instead.
func NewInjector(p *Plan) *Injector {
	if p == nil {
		p = &Plan{Seed: 1}
	}
	return &Injector{plan: p}
}

// Plan returns the armed plan.
func (in *Injector) Plan() *Plan { return in.plan }

// Counts returns what was injected so far.
func (in *Injector) Counts() Counts {
	return Counts{
		Panics: in.panics.Load(),
		Drops:  in.drops.Load(),
		Delays: in.delays.Load(),
		Stalls: in.stalls.Load(),
	}
}

// SparkFault advances the global spark-creation counter and returns a
// non-nil *InjectedPanic if the plan names this spark index. The caller
// makes the spark's evaluation fail with the returned error.
func (in *Injector) SparkFault() *InjectedPanic {
	idx := in.spark.Add(1) - 1
	if in.plan.PanicSparks[idx] {
		in.panics.Add(1)
		return &InjectedPanic{Kind: "spark", Index: idx, Seed: in.plan.Seed}
	}
	return nil
}

// ProcFault advances the process/thread spawn counter and returns a
// non-nil *InjectedPanic if the plan names this index.
func (in *Injector) ProcFault() *InjectedPanic {
	idx := in.proc.Add(1) - 1
	if in.plan.PanicProcs[idx] {
		in.panics.Add(1)
		return &InjectedPanic{Kind: "proc", Index: idx, Seed: in.plan.Seed}
	}
	return nil
}

// MessageFate decides what happens to the next message on edge
// src→dst: Deliver, Drop, or Delay with the returned sleep. The
// decision is hash(seed, edge, per-edge seq), so each edge sees a
// deterministic decision sequence for a given seed.
func (in *Injector) MessageFate(src, dst int) (Fate, time.Duration) {
	rule := in.matchEdge(src, dst)
	if rule == nil {
		return Deliver, 0
	}
	seq := in.nextSeq(src, dst)
	if rule.DropProb > 0 && hashProb(in.plan.Seed, 0xd209, src, dst, seq) < rule.DropProb {
		in.drops.Add(1)
		return Drop, 0
	}
	if rule.DelayProb > 0 && hashProb(in.plan.Seed, 0xde1a, src, dst, seq) < rule.DelayProb {
		in.delays.Add(1)
		return Delay, rule.Delay
	}
	return Deliver, 0
}

func (in *Injector) matchEdge(src, dst int) *EdgeRule {
	for i := range in.plan.Edges {
		e := &in.plan.Edges[i]
		if (e.Src == Any || e.Src == src) && (e.Dst == Any || e.Dst == dst) {
			return e
		}
	}
	return nil
}

func (in *Injector) nextSeq(src, dst int) int64 {
	if src >= 0 && src < maxEdgePEs && dst >= 0 && dst < maxEdgePEs {
		return in.edgeSeq[src*maxEdgePEs+dst].Add(1) - 1
	}
	return in.wideSeq.Add(1) - 1
}

// StallDur returns the extra sleep the plan assigns to PE/worker id, or
// 0. The caller sleeps at its communication points. NoteStall tallies
// one applied stall.
func (in *Injector) StallDur(id int) time.Duration {
	if len(in.plan.Stall) == 0 {
		return 0
	}
	return in.plan.Stall[id]
}

// NoteStall records that one stall sleep was actually applied.
func (in *Injector) NoteStall() { in.stalls.Add(1) }

// hashProb maps (seed, tag, src, dst, seq) to a uniform float64 in
// [0,1) via a splitmix64-style finalizer.
func hashProb(seed uint64, tag uint64, src, dst int, seq int64) float64 {
	x := seed
	x ^= tag * 0x9e3779b97f4a7c15
	x = mix(x + uint64(uint32(src))*0xbf58476d1ce4e5b9)
	x = mix(x + uint64(uint32(dst))*0x94d049bb133111eb)
	x = mix(x + uint64(seq)*0x2545f4914f6cdd1d)
	return float64(x>>11) / float64(1<<53)
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// IsStructured reports whether err is one of the structured failure
// classes a chaos run may legitimately end in: an injected fault, a
// poisoned-thunk propagation, a watchdog deadlock report, or a cluster
// worker's process death. It exists so soak harnesses can classify run
// outcomes without importing every backend's error set.
func IsStructured(err error) bool {
	if err == nil {
		return false
	}
	var ip *InjectedPanic
	var de *DeadlockError
	var pd *ProcessDeathError
	return errors.As(err, &ip) || errors.As(err, &de) || errors.As(err, &pd)
}
