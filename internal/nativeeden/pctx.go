package nativeeden

import (
	"fmt"
	"time"

	"parhask/internal/eden"
	"parhask/internal/eden/wire"
	"parhask/internal/eventlog"
	"parhask/internal/faults"
	"parhask/internal/graph"
	"parhask/internal/pe"
)

// PCtx is the native backend's pe.Ctx: the context an Eden thread runs
// against. The thread holds its PE's mutex for its entire execution —
// every method below may assume the lock is held, and waiting, injected
// message delays and cross-process sends are the only places it is
// released. It never takes another PE's lock.
type PCtx struct {
	rts  *RTS
	pe   *peRT
	name string

	// isRoot marks the program's root thread: in cluster mode its
	// channel ids come from the replayed counter and its remote spawns
	// are the SPMD no-op (the owning process instantiates them).
	isRoot bool
	// shadow marks a cluster shadow root (rank != 0): creations replay,
	// sends are no-ops, receives park (see cluster.go).
	shadow bool

	// claims is the stack of thunks this thread has eagerly black-holed
	// and not yet updated. On panic they are poisoned (newest-first) so
	// peers blocked on them unblock into the failure path.
	claims []*graph.Thunk
}

var (
	_ pe.Ctx               = (*PCtx)(nil)
	_ graph.Context        = (*PCtx)(nil)
	_ pe.SupervisedSpawner = (*PCtx)(nil)
	_ pe.StreamCanceller   = (*PCtx)(nil)
)

// begin is the thread prologue, run under the PE lock: counters, the
// Run bracket, and thread-start fault injection (stalled PE, injected
// process panic).
func (p *PCtx) begin() {
	p.pe.ctr.Threads++
	if p.pe.ev != nil {
		p.pe.ev.Emit(eventlog.RunBegin)
	}
	if inj := p.rts.cfg.Faults; inj != nil {
		p.injectThreadStart(inj)
	}
}

// end is the thread epilogue (still under the PE lock). The exiting
// thread applies what its PE was sent meanwhile, so the deliveries do
// not wait for a sibling's next scheduling point.
func (p *PCtx) end() {
	if p.pe.ev != nil {
		p.pe.ev.Emit(eventlog.RunEnd)
	}
	p.pe.drain()
}

// injectThreadStart applies thread-start faults: a stalled PE sleeps
// holding its lock (a genuinely slow PE — its sibling threads stall
// with it), then an injected process panic fires if this thread's
// index is in the plan.
func (p *PCtx) injectThreadStart(inj *faults.Injector) {
	if d := inj.StallDur(p.pe.id); d > 0 {
		inj.NoteStall()
		if p.pe.ev != nil {
			p.pe.ev.Emit(eventlog.StallBegin)
		}
		time.Sleep(d)
		if p.pe.ev != nil {
			p.pe.ev.Emit(eventlog.StallEnd)
		}
	}
	if f := inj.ProcFault(); f != nil {
		if p.pe.ev != nil {
			p.pe.ev.EmitArg(eventlog.FaultPanic, int32(f.Index))
		}
		panic(f)
	}
}

// Ports are plain {channel id, PE} value structs: shipping or capturing
// one moves no heap, so a port crossing PEs (in a message or a spawned
// closure) can never leak a thunk between heaps. The cells they name
// live in the owning PE's registry.

// Inport is the receiving end of a one-value channel.
type Inport struct {
	id int64
	pe int
}

// InPE returns the PE that owns the receiving end.
func (i Inport) InPE() int { return i.pe }

// PackedSize implements eden.Sized: a port packs as a wire header plus
// its {channel id, PE} words.
func (i Inport) PackedSize() int64 { return portPackedSize }

// Outport is the sending end of a one-value channel.
type Outport struct {
	id   int64
	dest int
}

// OutPE returns the destination PE.
func (o Outport) OutPE() int { return o.dest }

// PackedSize implements eden.Sized.
func (o Outport) PackedSize() int64 { return portPackedSize }

// StreamIn is the receiving end of an element-by-element stream.
type StreamIn struct {
	id int64
	pe int
}

// StreamInPE returns the PE that owns the receiving end.
func (s StreamIn) StreamInPE() int { return s.pe }

// PackedSize implements eden.Sized.
func (s StreamIn) PackedSize() int64 { return portPackedSize }

// StreamOut is the sending end of an element-by-element stream.
type StreamOut struct {
	id   int64
	dest int
}

// StreamOutPE returns the destination PE.
func (s StreamOut) StreamOutPE() int { return s.dest }

// PackedSize implements eden.Sized.
func (s StreamOut) PackedSize() int64 { return portPackedSize }

// portPackedSize is the packed size of every port flavour: an 8-byte
// wire header plus the channel-id and PE words.
const portPackedSize = 24

// --- generic mutator operations (graph.Context + pe.Ctx) ---

// Burn is a no-op: real time is consumed by actually computing.
func (p *PCtx) Burn(ns int64) {}

// Alloc records the workload's declared allocation as per-PE telemetry
// (the virtual-cost hook has no cost here, but the byte count is the
// per-PE allocation story the head-to-head reports).
func (p *PCtx) Alloc(bytes int64) { p.pe.ctr.AllocBytes += bytes }

// Force evaluates a thunk to weak head normal form on this PE.
func (p *PCtx) Force(t *graph.Thunk) graph.Value { return graph.Force(p, t) }

// ForceDeep evaluates a value to normal form on this PE.
func (p *PCtx) ForceDeep(v graph.Value) graph.Value { return graph.ForceDeep(p, v) }

// EagerBlackholing is true: threads of one PE interleave at blocking
// points, so without the claim a thread blocking mid-thunk would let a
// sibling duplicate the evaluation.
func (p *PCtx) EagerBlackholing() bool { return true }

// BlackholeWriteCost is zero: the claim's cost is the real CAS.
func (p *PCtx) BlackholeWriteCost() int64 { return 0 }

// EnteredThunk / LeftThunk are no-ops (no lazy entry table).
func (p *PCtx) EnteredThunk(t *graph.Thunk) {}
func (p *PCtx) LeftThunk(t *graph.Thunk)    {}

// NoteDuplicateEntry cannot fire under the eager policy; nothing to do.
func (p *PCtx) NoteDuplicateEntry(t *graph.Thunk) {}

// NoteClaimed / NoteReleased track this thread's open eager claims —
// the thunks that must be poisoned if the thread dies mid-update.
func (p *PCtx) NoteClaimed(t *graph.Thunk) { p.claims = append(p.claims, t) }

func (p *PCtx) NoteReleased(t *graph.Thunk) {
	if n := len(p.claims); n > 0 {
		p.claims[n-1] = nil
		p.claims = p.claims[:n-1]
	}
}

// WakeThunkWaiters wakes the PE's blocked threads after an update.
func (p *PCtx) WakeThunkWaiters(t *graph.Thunk) { p.pe.notify() }

// BlockOnThunk suspends the thread until t is Evaluated (or Poisoned —
// graph.Force then raises the poison), applying the PE's inbox before
// every wait and after every wake-up: the message that fills t arrives
// that way. The wait releases the PE lock, so sibling threads run —
// the big-lock analogue of the simulator's thread descheduling. The
// blocked-on record (what channel or stream this placeholder anchors,
// and which peer was expected to fill it) is published for deadlock
// diagnostics.
func (p *PCtx) BlockOnThunk(t *graph.Thunk) {
	if p.pe.ev != nil {
		p.pe.ev.Emit(eventlog.BlockBegin)
	}
	noted := false
	for {
		p.pe.drain()
		if s := t.State(); s == graph.Evaluated || s == graph.Poisoned {
			break
		}
		p.pe.checkFailed()
		if !noted {
			noted = true
			p.pe.blockedOn[p] = p.blockedRecord(t)
		}
		p.pe.wait()
	}
	if noted {
		delete(p.pe.blockedOn, p)
	}
	if p.pe.ev != nil {
		p.pe.ev.Emit(eventlog.BlockEnd)
	}
}

// blockedRecord classifies what placeholder t anchors on this PE — a
// one-value channel cell, a stream cell, or a plain local placeholder
// — for the deadlock watchdog's diagnostics. Linear scans are fine:
// this runs once per block, on the slow path.
func (p *PCtx) blockedRecord(t *graph.Thunk) faults.BlockedThread {
	b := faults.BlockedThread{PE: p.pe.id, Thread: p.name, Reason: "local", Chan: -1, Peer: -1}
	for id, c := range p.pe.cells {
		if c.t == t {
			b.Reason, b.Chan = "channel", id
			if c.origin != p.pe.id {
				b.Peer = c.origin
			}
			return b
		}
	}
	for id, st := range p.pe.streams {
		if st.cursor == t || st.tail == t {
			b.Reason, b.Chan = "stream", id
			if st.origin != p.pe.id {
				b.Peer = st.origin
			}
			return b
		}
	}
	return b
}

// --- PE identity and placement ---

// PE returns the index of the PE this thread runs on. A shadow root
// reports PE 0 — the PE the real root runs on — so the root program's
// placement arithmetic replays identically on every rank.
func (p *PCtx) PE() int {
	if p.shadow {
		return 0
	}
	return p.pe.id
}

// PEs returns the number of processing elements.
func (p *PCtx) PEs() int { return len(p.rts.pes) }

// AddResident declares long-lived heap data on the current PE.
func (p *PCtx) AddResident(bytes int64) { p.pe.ctr.Resident += bytes }

func (p *PCtx) norm(dest int) int {
	n := len(p.rts.pes)
	return ((dest % n) + n) % n
}

// Spawn instantiates a process on PE dest: a new thread (goroutine)
// whose execution serialises on the destination PE's lock — the new
// thread's own lock; the caller never takes it. In cluster
// mode a spawn onto a remote PE is the SPMD no-op for the root thread
// — every rank replays main, and the rank owning dest instantiates the
// thread there — and unsupported elsewhere (non-root threads do not
// replay, so no process would run the body).
func (p *PCtx) Spawn(dest int, name string, body func(pe.Ctx)) {
	dest = p.norm(dest)
	if !p.rts.owned(dest) {
		if !p.isRoot {
			panic(fmt.Sprintf("nativeeden: cluster Spawn onto remote PE %d from non-root thread %q", dest, p.name))
		}
		return
	}
	p.rts.processes.Add(1)
	if p.pe.ev != nil {
		p.pe.ev.Emit(eventlog.Fork)
	}
	p.rts.startThread(p.rts.pes[dest], name, func(c *PCtx) { body(c) })
}

// ForkLocal starts an additional thread of the current process on the
// same PE. A shadow root skips it: its local forks belong to rank 0.
func (p *PCtx) ForkLocal(name string, body func(pe.Ctx)) {
	if p.shadow {
		return
	}
	p.rts.startThread(p.pe, name, func(c *PCtx) { body(c) })
}

// SpawnSupervised instantiates a process on PE dest whose panic is
// contained rather than fatal: the returned one-value channel (on the
// caller's PE) receives true on success or a pe.ThreadFailure death
// notice after the thread's claims were poisoned. Fault-tolerant
// skeletons (skel.SupervisedMW) monitor these channels to re-dispatch
// a dead worker's outstanding tasks.
func (p *PCtx) SpawnSupervised(dest int, name string, body func(pe.Ctx)) pe.Inport {
	// The verdict channel lives on the caller's logical PE (p.PE(), so a
	// shadow root replays rank 0's allocation exactly).
	in, out := p.NewChan(p.PE())
	dest = p.norm(dest)
	if !p.rts.owned(dest) {
		if !p.isRoot {
			panic(fmt.Sprintf("nativeeden: cluster SpawnSupervised onto remote PE %d from non-root thread %q", dest, p.name))
		}
		return in
	}
	p.rts.processes.Add(1)
	if p.pe.ev != nil {
		p.pe.ev.Emit(eventlog.Fork)
	}
	p.rts.startSupervised(p.rts.pes[dest], name, out.(Outport), func(c *PCtx) { body(c) })
	return in
}

// CancelStream terminates a stream from the receiving side: the
// current tail resolves to end-of-stream, so a reader draining the
// stream finishes after the elements already delivered, and late
// sends from the (presumed dead) producer are dropped silently. Must
// be called on the stream's owning PE.
func (p *PCtx) CancelStream(in pe.StreamIn) {
	i := in.(StreamIn)
	if i.pe != p.pe.id {
		panic(&eden.ChanMisuseError{Op: "CancelStream", Chan: i.id, PE: p.pe.id, Owner: i.pe, Reason: "cross-pe"})
	}
	p.pe.drain() // the stream's installation may still be in the inbox
	st := p.pe.streams[i.id]
	if st == nil {
		return // never existed or already torn down: cancel is idempotent
	}
	st.cancelled = true
	if st.tail != nil {
		st.tail.Resolve(eden.Nil{})
		st.tail = nil
		p.pe.notify()
	}
}

// deliver hands dl to PE dest. On the thread's own PE it is applied at
// once (the lock is already held, and a misuse panics in the sender, as
// a local error should); any other PE gets it in its inbox.
func (p *PCtx) deliver(dest int, dl delivery) {
	d := p.rts.pes[dest]
	if d != p.pe {
		d.post(dl)
		return
	}
	if err := d.apply(dl); err != nil {
		panic(err)
	}
	d.notify()
}

// --- one-value channels ---

// NewChan creates a one-value channel whose receiving end (a heap
// placeholder) lives on PE dest. The cell is installed on first touch:
// by this creation (through dest's inbox), by the first delivery, or by
// the owner's receive, whichever dest applies first. In cluster mode a
// remote owner's own replay, delivery, or receive installs it there.
func (p *PCtx) NewChan(dest int) (pe.Inport, pe.Outport) {
	dest = p.norm(dest)
	id := p.rts.newChanID(p.isRoot)
	if p.rts.owned(dest) {
		p.deliver(dest, delivery{kind: installChan, id: id, src: p.PE()})
	}
	return Inport{id: id, pe: dest}, Outport{id: id, dest: dest}
}

// injectSendFaults applies per-edge message faults at a comm point,
// called with this thread's own PE lock held after the message was
// packed and counted. A stalled PE sleeps holding its lock; a delayed
// message sleeps with the lock *released* (the PE stays responsive and
// per-edge FIFO order is preserved — the sender re-acquires before
// transport); a dropped message returns Drop and the caller skips
// delivery.
func (p *PCtx) injectSendFaults(dst int) faults.Fate {
	inj := p.rts.cfg.Faults
	if d := inj.StallDur(p.pe.id); d > 0 {
		inj.NoteStall()
		if p.pe.ev != nil {
			p.pe.ev.Emit(eventlog.StallBegin)
		}
		time.Sleep(d)
		if p.pe.ev != nil {
			p.pe.ev.Emit(eventlog.StallEnd)
		}
	}
	fate, delay := inj.MessageFate(p.pe.id, dst)
	switch fate {
	case faults.Delay:
		if p.pe.ev != nil {
			p.pe.ev.Emit(eventlog.DelayBegin)
		}
		p.pe.mu.Unlock()
		time.Sleep(delay)
		p.pe.mu.Lock()
		if p.pe.ev != nil {
			p.pe.ev.Emit(eventlog.DelayEnd)
		}
	case faults.Drop:
		if p.pe.ev != nil {
			p.pe.ev.EmitArg(eventlog.MsgDrop, int32(dst))
		}
	}
	return fate
}

// Send reduces v to normal form, packs it (charging the same size model
// as the simulator), deep-copies it, and hands the copy to the
// destination PE, which resolves its placeholder with it. A normal-form
// violation panics with the same structured *eden.SendError the
// simulator raises.
func (p *PCtx) Send(out pe.Outport, v graph.Value) {
	o := out.(Outport)
	if p.shadow {
		return // rank 0's real root does the real send
	}
	p.transmit("Send", MsgChanSend, o.id, o.dest, p.ForceDeep(v), 0)
}

// transmit is the sending half shared by Send, StreamSend and
// StreamClose: pack (copy in process, wire-encode across processes),
// count, inject message faults, then hand the message over. extra is
// the non-payload charge (ConsOverhead for a stream element, the Nil
// for a close, which has no payload).
func (p *PCtx) transmit(op string, kind MsgKind, id int64, dest int, nf graph.Value, extra int64) {
	if p.pe.ev != nil {
		p.pe.ev.Emit(eventlog.CommBegin)
	}
	remote := !p.rts.owned(dest)
	var (
		msg     graph.Value
		payload []byte
		bytes   int64
		err     error
	)
	switch {
	case kind == MsgStreamClose: // no payload
	case remote:
		// wire.Encode asserts the byte count equals eden.SizeOfChecked.
		payload, err = wire.Encode(nf)
		bytes = int64(len(payload))
	default:
		bytes, err = eden.SizeOfChecked(nf)
		if err == nil {
			msg, err = copyForSend(nf)
		}
	}
	if err != nil {
		panic(&eden.SendError{Op: op, Chan: id, PE: p.pe.id, Dest: dest, Err: err})
	}
	bytes += extra
	p.pe.ctr.MsgsSent++
	p.pe.ctr.BytesSent += bytes
	if p.pe.ev != nil {
		p.pe.ev.EmitArg(eventlog.MsgSend, int32(dest))
	}
	if p.rts.cfg.Faults == nil || p.injectSendFaults(dest) != faults.Drop {
		if remote {
			p.sendRemote(op, kind, id, dest, payload)
		} else {
			p.deliver(dest, delivery{kind: kind, id: id, src: p.pe.id, bytes: bytes, msg: msg})
		}
	}
	if p.pe.ev != nil {
		p.pe.ev.Emit(eventlog.CommEnd)
	}
}

// Receive blocks until the channel's value has arrived; it must be
// called on the channel's owning PE (channels are single-reader).
func (p *PCtx) Receive(in pe.Inport) graph.Value {
	if p.shadow {
		p.parkForever() // the real root receives; unwinds on drain
		return nil
	}
	i := in.(Inport)
	if i.pe != p.pe.id {
		panic(&eden.ChanMisuseError{Op: "Receive", Chan: i.id, PE: p.pe.id, Owner: i.pe, Reason: "cross-pe"})
	}
	p.pe.drain() // the channel's installation may still be in the inbox
	cell, ok := p.pe.cells[i.id]
	if !ok {
		if p.rts.cfg.Cluster != nil {
			// A cross-process channel may be received before either its
			// replayed creation or its first delivery installed the cell:
			// ensure it and block. (The already-received misuse check
			// degrades to a coordinator-deadline timeout in cluster mode.)
			cell = p.pe.ensureCell(i.id, -1)
		} else {
			// One-value channels are consumed on receive, so a second
			// Receive and a receive on a never-created channel look the same.
			panic(&eden.ChanMisuseError{Op: "Receive", Chan: i.id, PE: p.pe.id, Owner: -1, Reason: "already-received"})
		}
	}
	v := p.Force(cell.t)
	delete(p.pe.cells, i.id)
	return v
}

// --- stream channels (top-level lists, sent element by element) ---

// NewStream creates a stream channel whose receiving end lives on PE
// dest: a placeholder chain anchored in the destination's registry,
// installed on first touch exactly like NewChan's cell.
func (p *PCtx) NewStream(dest int) (pe.StreamIn, pe.StreamOut) {
	dest = p.norm(dest)
	id := p.rts.newChanID(p.isRoot)
	if p.rts.owned(dest) {
		p.deliver(dest, delivery{kind: installStream, id: id, src: p.PE()})
	}
	return StreamIn{id: id, pe: dest}, StreamOut{id: id, dest: dest}
}

// StreamSend transmits one element as its own message: the receiver
// resolves the stream's current tail placeholder to a Cons of the
// copied element and a fresh placeholder for the rest of the stream.
func (p *PCtx) StreamSend(out pe.StreamOut, v graph.Value) {
	o := out.(StreamOut)
	if p.shadow {
		return
	}
	p.transmit("StreamSend", MsgStreamSend, o.id, o.dest, p.ForceDeep(v), eden.ConsOverhead)
}

// StreamClose terminates the stream (one Nil message). It travels the
// same FIFO as the elements, so it never overtakes them.
func (p *PCtx) StreamClose(out pe.StreamOut) {
	o := out.(StreamOut)
	if p.shadow {
		return
	}
	p.transmit("StreamClose", MsgStreamClose, o.id, o.dest, nil, closeBytes)
}

// StreamRecv receives the next element, blocking until it arrives; ok
// is false once the stream has been closed.
func (p *PCtx) StreamRecv(in pe.StreamIn) (graph.Value, bool) {
	if p.shadow {
		p.parkForever()
		return nil, false
	}
	i := in.(StreamIn)
	if i.pe != p.pe.id {
		panic(&eden.ChanMisuseError{Op: "StreamRecv", Chan: i.id, PE: p.pe.id, Owner: i.pe, Reason: "cross-pe"})
	}
	p.pe.drain() // the stream's installation may still be in the inbox
	st := p.pe.streams[i.id]
	if st == nil {
		if p.rts.cfg.Cluster != nil {
			// Ensure-on-first-touch, as in Receive: the stream may not have
			// been installed yet by replay or delivery.
			st = p.pe.ensureStream(i.id, -1)
		} else {
			panic(&eden.ChanMisuseError{Op: "StreamRecv", Chan: i.id, PE: p.pe.id, Owner: -1, Reason: "unknown-stream"})
		}
	}
	switch c := p.Force(st.cursor).(type) {
	case eden.Cons:
		st.cursor = c.Tail
		return c.Head, true
	case eden.Nil:
		return nil, false
	default:
		panic(fmt.Sprintf("nativeeden: stream #%d cell resolved to %T, want Cons or Nil", i.id, c))
	}
}

// RecvAll drains a stream into a slice.
func (p *PCtx) RecvAll(in pe.StreamIn) []graph.Value {
	var out []graph.Value
	for {
		v, ok := p.StreamRecv(in)
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// SendAll sends every element of xs and closes the stream.
func (p *PCtx) SendAll(out pe.StreamOut, xs []graph.Value) {
	if p.shadow {
		return
	}
	for _, x := range xs {
		p.StreamSend(out, x)
	}
	p.StreamClose(out)
}

// --- local synchronisation ---

// LocalResolve fills a placeholder on the current PE without the
// transport (an MVar-like intra-process synchronisation variable). A
// shadow root skips it: the placeholder belongs to rank 0's replay.
func (p *PCtx) LocalResolve(cell *graph.Thunk, v graph.Value) {
	if p.shadow {
		return
	}
	cell.Resolve(v)
	p.pe.notify()
}

// Await forces a local placeholder, blocking until it is filled. A
// shadow root parks: the value it would wait for lives on rank 0.
func (p *PCtx) Await(cell *graph.Thunk) graph.Value {
	if p.shadow {
		p.parkForever()
		return nil
	}
	return p.Force(cell)
}
