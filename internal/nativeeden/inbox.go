package nativeeden

import (
	"fmt"

	"parhask/internal/eden"
	"parhask/internal/eventlog"
	"parhask/internal/graph"
)

// Inboxes: how a message reaches another PE's heap without its lock.
//
// A sender never touches the receiving PE's heap. It posts a delivery
// to the receiver's inbox (a short critical section on inboxMu, never
// on the PE lock) and wakes the PE's waiting threads. The receiving
// PE's own threads apply the deliveries, under their own PE lock, at
// their scheduling points: before every wait, on every wake-up, and at
// thread exit. So a thread only ever holds its own PE's lock, and a
// send never waits for the receiver to stop computing.
//
// Waiting. A thread whose value has not arrived sleeps on the PE's
// condition variable, whose lock is inboxMu, not the PE lock: a sender
// holds inboxMu to post, so it can wake the receiver without taking the
// receiver's lock. No wake-up is lost, because a waiter takes inboxMu
// before it lets go of the PE lock and rechecks the inbox and the
// failure flag under it. Anything else that can satisfy a waiter wakes
// the PE through inboxMu too, either from under the PE lock (a
// sibling's update, a dead supervised thread's poisoned claims) or
// after setting the failure flag (a failure).

// delivery is one entry of a PE's inbox: a message (MsgChanSend,
// MsgStreamSend, MsgStreamClose) or the installation of a channel's
// receiving end (installChan, installStream).
type delivery struct {
	kind MsgKind
	id   int64
	// src is the sending PE, or for an installation the creating PE.
	src int
	// bytes is the packed size the sender charged (payload plus the
	// Cons or Nil overhead).
	bytes int64
	msg   graph.Value
}

// Installations ride the same FIFO as messages, so a port that reaches
// the owning PE after its channel was created always finds the cell.
// They are not messages: never counted, never on the wire.
const (
	installChan MsgKind = 64 + iota
	installStream
)

// closeBytes is the packed size of a stream close: a Nil packs as one
// word, as in the simulator.
const closeBytes = 16

// post appends dl to the inbox and wakes the PE. Safe from any
// goroutine; takes only inboxMu.
func (p *peRT) post(dl delivery) {
	p.inboxMu.Lock()
	p.inbox = append(p.inbox, dl)
	p.wake.Broadcast()
	p.inboxMu.Unlock()
}

// notify wakes every thread waiting on this PE: after a local event
// (its caller holds p.mu) or a failure (failed is already set). Safe
// from any goroutine; takes only inboxMu.
func (p *peRT) notify() {
	p.inboxMu.Lock()
	p.wake.Broadcast()
	p.inboxMu.Unlock()
}

// inboxEmpty reports whether no delivery is waiting to be applied.
func (p *peRT) inboxEmpty() bool {
	p.inboxMu.Lock()
	defer p.inboxMu.Unlock()
	return len(p.inbox) == 0
}

// drain applies every posted delivery in arrival order. Caller holds
// p.mu. A delivery that cannot be applied (a send to a closed stream,
// a second value on a one-value channel) fails the run; the rest of
// the batch is dropped with the dead heap.
func (p *peRT) drain() {
	p.inboxMu.Lock()
	batch := p.inbox
	p.inbox = nil
	p.inboxMu.Unlock()
	if len(batch) == 0 {
		return
	}
	for _, dl := range batch {
		if err := p.apply(dl); err != nil {
			p.rts.fail(fmt.Errorf("nativeeden: delivery to PE %d failed: %w", p.id, err))
			break
		}
	}
	p.notify()
}

// apply performs one delivery on this PE's heap: install a receiving
// end, or resolve the placeholder a message fills. Cells and streams
// are installed on first touch, so a message may arrive before its
// channel's installation. Caller holds p.mu. It never panics: a
// delivery that cannot be applied comes back as an error.
func (p *peRT) apply(dl delivery) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = panicErr(fmt.Sprintf("chan %d from PE %d", dl.id, dl.src), v)
		}
	}()
	switch dl.kind {
	case installChan:
		p.ensureCell(dl.id, dl.src)
	case installStream:
		p.ensureStream(dl.id, dl.src)
	case MsgChanSend:
		cell := p.ensureCell(dl.id, dl.src)
		p.countRecv(dl)
		cell.t.Resolve(dl.msg)
	case MsgStreamSend, MsgStreamClose:
		st := p.ensureStream(dl.id, dl.src)
		if st.cancelled {
			return nil // the receiver cancelled; late messages vanish
		}
		if st.tail == nil {
			op := "StreamSend"
			if dl.kind == MsgStreamClose {
				op = "StreamClose"
			}
			return &eden.ChanMisuseError{Op: op, Chan: dl.id, PE: dl.src, Owner: p.id, Reason: "closed-or-unknown-stream"}
		}
		cur := st.tail
		var v graph.Value = eden.Nil{}
		st.tail = nil
		if dl.kind == MsgStreamSend {
			st.tail = p.arena.NewPlaceholder()
			v = eden.Cons{Head: dl.msg, Tail: st.tail}
		}
		p.countRecv(dl)
		cur.Resolve(v)
	default:
		return fmt.Errorf("nativeeden: unknown message kind %d", dl.kind)
	}
	return nil
}

// countRecv records a received message; MsgRecv is stamped when the
// receiver applies it.
func (p *peRT) countRecv(dl delivery) {
	p.ctr.MsgsRecv++
	p.ctr.BytesRecv += dl.bytes
	if p.ev != nil {
		p.ev.EmitArg(eventlog.MsgRecv, int32(dl.src))
	}
}

// wait suspends the calling thread until something may have changed:
// a delivery was posted, a sibling updated a thunk, or the run failed.
// The caller holds p.mu, has drained the inbox and checked its
// condition; it re-drains and re-checks when wait returns. inboxMu is
// released before p.mu is retaken, so the lock order is always p.mu
// then inboxMu.
func (p *peRT) wait() {
	p.inboxMu.Lock()
	if len(p.inbox) > 0 || p.rts.failed.Load() {
		p.inboxMu.Unlock()
		return
	}
	p.rts.blocked.Add(1)
	p.mu.Unlock()
	p.wake.Wait()
	p.rts.blocked.Add(-1)
	p.rts.progress.Add(1)
	p.inboxMu.Unlock()
	p.mu.Lock()
}

// resetInbox discards every delivery not yet applied. Only for a PE no
// thread runs on (a resident lane between jobs).
func (p *peRT) resetInbox() {
	p.inboxMu.Lock()
	p.inbox = nil
	p.inboxMu.Unlock()
}
