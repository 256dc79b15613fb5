// Cluster mode: the native Eden runtime as one member of a multi-
// process cluster. Each OS process runs PerProc PEs and the program is
// SPMD — every process executes the same main, but only rank 0's root
// thread is real. The other ranks run a *shadow root*: a replay that
// performs the root's channel and process creations (so the cluster
// agrees on channel ids and thread placement) while turning its sends
// into no-ops and parking at its first receive.
//
// What makes the replay sound for the bundled skeletons is that their
// root threads create every channel and spawn every process *before*
// the first root receive, from a deterministic, input-independent
// prefix of main. Root-thread channel ids come from a counter that
// replays identically in every process; non-root threads take ids from
// a rank-partitioned space ((rank+1)<<workerIDShift | seq), which keeps
// them globally unique without coordination. Channel cells are created
// on their owning process by whichever side touches them first — the
// replayed creation, the first remote delivery, or the first local
// receive — so arrival order between the replay and the transport
// reader does not matter.
//
// Cross-process sends replace the in-process deep copy (copyForSend)
// with the wire codec: the value is reduced to normal form, encoded —
// wire.Encode asserts the byte count equals eden.SizeOfChecked, so the
// charged size IS the bytes on the wire — shipped through the
// ClusterTransport, and decoded into a fresh heap on the owning
// process. Decoding is the copy: no thunk is ever reachable from two
// processes, let alone two machines.
//
// Failure semantics: a worker has no local quiescence watchdog — a PE
// waiting on a remote message is locally quiescent but globally fine —
// so deadline/quiescence detection belongs to the coordinator (see
// internal/cluster), which also turns a dead worker process or severed
// link into a structured *faults.ProcessDeathError. A transport send
// that fails (link severed) panics with the ordinary structured
// *eden.SendError carrying the transport error.
package nativeeden

import (
	"errors"
	"fmt"

	"parhask/internal/eden"
	"parhask/internal/eden/wire"
	"parhask/internal/eventlog"
)

// ClusterSpec places one process inside a multi-process Eden cluster.
type ClusterSpec struct {
	// Rank is this process's index in [0, Procs); rank 0 runs the real
	// root thread.
	Rank int
	// Procs is the number of worker processes.
	Procs int
	// PerProc is the number of PEs each process owns; process k owns
	// global PEs [k*PerProc, (k+1)*PerProc).
	PerProc int
	// Transport ships encoded messages to PEs owned by other processes.
	Transport ClusterTransport
}

// TotalPEs is the cluster-wide PE count programs observe via PEs().
func (c *ClusterSpec) TotalPEs() int { return c.Procs * c.PerProc }

// Owns reports whether this process hosts global PE pe.
func (c *ClusterSpec) Owns(pe int) bool { return pe/c.PerProc == c.Rank }

// OwnerRank returns the rank of the process hosting global PE pe.
func (c *ClusterSpec) OwnerRank(pe int) int { return pe / c.PerProc }

func (c *ClusterSpec) validate() error {
	switch {
	case c.Procs < 1:
		return fmt.Errorf("nativeeden: cluster needs at least 1 process, have %d", c.Procs)
	case c.PerProc < 1:
		return fmt.Errorf("nativeeden: cluster needs at least 1 PE per process, have %d", c.PerProc)
	case c.Rank < 0 || c.Rank >= c.Procs:
		return fmt.Errorf("nativeeden: cluster rank %d outside [0,%d)", c.Rank, c.Procs)
	case c.Transport == nil && c.Procs > 1:
		return errors.New("nativeeden: multi-process cluster needs a transport")
	}
	return nil
}

// MsgKind discriminates the cluster data messages. They mirror the
// three in-process delivery operations one to one.
type MsgKind uint8

const (
	// MsgChanSend resolves a one-value channel's cell.
	MsgChanSend MsgKind = 1 + iota
	// MsgStreamSend appends one element to a stream.
	MsgStreamSend
	// MsgStreamClose terminates a stream (no payload).
	MsgStreamClose
)

// ClusterTransport ships one encoded message to the process owning dst.
// Implementations must be safe for concurrent use; per-(src,dst) FIFO
// order must be preserved (streams rely on it, exactly as Eden's
// per-edge order guarantee).
type ClusterTransport interface {
	SendRemote(kind MsgKind, chanID int64, src, dst int, payload []byte) error
}

// ErrDrained is the error a worker's run ends with when the
// coordinator drains the cluster after the root's result is in. It is
// the clean shutdown path, not a failure.
var ErrDrained = errors.New("nativeeden: cluster run drained")

// Drain unwinds the run from outside: every blocked thread (including
// a parked shadow root) aborts, the run joins, and RunMain returns
// ErrDrained. Called by the cluster worker when the coordinator says
// the root's result has been collected.
func (r *RTS) Drain() { r.fail(ErrDrained) }

// Fail aborts the run from outside with err — the worker's hook for
// transport-level failures its reader goroutine detects (a lost
// coordinator connection, an undecodable delivery).
func (r *RTS) Fail(err error) { r.fail(err) }

// workerIDShift partitions the channel-id space: root-thread ids are
// small positive integers from the replayed counter; thread ids on
// rank k live above (k+1)<<workerIDShift. 2^40 root-thread channels is
// out of reach, so the spaces cannot collide.
const workerIDShift = 40

// newChanID allocates a channel or stream id. Root-thread allocations
// replay identically in every process (that is what lets a port built
// by rank 0 name the same cell on rank 2); other threads draw from
// their rank's private partition.
func (r *RTS) newChanID(isRoot bool) int64 {
	cl := r.cfg.Cluster
	if cl == nil || isRoot {
		return r.chanIDs.Add(1)
	}
	return int64(cl.Rank+1)<<workerIDShift | r.workerChanIDs.Add(1)
}

// owned reports whether global PE pe is hosted by this process.
func (r *RTS) owned(pe int) bool {
	cl := r.cfg.Cluster
	return cl == nil || cl.Owns(pe)
}

// ensureCell returns the channel's cell, creating it if this is the
// first touch (creation, delivery and receive race benignly; whoever
// is first installs the placeholder). Caller holds p.mu.
func (p *peRT) ensureCell(id int64, origin int) *cellState {
	c := p.cells[id]
	if c == nil {
		c = &cellState{t: p.arena.NewPlaceholder(), origin: origin}
		p.cells[id] = c
	}
	return c
}

// ensureStream is ensureCell for stream channels. Caller holds p.mu.
func (p *peRT) ensureStream(id int64, origin int) *streamState {
	st := p.streams[id]
	if st == nil {
		head := p.arena.NewPlaceholder()
		st = &streamState{tail: head, cursor: head, origin: origin}
		p.streams[id] = st
	}
	return st
}

// Deliver hands one remote message to its locally-owned destination
// PE: decode into a fresh heap and post it to the PE's inbox, where the
// PE's own threads apply it (ensure the cell or stream, resolve) at
// their next scheduling point. Called by the transport's reader
// goroutine; it takes no PE lock, so it never waits on a computing PE
// and the reader stays free to answer heartbeats. A malformed message
// comes back as a structured error for the worker to report; one that
// cannot be applied (a stream closed twice) fails the run when the PE
// applies it.
func (r *RTS) Deliver(kind MsgKind, chanID int64, src, dst int, payload []byte) error {
	if r.failed.Load() {
		// The run already failed or drained: late frames (a reconnect
		// replay, stragglers routed before the coordinator saw the
		// report) are discarded, never re-resolved into a dead heap.
		return nil
	}
	if dst < 0 || dst >= len(r.pes) || r.pes[dst] == nil {
		return fmt.Errorf("nativeeden: delivery to PE %d, which rank %d does not own", dst, r.cfg.Cluster.Rank)
	}
	dl := delivery{kind: kind, id: chanID, src: src}
	switch kind {
	case MsgChanSend, MsgStreamSend:
		v, err := wire.Decode(payload)
		if err != nil {
			return fmt.Errorf("nativeeden: decode for chan %d (PE %d from PE %d): %w", chanID, dst, src, err)
		}
		dl.msg, dl.bytes = v, int64(len(payload))
		if kind == MsgStreamSend {
			dl.bytes += eden.ConsOverhead
		}
	case MsgStreamClose:
		dl.bytes = closeBytes
	default:
		return fmt.Errorf("nativeeden: unknown cluster message kind %d", kind)
	}
	r.pes[dst].post(dl)
	return nil
}

// sendRemote ships one packed and counted message to the process
// owning dest, with this PE's lock released — the socket write may
// block, so a cross-process send is a yield point for this PE's
// sibling threads.
func (p *PCtx) sendRemote(op string, kind MsgKind, id int64, dest int, payload []byte) {
	tr := p.rts.cfg.Cluster.Transport
	src := p.pe.id
	p.pe.mu.Unlock()
	err := tr.SendRemote(kind, id, src, dest, payload)
	p.pe.mu.Lock()
	if err != nil {
		// A severed link surfaces as the ordinary structured send error
		// with the transport failure as its cause.
		panic(&eden.SendError{Op: op, Chan: id, PE: src, Dest: dest, Err: err})
	}
}

// parkForever suspends a shadow root at its first receive: the real
// root on rank 0 is doing the receiving. The park ends only when the
// run unwinds — Drain or a failure — via the ordinary errAborted
// panic, so the shadow root joins like any other thread.
func (p *PCtx) parkForever() {
	if p.pe.ev != nil {
		p.pe.ev.Emit(eventlog.BlockBegin)
	}
	for {
		// Keep applying this PE's inbox: the shadow root may be the only
		// thread on it.
		p.pe.drain()
		p.pe.checkFailed()
		p.pe.wait()
	}
}
