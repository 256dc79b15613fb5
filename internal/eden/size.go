package eden

import (
	"fmt"

	"parhask/internal/graph"
)

// consOverhead is the packet overhead of one stream cell beyond its
// payload (tag + continuation channel id).
const consOverhead = 24

// ConsOverhead exports the stream-cell overhead for the native backend,
// which charges the same packing model to its bytes-shipped telemetry.
const ConsOverhead = consOverhead

// wordSize is the packed size of one scalar (value + tag), matching the
// graph-structure serialisation Eden uses.
const wordSize = 16

// Sized lets user-defined message types report their packed size so the
// communication cost model charges them accurately.
type Sized interface {
	PackedSize() int64
}

// UnevaluatedError reports that a value reached the packing layer while
// still containing unevaluated graph — a violation of Eden's
// normal-form-before-send rule. Send/StreamSend wrap it in a SendError
// that names the channel and PE.
type UnevaluatedError struct {
	// State is the offending thunk's evaluation state at packing time.
	State graph.EvalState
}

func (e *UnevaluatedError) Error() string {
	return fmt.Sprintf("unevaluated graph in message (thunk state %s); values must be in normal form before sending", e.State)
}

// SendError is the structured error for a failed channel send: which
// operation, on which channel, from which PE, and why. It is the
// diagnosable form of the bare panic SizeOf used to raise, so misuse of
// the native Eden backend names the exact port instead of only the
// thunk state.
type SendError struct {
	// Op is the failing operation ("Send" or "StreamSend").
	Op string
	// Chan is the channel id the failing port belongs to.
	Chan int64
	// PE is the sending PE.
	PE int
	// Dest is the channel's destination PE.
	Dest int
	// Err is the underlying packing error (an *UnevaluatedError).
	Err error
}

func (e *SendError) Error() string {
	return fmt.Sprintf("eden: %s on channel #%d (PE %d -> PE %d): %v", e.Op, e.Chan, e.PE, e.Dest, e.Err)
}

// Unwrap exposes the underlying packing error to errors.Is/As.
func (e *SendError) Unwrap() error { return e.Err }

// ChanMisuseError is the structured error for a channel-protocol
// violation: receiving on the wrong PE, consuming a one-value channel
// twice, or operating on an unknown or already-closed port. It replaces
// the bare string panics these misuses used to raise, so supervised
// runs and the chaos soak can classify them with errors.As alongside
// SendError.
type ChanMisuseError struct {
	// Op is the violating operation ("Receive", "StreamSend",
	// "StreamClose", "StreamRecv", "CancelStream").
	Op string
	// Chan is the channel or stream id.
	Chan int64
	// PE is the PE the violating thread ran on.
	PE int
	// Owner is the PE that owns the port's receiving end, or -1 when the
	// port is unknown to the runtime.
	Owner int
	// Reason classifies the violation: "cross-pe", "already-received",
	// "closed-or-unknown-stream", "unknown-stream".
	Reason string
}

func (e *ChanMisuseError) Error() string {
	if e.Owner >= 0 {
		return fmt.Sprintf("eden: %s on channel #%d from PE %d (owner PE %d): %s", e.Op, e.Chan, e.PE, e.Owner, e.Reason)
	}
	return fmt.Sprintf("eden: %s on channel #%d from PE %d: %s", e.Op, e.Chan, e.PE, e.Reason)
}

// UnsizedTypeError reports a message value whose packed size the model
// cannot state exactly: a type with no builtin rule and no PackedSize.
// It used to be silently charged one word — which under-counted every
// map and plain struct the copier then shipped field-by-field — so the
// cost model and the copier disagreed about what a message even was.
// Now that the packed size is the actual byte length on the wire, an
// unsized type is a hard, diagnosable error.
type UnsizedTypeError struct {
	// Type is the offending value's dynamic type, rendered with %T.
	Type string
}

func (e *UnsizedTypeError) Error() string {
	return fmt.Sprintf("eden: message type %s has no packed size; implement eden.Sized (PackedSize) for exact byte accounting", e.Type)
}

// SizeOfChecked computes the packed size in bytes of a normal-form
// value — the byte count charged to the communication model and, in
// cluster mode, the exact length of the value's wire encoding. A value
// still containing unevaluated graph returns an *UnevaluatedError; a
// type with no size rule (maps, structs without PackedSize) returns an
// *UnsizedTypeError instead of silently under-charging one word.
func SizeOfChecked(v graph.Value) (int64, error) {
	switch x := v.(type) {
	case nil:
		return wordSize, nil
	case Sized:
		return x.PackedSize(), nil
	case bool, int, int32, int64, uint64, float32, float64:
		return wordSize, nil
	case string:
		return int64(len(x)) + wordSize, nil
	case []int:
		return int64(8*len(x)) + wordSize, nil
	case []int64:
		return int64(8*len(x)) + wordSize, nil
	case []int32:
		return int64(4*len(x)) + wordSize, nil
	case []float64:
		return int64(8*len(x)) + wordSize, nil
	case [][]float64:
		var n int64 = wordSize
		for _, row := range x {
			n += int64(8*len(row)) + wordSize
		}
		return n, nil
	case [][]int:
		var n int64 = wordSize
		for _, row := range x {
			n += int64(8*len(row)) + wordSize
		}
		return n, nil
	case [][]int32:
		var n int64 = wordSize
		for _, row := range x {
			n += int64(4*len(row)) + wordSize
		}
		return n, nil
	case []graph.Value:
		var n int64 = wordSize
		for _, e := range x {
			s, err := SizeOfChecked(e)
			if err != nil {
				return 0, err
			}
			n += s
		}
		return n, nil
	case Cons:
		s, err := SizeOfChecked(x.Head)
		if err != nil {
			return 0, err
		}
		return s + consOverhead, nil
	case Nil:
		return wordSize, nil
	case *graph.Thunk:
		if x.IsEvaluated() {
			// An evaluated thunk's payload is in normal form; size its
			// value (the graph serialisation ships the value node).
			return SizeOfChecked(x.Value())
		}
		return 0, &UnevaluatedError{State: x.State()}
	default:
		return 0, &UnsizedTypeError{Type: fmt.Sprintf("%T", v)}
	}
}

// SizeOf is SizeOfChecked for call sites that guarantee normal form; it
// panics with the structured *UnevaluatedError on unevaluated graph.
func SizeOf(v graph.Value) int64 {
	n, err := SizeOfChecked(v)
	if err != nil {
		panic(err)
	}
	return n
}
