package apsp

import (
	"fmt"

	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/pe"
	"parhask/internal/rts"
	"parhask/internal/skel"
	"parhask/internal/strategies"
)

// thunkBuildAlloc is the heap charged per lattice thunk built by the
// GpH program's main thread.
const thunkBuildAlloc = 40

// Program is the runtime-agnostic GpH APSP program. It builds the
// Floyd–Warshall thunk lattice — row i after stage k is a thunk
// depending on row i and the pivot row k after stage k-1 — and sparks an
// evaluation for each (final) row in advance, relying on the runtime
// system to synchronise the concurrent evaluations of the shared pivot
// thunks (§V). Under lazy black-holing those shared pivot chains are
// evaluated repeatedly by every thread that reaches them inside the
// marking window; under eager black-holing threads block on them instead
// and a pipeline forms. The shared pivots make this the showcase for the
// two policies, in virtual time and on real cores alike.
func Program(g Graph, minPlusCost int64) exec.Program {
	return func(ctx exec.Ctx) graph.Value {
		rows := lattice(ctx, g, minPlusCost)
		strategies.ParListWHNF(ctx, rows)
		out := make(Graph, len(rows))
		for i, t := range rows {
			out[i] = ctx.Force(t).([]int32)
		}
		return out
	}
}

// lattice builds the Floyd–Warshall thunk lattice shared by Program and
// AutoProgram and returns the final rows' thunks: row i after stage k
// is a thunk forcing row i and the pivot row k after stage k-1.
func lattice(ctx exec.Ctx, g Graph, minPlusCost int64) []*graph.Thunk {
	n := len(g)
	ctx.Alloc(Bytes(n)) // the input adjacency matrix
	rows := make([]*graph.Thunk, n)
	for i := range rows {
		row := append([]int32(nil), g[i]...)
		rows[i] = graph.NewValue(row)
	}
	for k := 0; k < n; k++ {
		k := k
		pivot := rows[k]
		next := make([]*graph.Thunk, n)
		for i := 0; i < n; i++ {
			ri := rows[i]
			next[i] = exec.NewThunk(ctx, func(c exec.Ctx) graph.Value {
				pk := c.Force(pivot).([]int32)
				r := c.Force(ri).([]int32)
				return UpdateRow(c, minPlusCost, r, pk, k)
			})
		}
		ctx.Alloc(int64(n) * thunkBuildAlloc)
		rows = next
	}
	return rows
}

// GpHProgram is Program specialised to the simulated runtime, kept for
// the simulation call sites.
func GpHProgram(g Graph, minPlusCost int64) func(*rts.Ctx) graph.Value {
	p := Program(g, minPlusCost)
	return func(ctx *rts.Ctx) graph.Value { return p(ctx) }
}

// SeqProgram runs Floyd–Warshall sequentially with cost accounting.
func SeqProgram(g Graph, minPlusCost int64) func(*rts.Ctx) graph.Value {
	n := len(g)
	return func(ctx *rts.Ctx) graph.Value {
		ctx.Alloc(Bytes(n))
		d := Clone(g)
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				UpdateRowInPlace(ctx, minPlusCost, d[i], d[k], k)
			}
		}
		return d
	}
}

// PackedSize implements eden.Sized: a Graph packs like a [][]int32 —
// one word per row header plus 4 bytes per distance. Without this the
// named type fell through to SizeOfChecked's old one-word default, so
// the row blocks the ring nodes returned were charged 16 bytes while
// the copier shipped every row.
func (g Graph) PackedSize() int64 {
	var n int64 = 16
	for _, r := range g {
		n += int64(4*len(r)) + 16
	}
	return n
}

// ringInput is the initial payload of one ring process: its block of
// rows.
type ringInput struct {
	Lo   int
	Rows Graph
}

// PackedSize implements eden.Sized.
func (ri ringInput) PackedSize() int64 {
	var n int64 = 32
	for _, r := range ri.Rows {
		n += int64(4*len(r)) + 16
	}
	return n
}

// pivotMsg carries one pivot row around the ring. Hops counts the edges
// travelled so the row is dropped before returning to its owner.
type pivotMsg struct {
	K    int
	Row  []int32
	Hops int
}

// PackedSize implements eden.Sized.
func (pm pivotMsg) PackedSize() int64 { return int64(4*len(pm.Row)) + 32 }

// EdenRingProgram distributes the distance-matrix rows over ringSize
// processes in a ring. Initialised with its rows, each process computes
// the minimum distances by updating its rows continuously with the pivot
// rows received from (and forwarded to) the ring; the row updates depend
// on each previous stage but are pipelined around the ring (§V).
func EdenRingProgram(g Graph, ringSize int, minPlusCost int64) pe.Program {
	n := len(g)
	if ringSize <= 0 {
		panic("apsp: ring size must be positive")
	}
	if ringSize > n {
		ringSize = n
	}
	p := ringSize
	return func(px pe.Ctx) graph.Value {
		bounds := make([][2]int, p)
		inputs := make([]graph.Value, p)
		for i := 0; i < p; i++ {
			lo, hi := n*i/p, n*(i+1)/p
			bounds[i] = [2]int{lo, hi}
			rows := make(Graph, hi-lo)
			for r := lo; r < hi; r++ {
				rows[r-lo] = append([]int32(nil), g[r]...)
			}
			inputs[i] = ringInput{Lo: lo, Rows: rows}
		}
		outs := skel.Ring(px, "apsp", p, func(w pe.Ctx, idx int, input graph.Value,
			fromPred pe.StreamIn, toSucc pe.StreamOut) graph.Value {
			in := input.(ringInput)
			rows := in.Rows
			lo, hi := bounds[idx][0], bounds[idx][1]
			w.AddResident(int64(len(rows)) * int64(n) * 4)
			for k := 0; k < n; k++ {
				var pivot []int32
				if k >= lo && k < hi {
					// Our own row k is up to date through stage k-1:
					// snapshot it and start it around the ring.
					pivot = append([]int32(nil), rows[k-lo]...)
					if p > 1 {
						w.StreamSend(toSucc, pivotMsg{K: k, Row: pivot, Hops: 1})
					}
				} else {
					v, ok := w.StreamRecv(fromPred)
					if !ok {
						panic("apsp: ring stream closed early")
					}
					m := v.(pivotMsg)
					if m.K != k {
						panic(fmt.Sprintf("apsp: node %d expected pivot %d, got %d", idx, k, m.K))
					}
					pivot = m.Row
					if m.Hops < p-1 {
						// Forward before computing: this is the
						// pipelining that hides the ring latency.
						w.StreamSend(toSucc, pivotMsg{K: k, Row: pivot, Hops: m.Hops + 1})
					}
				}
				for r := range rows {
					UpdateRowInPlace(w, minPlusCost, rows[r], pivot, k)
				}
			}
			if p > 1 {
				w.StreamClose(toSucc)
				if _, ok := w.StreamRecv(fromPred); ok {
					panic("apsp: unexpected extra pivot after final stage")
				}
			}
			return rows
		}, inputs)

		out := make(Graph, 0, n)
		for _, o := range outs {
			out = append(out, o.(Graph)...)
		}
		return out
	}
}
