package main

import (
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a call into a layer, or the timed
// operation that caused it (a root, Parent 0). Times are Unix
// nanoseconds, so spans a child process reports line up with the
// parent's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"` // the root span of the operation
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced phase's spans in memory. A nil *tracer records
// nothing, so untraced phases pay only the nil checks.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// root opens the span of one timed operation.
func (t *tracer) root(name string) int {
	return t.begin(0, name, "bench")
}

// begin opens a span under parent and returns its id (0 when untraced).
func (t *tracer) begin(parent int, name, layer string) int {
	if t == nil {
		return 0
	}
	now := time.Now().UnixNano()
	return t.place(parent, name, layer, now, now)
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// place records a span whose interval is already known.
func (t *tracer) place(parent int, name, layer string, start, end int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	op := id
	if parent != 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer, Start: start, End: end})
	return id
}

// selfTimes sums, per layer, each span's duration minus the part of it
// that its children cover, in seconds.
func (t *tracer) selfTimes() map[string]float64 {
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Layer] += float64(s.End-s.Start-covered(s.Start, s.End, kids[s.ID])) / 1e9
	}
	return out
}

// covered is how much of [lo, hi] the union of the intervals covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
