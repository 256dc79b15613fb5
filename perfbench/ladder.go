package main

import (
	"fmt"
	"time"

	"parhask/internal/cluster"
	"parhask/internal/eden/wire"
	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/native"
	"parhask/internal/nativeeden"
	"parhask/internal/pe"
	"parhask/internal/workloads/apsp"
	"parhask/internal/workloads/euler"
)

// kernel is one program every rung of a ladder computes.
type kernel struct {
	seqName string
	seq     func() graph.Value
	gph     func() exec.Program
	// eden builds the Eden program for pes PEs. When nil the Eden rungs
	// run euler.EdenProgram in fresh child processes (see
	// edenSumEulerChild), and a traced run also probes its memo.
	eden      func(pes int) pe.Program
	edenChild edenArgs
	spec      string      // cluster.BuildProgram spec
	want      graph.Value // the oracle's answer
	equal     func(got, want graph.Value) bool
	// wire is what the Eden rungs ship, for the wire probe (nil: none),
	// and wireWant what decoding it must give back.
	wire, wireWant graph.Value
}

// ladder times one kernel on every rung: the plain sequential kernel,
// the native GpH runtime at 1 and 2 workers, native Eden at 1 and 2
// PEs, and a 2-process × 1-PE cluster over loopback TCP. Each rung run
// is one timed operation, of the rung's kind.
type ladder struct{ k kernel }

func newLadderCoarse(cfg config) (workload, error) {
	n := 3000
	if cfg.Scale == "tiny" {
		n = 300
	}
	n += int(cfg.Seed % 16)
	want := euler.SumTotientSieve(n)
	if cfg.Corrupt {
		want++
	}
	return newLadder(kernel{
		seqName:   "euler.SumRangeDirect",
		seq:       func() graph.Value { return euler.SumRangeDirect(1, n) },
		gph:       func() exec.Program { return euler.Program(n, 8, 0, true) },
		edenChild: edenArgs{N: n, Chunks: 2, Runs: 1},
		spec:      fmt.Sprintf("sumeuler?n=%d&chunks=2", n),
		want:      want,
		equal:     func(got, want graph.Value) bool { return got == want },
	}), nil
}

func newLadderFine(cfg config) (workload, error) {
	n := 300
	if cfg.Scale == "tiny" {
		n = 24
	}
	// The cluster workers build the same graph from the spec.
	g := apsp.RandomGraph(n, cfg.Seed, 40, 4)
	want, wireWant := apsp.FloydWarshall(g), g
	if cfg.Corrupt {
		want[0][n-1]++
		wireWant = apsp.Clone(g)
		wireWant[0][n-1]++
	}
	return newLadder(kernel{
		seqName: "apsp.FloydWarshall",
		seq:     func() graph.Value { return apsp.FloydWarshall(g) },
		gph:     func() exec.Program { return apsp.Program(g, 0) },
		eden:    func(pes int) pe.Program { return apsp.EdenRingProgram(g, pes, 0) },
		spec:    fmt.Sprintf("apsp?n=%d&ring=2&seed=%d", n, cfg.Seed),
		want:    want,
		equal: func(got, want graph.Value) bool {
			g, ok := got.(apsp.Graph)
			return ok && apsp.Equal(g, want.(apsp.Graph))
		},
		wire:     g,
		wireWant: wireWant,
	}), nil
}

// newLadder sets a ladder up with one untimed warm-up pass.
func newLadder(k kernel) *ladder {
	l := &ladder{k: k}
	l.pass(newPhase(nil))
	return l
}

func (l *ladder) measure(p *phase, d time.Duration) { loop(p, d, func() { l.pass(p) }) }

func (l *ladder) close() error { return nil }

// pass runs every rung once, bottom up, then the wire probe.
func (l *ladder) pass(p *phase) {
	l.seq(p)
	l.gph(p, 1)
	l.gph(p, 2)
	l.eden(p, 1)
	l.eden(p, 2)
	l.cluster(p)
	if l.k.wire != nil {
		l.wireProbe(p)
	}
}

// finish checks a rung's answer against the oracle under its own span;
// a correct run is timed as an operation of the rung's kind, a wrong
// one is only counted.
func (l *ladder) finish(p *phase, root int, rung string, d time.Duration, v graph.Value, err error) {
	sp := p.tr.begin(root, "oracle", "oracle")
	if err == nil && !l.k.equal(v, l.k.want) {
		err = fmt.Errorf("%s: answer differs from the sequential oracle", rung)
	}
	p.tr.end(sp)
	if p.check(err) {
		p.op(rung, d)
	}
}

func (l *ladder) seq(p *phase) {
	root := p.tr.root("seq")
	defer p.tr.end(root)
	sp := p.tr.begin(root, l.k.seqName, "kernel")
	start := time.Now()
	v := l.k.seq()
	d := time.Since(start)
	p.tr.end(sp)
	l.finish(p, root, "seq", d, v, nil)
}

func (l *ladder) gph(p *phase, workers int) {
	rung := fmt.Sprintf("gph%d", workers)
	root := p.tr.root(rung)
	defer p.tr.end(root)
	prog := l.k.gph()
	sp := p.tr.begin(root, "native.Run", "native")
	cpu0, start := cpuNS(), time.Now()
	res, err := native.Run(native.NewConfig(workers), prog)
	d := time.Since(start)
	cpu := cpuNS() - cpu0
	p.tr.end(sp)
	var v graph.Value
	if err == nil {
		v = res.Value
		st := res.Stats
		p.s.add("native.dup_entries", float64(st.DupEntries))
		if st.DupEntries != 0 {
			err = fmt.Errorf("%s: %d duplicate thunk entries under eager black-holing", rung, st.DupEntries)
		}
		if workers == 1 {
			p.s.add("native.gc_cycles", float64(res.GC.Cycles))
			p.s.add("native.gc_pause_ms", float64(res.GC.PauseNS)/1e6)
			p.s.add("native.alloc_mb", float64(res.GC.BytesAlloc)/1e6)
		} else {
			p.s.add("native.idle_s", float64(st.BackoffNS+st.ParkedNS)/1e9)
			if st.StealAttempts > 0 {
				p.s.add("native.steal_hit", float64(st.Steals)/float64(st.StealAttempts))
			}
			if st.SparksCreated > 0 {
				p.s.add("native.converted_frac", float64(st.SparksConverted)/float64(st.SparksCreated))
			}
			p.s.add("native.blocked_forces", float64(st.BlockedForces))
			p.s.add("native.cpu_util", float64(cpu)/float64(d.Nanoseconds()*int64(workers)))
		}
	}
	l.finish(p, root, rung, d, v, err)
}

func (l *ladder) eden(p *phase, pes int) {
	rung := fmt.Sprintf("eden%d", pes)
	root := p.tr.root(rung)
	defer p.tr.end(root)
	var (
		r   edenRun
		v   graph.Value
		err error
	)
	if l.k.eden == nil {
		var runs []edenRun
		args := l.k.edenChild
		args.PEs = pes
		if err = runChild("eden-sumeuler", args, &runs); err == nil && len(runs) == 1 {
			r, v = runs[0], runs[0].Value
			p.tr.place(root, "nativeeden.Run", "nativeeden", r.StartNS, r.StartNS+r.WallNS)
		}
	} else {
		prog := l.k.eden(pes)
		sp := p.tr.begin(root, "nativeeden.Run", "nativeeden")
		cpu0, start := cpuNS(), time.Now()
		var res *nativeeden.Result
		res, err = nativeeden.Run(nativeeden.NewConfig(pes), prog)
		r.WallNS, r.CPUNS = time.Since(start).Nanoseconds(), cpuNS()-cpu0
		p.tr.end(sp)
		if err == nil {
			v = res.Value
			r.Messages, r.BytesSent = res.Stats.Messages, res.Stats.BytesSent
			r.GCCycles, r.AllocBytes = res.GC.Cycles, res.GC.BytesAlloc
		}
	}
	if err == nil {
		if pes == 1 {
			p.s.add("eden.gc_cycles", float64(r.GCCycles))
			p.s.add("eden.alloc_mb", float64(r.AllocBytes)/1e6)
		} else {
			p.s.add("eden.messages", float64(r.Messages))
			p.s.add("eden.mb_sent", float64(r.BytesSent)/1e6)
			p.s.add("eden.cpu_util", float64(r.CPUNS)/float64(r.WallNS*int64(pes)))
		}
	}
	l.finish(p, root, rung, time.Duration(r.WallNS), v, err)
}

func (l *ladder) cluster(p *phase) {
	root := p.tr.root("cluster2")
	defer p.tr.end(root)
	sp := p.tr.begin(root, "cluster.Run", "cluster")
	res, err := cluster.Run(cluster.Config{Procs: 2, PerProc: 1, Transport: "tcp", Spec: l.k.spec})
	p.tr.end(sp)
	var (
		v graph.Value
		d time.Duration
	)
	if err == nil {
		v, d = res.Value, time.Duration(res.CoordNS)
		var dropped int64
		for _, n := range res.DroppedFrames {
			dropped += n
		}
		p.s.add("cluster.launch_s", float64(res.CoordNS-res.WallNS)/1e9)
		p.s.add("cluster.dropped_frames", float64(dropped))
		p.s.add("cluster.reconnects", float64(res.Reconnects))
		p.s.add("cluster.restarts", float64(res.Restarts))
		if dropped+int64(res.Reconnects+res.Restarts) != 0 {
			err = fmt.Errorf("cluster2: %d dropped frames, %d reconnects, %d restarts", dropped, res.Reconnects, res.Restarts)
		}
	}
	l.finish(p, root, "cluster2", d, v, err)
}

// wireProbe encodes and decodes what the Eden rungs ship, as the
// cluster transport does, and checks the round trip.
func (l *ladder) wireProbe(p *phase) {
	root := p.tr.root("wire")
	defer p.tr.end(root)
	sp := p.tr.begin(root, "wire.Encode", "wire")
	start := time.Now()
	b, err := wire.Encode(l.k.wire)
	enc := time.Since(start)
	p.tr.end(sp)
	if err != nil {
		p.check(err)
		return
	}
	sp = p.tr.begin(root, "wire.Decode", "wire")
	start = time.Now()
	v, err := wire.Decode(b)
	dec := time.Since(start)
	p.tr.end(sp)
	sp = p.tr.begin(root, "oracle", "oracle")
	if err == nil && !l.k.equal(v, l.k.wireWant) {
		err = fmt.Errorf("wire: decoded value differs from the encoded one")
	}
	p.tr.end(sp)
	if p.check(err) {
		mb := float64(len(b)) / 1e6
		p.s.add("wire.encode_mb_s", mb/enc.Seconds())
		p.s.add("wire.decode_mb_s", mb/dec.Seconds())
	}
}

func (l *ladder) layers(m metricValues, p *phase) {
	s := p.s
	for _, rung := range []string{"seq", "gph1", "gph2", "eden1", "eden2", "cluster2"} {
		m[rung+"_s"] = median(p.ops[rung]) / 1e3
	}
	for _, name := range []string{
		"native.idle_s", "native.steal_hit", "native.converted_frac", "native.blocked_forces",
		"native.cpu_util", "native.gc_cycles", "native.gc_pause_ms", "native.alloc_mb",
		"eden.messages", "eden.mb_sent", "eden.cpu_util", "eden.gc_cycles", "eden.alloc_mb",
		"wire.encode_mb_s", "wire.decode_mb_s", "cluster.launch_s",
	} {
		m[name] = s.med(name)
	}
	for _, name := range []string{"native.dup_entries", "cluster.dropped_frames", "cluster.reconnects", "cluster.restarts"} {
		m[name] = s.sum(name)
	}
	m["native.overhead"] = ratio(m["gph1_s"], m["seq_s"])
	m["native.speedup2"] = ratio(m["gph1_s"], m["gph2_s"])
	m["eden.overhead"] = ratio(m["eden1_s"], m["seq_s"])
	m["eden.speedup2"] = ratio(m["eden1_s"], m["eden2_s"])
	m["cluster.overhead"] = ratio(m["cluster2_s"], m["eden2_s"])
	if l.k.eden == nil {
		m["eden.memo_warm_ratio"] = l.memoWarmRatio()
	}
}

// memoWarmRatio runs euler.EdenProgram twice in one fresh process and
// returns the cold run's time over the warm one's. While EdenProgram
// reads the process-global φ memo the warm run only looks results up;
// once it times the kernel the ratio reads about 1.
func (l *ladder) memoWarmRatio() float64 {
	args := l.k.edenChild
	args.PEs, args.Runs = 1, 2
	var runs []edenRun
	if err := runChild("eden-sumeuler", args, &runs); err != nil || len(runs) != 2 {
		return 0
	}
	return ratio(float64(runs[0].WallNS), float64(runs[1].WallNS))
}
