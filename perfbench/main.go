// Command perfbench is the repository's cost-ladder benchmark. It runs
// one of four seeded workloads for a fixed number of seconds, checks
// every timed operation against an oracle, and prints its metrics; the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run alternates untraced and traced slices and the metrics are the
// per-layer ones, including each layer's self time. See
// README.md in this directory for the workloads, the metrics and the
// ladder rungs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"parhask/internal/cluster"
)

func main() {
	// The cluster coordinator re-executes this binary as its workers,
	// and the benchmark re-executes it for its own child processes;
	// both must be dispatched before any flag parsing.
	cluster.MaybeWorker()
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(childMain(mode))
	}
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// Scale is "full" (the benchmark proper) or "tiny" (the self-test).
	Scale string `json:"scale"`
	// OutDir receives the result stamp and, for traced runs, the spans.
	OutDir string `json:"out_dir"`
	// Corrupt replaces every expected answer with a wrong one; the
	// self-test uses it to show that a wrong answer is counted as a
	// failure instead of being timed.
	Corrupt bool `json:"corrupt,omitempty"`
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.Workload, "workload", "", "ladder-coarse | ladder-fine | serve-mix | sim-paper")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.Seconds, "seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&cfg.Scale, "scale", "full", "input scale: full | tiny")
	fs.StringVar(&cfg.OutDir, "out", filepath.Join(".bench_build", "results"), "directory for result stamps and span files")
	golden := fs.String("record-golden", "", "run sim-paper once at every scale and write its golden virtual outputs to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *golden != "" {
		if err := recordGolden(*golden); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	cfg.Trace = *trace == 1
	if err := cfg.validate(*trace); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := bench(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.write(stdout, cfg); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func (c config) validate(trace int) error {
	if _, ok := workloads[c.Workload]; !ok {
		return fmt.Errorf("unknown workload %q (want %v)", c.Workload, workloadNames())
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, have %d", trace)
	}
	if c.Seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, have %g", c.Seconds)
	}
	if c.Scale != "full" && c.Scale != "tiny" {
		return fmt.Errorf("unknown scale %q (want full or tiny)", c.Scale)
	}
	return nil
}

// workload is one of the benchmark's input sets. Constructing it is the
// set-up a run pays once: inputs, oracles, servers, memo tables and one
// untimed, checked warm-up operation.
type workload interface {
	// measure runs timed operations for at least d; it may be called
	// several times on one phase.
	measure(p *phase, d time.Duration)
	// layers folds an untraced phase into the per-layer metrics.
	layers(m metricValues, p *phase)
	close() error
}

var workloads = map[string]func(cfg config) (workload, error){
	"ladder-coarse": newLadderCoarse,
	"ladder-fine":   newLadderFine,
	"serve-mix":     newServeMix,
	"sim-paper":     newSimPaper,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupReps is how many times a run sets its workload up. One set-up is
// the run's own; the others run in fresh child processes, so each
// sample is a cold set-up even where the workload fills process-global
// state (the sim φ memo).
const setupReps = 3

// traceSlices is how many untraced and traced slices a traced run
// alternates, so that drift over the run (warm-up, host load) does not
// read as tracing overhead.
const traceSlices = 5

// phase is one measured stretch of a run: its timed operations by
// kind, its failures and the per-layer samples the workload recorded.
type phase struct {
	tr        *tracer // nil when untraced
	ops       samples // operation kind -> wall times in ms
	wall      time.Duration
	attempted int
	failed    int
	errs      []string
	s         samples
	// serverMemMB is the memory held by a server process the workload
	// runs beside this one, at the end of the phase (0 if none).
	serverMemMB float64
}

func newPhase(tr *tracer) *phase { return &phase{tr: tr, ops: samples{}, s: samples{}} }

// op records one successful timed operation of the given kind, and the
// memory the process holds after it.
func (p *phase) op(kind string, d time.Duration) {
	p.ops.add(kind, float64(d.Nanoseconds())/1e6)
	p.s.add("mem_mb", heldMB())
}

// opMS is the geometric mean, over operation kinds, of each kind's
// median time in ms: every kind weighs the same however long it takes,
// and a mix of fast and slow kinds cannot put the figure in the gap
// between them, as a pooled median would.
func (p *phase) opMS() float64 {
	if len(p.ops) == 0 {
		return 0
	}
	var logSum float64
	for _, v := range p.ops {
		logSum += math.Log(median(v))
	}
	return math.Exp(logSum / float64(len(p.ops)))
}

// opsPerS is timed operations completed per second.
func (p *phase) opsPerS() float64 {
	var n int
	for _, v := range p.ops {
		n += len(v)
	}
	return float64(n) / p.wall.Seconds()
}

// check counts one checked operation and records err as its failure.
// It reports whether the operation succeeded.
func (p *phase) check(err error) bool {
	p.attempted++
	if err == nil {
		return true
	}
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
	return false
}

// loop runs op back to back, at least once and for at least d.
func loop(p *phase, d time.Duration, op func()) {
	start := time.Now()
	for ok := true; ok; ok = time.Since(start) < d {
		op()
	}
	p.wall += time.Since(start)
}

// result is what one invocation prints and stamps.
type result struct {
	attempted, failed int
	errs              []string
	metrics           metricValues
	summaries         map[string]summary
	spans             *tracer
}

func bench(cfg config) (*result, error) {
	w, setupS, err := setUp(cfg)
	if err != nil {
		return nil, err
	}

	res := &result{metrics: metricValues{}, summaries: map[string]summary{}}
	d := time.Duration(cfg.Seconds * float64(time.Second))
	if !cfg.Trace {
		p := newPhase(nil)
		w.measure(p, d)
		res.add(p)
		res.summarize(p)
		res.summaries["setup_s"] = summarize(setupS)
		res.metrics["op_ms"] = p.opMS()
		res.metrics["ops_per_s"] = p.opsPerS()
		res.metrics["setup_s"] = median(setupS)
		res.metrics["mem_mb"] = p.s.med("mem_mb") + p.serverMemMB
	} else {
		tr := newTracer()
		plain, traced := newPhase(nil), newPhase(tr)
		for i := 0; i < traceSlices; i++ {
			w.measure(plain, d/(2*traceSlices))
			w.measure(traced, d/(2*traceSlices))
		}
		res.add(plain)
		res.add(traced)
		for _, m := range perLayer {
			res.metrics[m.Name] = 0
		}
		w.layers(res.metrics, plain)
		res.summarize(plain)
		for name, vals := range plain.s {
			res.summaries[name] = summarize(vals)
		}
		for layer, s := range tr.selfTimes() {
			res.metrics["self."+layer+"_s"] = s
		}
		res.metrics["failed_frac"] = float64(res.failed) / float64(max(res.attempted, 1))
		if base := plain.opMS(); base > 0 {
			res.metrics["trace.overhead_pct"] = 100 * (traced.opMS()/base - 1)
		}
		res.spans = tr
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	return res, nil
}

// summarize keeps each operation kind's sample summary.
func (r *result) summarize(p *phase) {
	for kind, v := range p.ops {
		r.summaries["op."+kind+"_ms"] = summarize(v)
	}
}

func (r *result) add(p *phase) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.errs = append(r.errs, p.errs...)
}

// setUp builds the workload setupReps times and returns the last one
// with every set-up's duration in seconds.
func setUp(cfg config) (workload, []float64, error) {
	var secs []float64
	for i := 1; i < setupReps; i++ {
		s, err := childSetup(cfg)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, s)
	}
	start := time.Now()
	w, err := workloads[cfg.Workload](cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
	}
	return w, append(secs, time.Since(start).Seconds()), nil
}

// usage is this process's CPU time so far, user plus system, and the
// memory it holds now.
type usage struct {
	CPUNS  int64   `json:"cpu_ns"`
	HeldMB float64 `json:"held_mb"`
}

func selfUsage() usage { return usage{CPUNS: cpuNS(), HeldMB: heldMB()} }

func cpuNS() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heldMB is the memory the Go runtime holds from the operating system,
// mapped minus released, in MB: heap, stacks and runtime metadata. The
// process's peak resident set is no steady figure here: where the
// collector's cycles fall during a 130 MB APSP run moves it by half.
func heldMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / 1e6
}

// write prints the human-readable stamp and summaries, stores them with
// the spans under cfg.OutDir, and prints the result line last.
func (r *result) write(stdout io.Writer, cfg config) error {
	st := newStamp(cfg)
	fmt.Fprintf(stdout, "# %s\n", st)
	for _, e := range r.errs {
		fmt.Fprintf(stdout, "# FAILED: %s\n", e)
	}
	specs := endToEnd
	if cfg.Trace {
		specs = perLayer
	}
	line := map[string]any{}
	for _, m := range specs {
		v, ok := r.metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		fmt.Fprintf(stdout, "# %-34s %14.6g %s%s\n", m.Name, v, m.Unit, r.summaries[m.Name].note())
		line[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	// The samples behind the metrics: per-kind operation times and the
	// raw per-layer series.
	var rest []string
	for name := range r.summaries {
		if _, ok := line[name]; !ok {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		fmt.Fprintf(stdout, "# %-34s %s\n", name, r.summaries[name].note())
	}
	if err := r.store(cfg, st); err != nil {
		return err
	}
	out, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0 && r.attempted > 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   line,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}

// store writes the stamped result, and the spans of a traced run, as
// JSON files under cfg.OutDir.
func (r *result) store(cfg config, st stamp) error {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.OutDir, fmt.Sprintf("%s-seed%d-trace%d", cfg.Workload, cfg.Seed, btoi(cfg.Trace)))
	doc := map[string]any{
		"stamp":     st,
		"attempted": r.attempted,
		"failed":    r.failed,
		"errors":    r.errs,
		"metrics":   r.metrics,
		"samples":   r.summaries,
	}
	if err := writeJSON(base+".json", doc); err != nil {
		return err
	}
	if r.spans == nil {
		return nil
	}
	return writeJSON(base+".spans.json", map[string]any{"stamp": st, "spans": r.spans.spans})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
