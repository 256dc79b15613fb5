package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"sort"
	"strings"
	"syscall"
	"time"

	"parhask/internal/eden"
	"parhask/internal/faults"
	"parhask/internal/graph"
	"parhask/internal/native"
	"parhask/internal/nativeeden"
	"parhask/internal/stats"
	"parhask/internal/workloads/euler"
)

// Chaos outcome classes. Every iteration of the soak must land in one
// of the first three; "violation" — a wrong result, an unstructured
// failure, or a hang (which the per-run deadline converts into a
// reportable error) — is the class the soak exists to prove empty.
const (
	ChaosOK         = "ok"
	ChaosStructured = "structured"
	ChaosDeadlock   = "deadlock"
	ChaosViolation  = "violation"
)

// ChaosRow is one soak iteration: which backend ran, under which fault
// spec (the replay key — feeding the same spec back reproduces the
// same failure), and how it ended.
type ChaosRow struct {
	Iter    int    `json:"iter"`
	Backend string `json:"backend"` // "native" | "nativeeden"
	Spec    string `json:"spec"`
	Outcome string `json:"outcome"`
	Detail  string `json:"detail,omitempty"`
	WallNS  int64  `json:"wall_ns"`
	// N / Chunks pin the workload scale so Repro replays the exact run.
	N      int `json:"n"`
	Chunks int `json:"chunks"`
}

// Repro is the command line that replays this iteration exactly.
func (r ChaosRow) Repro() string {
	if r.Backend == "nativeeden" {
		return fmt.Sprintf("go run ./cmd/sumeuler -runtime eden -pes %d -n %d -faults %q -deadline 10s",
			chaosEdenPEs, r.N, r.Spec)
	}
	return fmt.Sprintf("go run ./cmd/sumeuler -runtime native -workers %d -n %d -chunks %d -faults %q -deadline 10s",
		chaosGpHWorkers, r.N, r.Chunks, r.Spec)
}

// ChaosSoak is the report of a seeded fault-injection soak over both
// native backends.
type ChaosSoak struct {
	Iterations int        `json:"iterations"`
	Seed       uint64     `json:"seed"`
	OK         int        `json:"ok"`
	Structured int        `json:"structured"`
	Deadlocks  int        `json:"deadlocks"`
	Violations int        `json:"violations"`
	Rows       []ChaosRow `json:"rows"`
}

// splitmix64 is the soak's per-iteration seed derivation (the same
// finalizer the injector hashes with, reused so sub-seeds are
// well-mixed but reproducible from the master seed alone).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// chaosSpec derives a deterministic fault plan for one iteration: a
// panic, a message-drop edge, a message delay, a stalled PE, or a
// panic+stall combination, each parameterised from the sub-seed.
func chaosSpec(backend string, sub uint64) string {
	mode := sub % 5
	arg := (sub >> 8) % 16
	switch mode {
	case 0:
		if backend == "native" {
			return fmt.Sprintf("seed=%d,panic-spark=%d", sub, arg)
		}
		return fmt.Sprintf("seed=%d,panic-proc=%d", sub, arg%6)
	case 1:
		// Drops only matter where there are messages; on the GpH
		// backend this degenerates to a clean run, which is itself a
		// useful control case.
		return fmt.Sprintf("seed=%d,drop=0.4", sub)
	case 2:
		return fmt.Sprintf("seed=%d,delay=200us:0.5", sub)
	case 3:
		return fmt.Sprintf("seed=%d,stall=%d:1ms", sub, arg%4)
	default:
		if backend == "native" {
			return fmt.Sprintf("seed=%d,panic-spark=%d,stall=%d:500us", sub, arg, arg%4)
		}
		return fmt.Sprintf("seed=%d,panic-proc=%d,delay=100us:0.3", sub, arg%6)
	}
}

// classifyChaos sorts a run error into the soak's outcome classes.
func classifyChaos(err error) (string, string) {
	if err == nil {
		return ChaosOK, ""
	}
	var de *faults.DeadlockError
	if errors.As(err, &de) {
		if len(de.Blocked) == 0 {
			return ChaosViolation, "deadlock without diagnostics: " + err.Error()
		}
		return ChaosDeadlock, err.Error()
	}
	var ip *faults.InjectedPanic
	var me *eden.ChanMisuseError
	var se *eden.SendError
	var pz *graph.PoisonError
	var ce *euler.CheckError
	if errors.As(err, &ip) || errors.As(err, &me) || errors.As(err, &se) ||
		errors.As(err, &pz) || errors.As(err, &ce) {
		// CheckError is the workload's own integrity oracle tripping on
		// drop-induced data loss — detected corruption, not a hang or an
		// anonymous crash.
		return ChaosStructured, err.Error()
	}
	return ChaosViolation, "unstructured failure: " + err.Error()
}

// Chaos runs use fixed small backend shapes so the Repro command lines
// (which pin them as flags) replay byte-for-byte the same schedule space.
// The Eden runs use 8 chunks per PE, matching cmd/sumeuler's eden path.
const (
	chaosGpHWorkers = 4
	chaosEdenPEs    = 3
)

// runChaosIter executes one fault-injected sumEuler run on the given
// backend and classifies the outcome. The spec must parse (callers
// validate or derive it).
func runChaosIter(p Params, backend, spec string, eulerWant int64) (outcome, detail string, wallNS int64) {
	plan, err := faults.Parse(spec)
	if err != nil {
		panic(fmt.Sprintf("experiments: chaos spec %q failed to parse: %v", spec, err))
	}
	deadline := p.Deadline
	if deadline == 0 {
		deadline = 10 * time.Second
	}
	start := time.Now()
	var runErr error
	var value any
	if backend == "native" {
		cfg := native.NewConfig(chaosGpHWorkers)
		cfg.Faults = faults.NewInjector(plan)
		cfg.Deadline = deadline
		var res *native.Result
		res, runErr = native.Run(cfg, euler.Program(p.SumEulerN, p.SumEulerChunks, 0, true))
		if res != nil {
			value = res.Value
		}
	} else {
		cfg := nativeeden.NewConfig(chaosEdenPEs)
		cfg.Faults = faults.NewInjector(plan)
		cfg.Deadline = deadline
		var res *nativeeden.Result
		res, runErr = nativeeden.Run(cfg, euler.EdenProgram(p.SumEulerN, 8, 0))
		if res != nil {
			value = res.Value
		}
	}
	wallNS = time.Since(start).Nanoseconds()
	outcome, detail = classifyChaos(runErr)
	if outcome == ChaosOK {
		if v, ok := value.(int64); !ok || v != eulerWant {
			outcome = ChaosViolation
			detail = fmt.Sprintf("result %v differs from the sequential oracle %d", value, eulerWant)
		}
	}
	return outcome, detail, wallNS
}

// ReplayFault re-runs one fault-injected sumEuler iteration from
// p.FaultSpec on the given backend ("native" or "nativeeden") — the
// cmd/benchall face of a ChaosRow's repro command. Callers validate
// the spec first (benchall does so fail-fast, before any figure runs).
func ReplayFault(p Params, backend string) ChaosRow {
	row := ChaosRow{Backend: backend, Spec: p.FaultSpec, N: p.SumEulerN, Chunks: p.SumEulerChunks}
	row.Outcome, row.Detail, row.WallNS = runChaosIter(p, backend, p.FaultSpec, euler.SumTotientSieve(p.SumEulerN))
	return row
}

// RunChaosSoak runs iters seeded fault-injection iterations alternating
// between the native GpH and native Eden backends. Every iteration
// must terminate (the per-run deadline turns hangs into structured
// deadlock errors) and must end in a correct result, a structured
// failure, or a deadlock report with diagnostics; anything else is a
// violation. Sub-seeds derive from seed alone, so a failing iteration
// replays exactly from its row's Spec.
func RunChaosSoak(p Params, iters int, seed uint64) *ChaosSoak {
	s := &ChaosSoak{Iterations: iters, Seed: seed}
	eulerWant := euler.SumTotientSieve(p.SumEulerN)
	for i := 0; i < iters; i++ {
		sub := splitmix64(seed + uint64(i))
		backend := "native"
		if i%2 == 1 {
			backend = "nativeeden"
		}
		row := ChaosRow{Iter: i, Backend: backend, Spec: chaosSpec(backend, sub),
			N: p.SumEulerN, Chunks: p.SumEulerChunks}
		row.Outcome, row.Detail, row.WallNS = runChaosIter(p, backend, row.Spec, eulerWant)
		switch row.Outcome {
		case ChaosOK:
			s.OK++
		case ChaosStructured:
			s.Structured++
		case ChaosDeadlock:
			s.Deadlocks++
		default:
			s.Violations++
		}
		s.Rows = append(s.Rows, row)
	}
	return s
}

// Violating returns the rows that failed the soak's invariant.
func (s *ChaosSoak) Violating() []ChaosRow {
	var out []ChaosRow
	for _, r := range s.Rows {
		if r.Outcome == ChaosViolation {
			out = append(out, r)
		}
	}
	return out
}

// String renders the soak summary (and every violation with its repro
// command, when there are any).
func (s *ChaosSoak) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Chaos soak: %d iterations, seed %d\n", s.Iterations, s.Seed)
	fmt.Fprintf(&sb, "  ok %d | structured %d | deadlock %d | VIOLATIONS %d\n",
		s.OK, s.Structured, s.Deadlocks, s.Violations)
	if v := s.Violating(); len(v) > 0 {
		sb.WriteString("violations:\n")
		for _, r := range v {
			fmt.Fprintf(&sb, "  iter %d (%s): %s\n    repro: %s\n", r.Iter, r.Backend, r.Detail, r.Repro())
		}
	} else {
		sb.WriteString("invariant holds: every run ended in a correct result, a structured failure, or a diagnosed deadlock\n")
	}
	return sb.String()
}

// JSON renders the full soak for results artifacts.
func (s *ChaosSoak) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// HTML renders the soak as a self-contained report — the artifact the
// CI chaos job uploads, with a repro command per non-ok row.
func (s *ChaosSoak) HTML() []byte {
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>Chaos soak</title><style>")
	sb.WriteString("body{font-family:monospace;margin:2em}table{border-collapse:collapse}")
	sb.WriteString("td,th{border:1px solid #999;padding:2px 8px;text-align:left}")
	sb.WriteString(".ok{background:#e7f7e7}.structured{background:#fdf3d7}.deadlock{background:#fde2c7}.violation{background:#f7d7d7}")
	sb.WriteString("</style></head><body>")
	fmt.Fprintf(&sb, "<h1>Chaos soak</h1><p>%d iterations, seed %d: %d ok, %d structured, %d deadlock, <b>%d violations</b></p>",
		s.Iterations, s.Seed, s.OK, s.Structured, s.Deadlocks, s.Violations)
	sb.WriteString("<table><tr><th>iter</th><th>backend</th><th>spec</th><th>outcome</th><th>wall</th><th>detail / repro</th></tr>")
	for _, r := range s.Rows {
		detail := html.EscapeString(r.Detail)
		if r.Outcome != ChaosOK {
			detail += "<br><code>" + html.EscapeString(r.Repro()) + "</code>"
		}
		fmt.Fprintf(&sb, "<tr class=%q><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>",
			r.Outcome, r.Iter, r.Backend, html.EscapeString(r.Spec), r.Outcome, stats.Seconds(r.WallNS), detail)
	}
	sb.WriteString("</table></body></html>\n")
	return []byte(sb.String())
}

// overheadReps is how many interleaved off/on pairs an overhead
// measurement runs.
const overheadReps = 7

// processCPUNS is the CPU time, user plus system, this process has
// used so far.
func processCPUNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("experiments: getrusage: %v", err))
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// pairedOverhead runs reps off/on pairs of run (which returns the
// run's wall time), alternating which side goes first. It returns each
// side's best wall time and the overhead: the median over pairs of the
// on run's extra process CPU time relative to the off run's, in
// percent. CPU time is what a plane costs in work done, and unlike wall
// time it does not grow when other processes take the CPUs. Each pair
// compares two runs taken moments apart, so a change in machine load
// partway through skews at most the pair that straddles it.
func pairedOverhead(reps int, run func(on bool) int64) (offNS, onNS int64, pct float64) {
	offNS, onNS = 1<<62-1, 1<<62-1
	timed := func(on bool) (cpu int64) {
		c0 := processCPUNS()
		wall := run(on)
		cpu = processCPUNS() - c0
		if on {
			onNS = min(onNS, wall)
		} else {
			offNS = min(offNS, wall)
		}
		return cpu
	}
	diffs := make([]float64, reps)
	for i := range diffs {
		var off, on int64
		if i%2 == 0 {
			off = timed(false)
			on = timed(true)
		} else {
			on = timed(true)
			off = timed(false)
		}
		diffs[i] = 100 * (float64(on) - float64(off)) / float64(max(off, 1))
	}
	sort.Float64s(diffs)
	return offNS, onNS, diffs[reps/2]
}

// FaultOverheadBench measures what an idle fault plane costs: the same
// workload with Config.Faults nil versus armed with an empty plan. The
// hooks are a nil check on the hot path, so the armed run must stay
// within noise (the acceptance bar is 2%). DisabledNS and ArmedNS are
// best-of wall times; OverheadPct is the median paired difference in
// process CPU time (see pairedOverhead).
type FaultOverheadBench struct {
	Reps        int     `json:"reps"`
	DisabledNS  int64   `json:"disabled_ns"`
	ArmedNS     int64   `json:"armed_ns"`
	OverheadPct float64 `json:"overhead_pct"`
}

// MeasureFaultOverhead runs the paired disabled/armed comparison on
// the native GpH runtime (see pairedOverhead).
func MeasureFaultOverhead() *FaultOverheadBench {
	const n, chunks = 3000, 96
	want := euler.SumTotientSieve(n)
	run := func(armed bool) int64 {
		cfg := native.NewConfig(4)
		if armed {
			cfg.Faults = faults.NewInjector(nil)
		}
		res, err := native.Run(cfg, euler.Program(n, chunks, 0, true))
		if err != nil {
			panic(fmt.Sprintf("experiments: fault-overhead run failed: %v", err))
		}
		if res.Value.(int64) != want {
			panic("experiments: fault-overhead run computed a wrong result")
		}
		return res.WallNS
	}
	b := &FaultOverheadBench{Reps: overheadReps}
	b.DisabledNS, b.ArmedNS, b.OverheadPct = pairedOverhead(overheadReps, run)
	return b
}

// String renders the overhead comparison.
func (b *FaultOverheadBench) String() string {
	return fmt.Sprintf("Fault-plane overhead (disabled vs armed-empty, %d paired runs):\n  disabled %s | armed %s (best of each) | CPU overhead %+.2f%% (median pair)\n",
		b.Reps, stats.Seconds(b.DisabledNS), stats.Seconds(b.ArmedNS), b.OverheadPct)
}
