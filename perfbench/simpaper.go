package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	"parhask/internal/eden"
	"parhask/internal/gph"
	"parhask/internal/graph"
	"parhask/internal/workloads/apsp"
	"parhask/internal/workloads/euler"
	"parhask/internal/workloads/matmul"
)

// simScale sizes sim-paper: reduced versions of the paper's Fig. 1, 3
// and 5 inputs, all on the paper's 8-core machine.
type simScale struct {
	EulerN, EulerChunks, MatN, MatBlock, APSPN int
}

var simScales = map[string]simScale{
	"full": {EulerN: 1200, EulerChunks: 24, MatN: 96, MatBlock: 24, APSPN: 80},
	"tiny": {EulerN: 300, EulerChunks: 12, MatN: 24, MatBlock: 8, APSPN: 16},
}

const simCores = 8

// simInputs are one run's seeded inputs and oracle answers.
type simInputs struct {
	sc            simScale
	a, b, matWant matmul.Mat
	g, apspWant   apsp.Graph
	eulerWant     int64
}

// simOutcome is what one simulated configuration produced: the virtual
// elapsed time and counters the golden file pins, and the answer.
type simOutcome struct {
	Elapsed int64           `json:"elapsed"`
	Stats   json.RawMessage `json:"stats"`
	value   graph.Value
}

// simConfig is one simulated runtime configuration of the paper.
type simConfig struct {
	name  string
	entry string // the simulator entry point run calls
	run   func(in *simInputs) (*simOutcome, error)
	check func(in *simInputs, v graph.Value) bool
}

func gphOutcome(res *gph.Result, err error) (*simOutcome, error) {
	if err != nil {
		return nil, err
	}
	st, err := json.Marshal(res.Stats)
	return &simOutcome{Elapsed: res.Elapsed, Stats: st, value: res.Value}, err
}

func edenOutcome(res *eden.Result, err error) (*simOutcome, error) {
	if err != nil {
		return nil, err
	}
	st, err := json.Marshal(res.Stats)
	return &simOutcome{Elapsed: res.Elapsed, Stats: st, value: res.Value}, err
}

// gphVariant is one of the paper's GpH runtime versions.
type gphVariant struct {
	name string
	make func(cores int) gph.Config
}

// fig1Variants are Fig. 1's GpH rows, each improving on the last.
var fig1Variants = []gphVariant{
	{"plain", gph.PlainGHC69},
	{"bigalloc", gph.BigAllocArea},
	{"gcsync", gph.ImprovedSync},
	{"steal", gph.WorkStealingConfig},
}

// fig5Variants cross black-holing with work distribution, as Fig. 5 does.
var fig5Variants = []struct {
	gphVariant
	eager bool
}{
	{gphVariant{"lazy", gph.ImprovedSync}, false},
	{gphVariant{"eager", gph.ImprovedSync}, true},
	{gphVariant{"steal_lazy", gph.WorkStealingConfig}, false},
	{gphVariant{"steal_eager", gph.WorkStealingConfig}, true},
}

// simConfigs are sim-paper's configurations: sumEuler (Fig. 1),
// matrix multiplication (Fig. 3) and shortest paths (Fig. 5) under the
// GpH variants and Eden, at 8 cores.
var simConfigs = func() []simConfig {
	eulerOK := func(in *simInputs, v graph.Value) bool { return v == in.eulerWant }
	matOK := func(in *simInputs, v graph.Value) bool {
		m, ok := v.(matmul.Mat)
		return ok && matmul.Equal(m, in.matWant, 1e-9)
	}
	apspOK := func(in *simInputs, v graph.Value) bool {
		g, ok := v.(apsp.Graph)
		return ok && apsp.Equal(g, in.apspWant)
	}
	var cs []simConfig
	for _, v := range fig1Variants {
		cs = append(cs, simConfig{"fig1." + v.name, "gph.Run", func(in *simInputs) (*simOutcome, error) {
			cfg := v.make(simCores)
			return gphOutcome(gph.Run(cfg, euler.GpHProgram(in.sc.EulerN, in.sc.EulerChunks, cfg.Costs.GCDIter)))
		}, eulerOK})
	}
	cs = append(cs, simConfig{"fig1.eden", "eden.Run", func(in *simInputs) (*simOutcome, error) {
		cfg := eden.NewConfig(simCores, simCores)
		return edenOutcome(eden.Run(cfg, euler.EdenProgram(in.sc.EulerN, 8, cfg.Costs.GCDIter)))
	}, eulerOK})
	for _, v := range fig1Variants {
		cs = append(cs, simConfig{"fig3.matmul." + v.name, "gph.Run", func(in *simInputs) (*simOutcome, error) {
			cfg := v.make(simCores)
			cfg.ResidentBytes = 3 * matmul.Bytes(in.sc.MatN)
			return gphOutcome(gph.Run(cfg, matmul.GpHBlockProgram(in.a, in.b, in.sc.MatBlock, cfg.Costs.MulAdd)))
		}, matOK})
	}
	cs = append(cs, simConfig{"fig3.matmul.eden", "eden.Run", func(in *simInputs) (*simOutcome, error) {
		const q = 3 // the smallest torus with q*q >= 8 cores
		cfg := eden.NewConfig(q*q+1, simCores)
		return edenOutcome(eden.Run(cfg, matmul.EdenCannonProgram(in.a, in.b, q, cfg.Costs.MulAdd)))
	}, matOK})
	for _, v := range fig5Variants {
		cs = append(cs, simConfig{"fig5." + v.name, "gph.Run", func(in *simInputs) (*simOutcome, error) {
			cfg := v.make(simCores)
			cfg.EagerBlackholing = v.eager
			cfg.ResidentBytes = 2 * apsp.Bytes(in.sc.APSPN)
			return gphOutcome(gph.Run(cfg, apsp.GpHProgram(in.g, cfg.Costs.MinPlus)))
		}, apspOK})
	}
	cs = append(cs, simConfig{"fig5.eden", "eden.Run", func(in *simInputs) (*simOutcome, error) {
		cfg := eden.NewConfig(simCores+1, simCores)
		return edenOutcome(eden.Run(cfg, apsp.EdenRingProgram(in.g, simCores, cfg.Costs.MinPlus)))
	}, apspOK})
	return cs
}()

// simGoldenJSON pins every configuration's virtual elapsed time and
// counters, per scale, as this code produced them. The simulator is
// deterministic and its virtual costs do not depend on the input
// values, so the same golden holds for every seed.
//
//go:embed sim_golden.json
var simGoldenJSON []byte

type simGolden map[string]map[string]*simOutcome // scale -> config -> outcome

func newSimInputs(sc simScale, seed uint64) *simInputs {
	in := &simInputs{sc: sc}
	in.a, in.b = matmul.Random(sc.MatN, seed), matmul.Random(sc.MatN, seed+1)
	in.matWant = matmul.MulOracle(in.a, in.b)
	in.g = apsp.RandomGraph(sc.APSPN, seed, 9, 25)
	in.apspWant = apsp.FloydWarshall(in.g)
	in.eulerWant = euler.SumTotientSieve(sc.EulerN)
	return in
}

// simPaper runs every simulated configuration in turn; each run is one
// timed operation of the configuration's kind, checked against its
// golden virtual outputs and its oracle.
type simPaper struct {
	in     *simInputs
	golden map[string]*simOutcome
}

func newSimPaper(cfg config) (workload, error) {
	var all simGolden
	if err := json.Unmarshal(simGoldenJSON, &all); err != nil {
		return nil, fmt.Errorf("sim golden: %w", err)
	}
	golden := all[cfg.Scale]
	if cfg.Corrupt {
		for name, o := range golden {
			c := *o
			c.Elapsed++
			golden[name] = &c
		}
	}
	s := &simPaper{in: newSimInputs(simScales[cfg.Scale], cfg.Seed), golden: golden}
	// The warm-up pass also fills the φ memo the simulated sumEuler
	// kernels read.
	s.pass(newPhase(nil))
	return s, nil
}

func (s *simPaper) measure(p *phase, d time.Duration) { loop(p, d, func() { s.pass(p) }) }

func (s *simPaper) close() error { return nil }

func (s *simPaper) pass(p *phase) {
	for _, c := range simConfigs {
		s.runConfig(p, c)
	}
}

func (s *simPaper) runConfig(p *phase, c simConfig) {
	root := p.tr.root(c.name)
	defer p.tr.end(root)
	sp := p.tr.begin(root, c.entry, "sim")
	start := time.Now()
	out, err := c.run(s.in)
	d := time.Since(start)
	p.tr.end(sp)
	ck := p.tr.begin(root, "oracle", "oracle")
	if err == nil {
		err = s.verify(c, out)
	}
	p.tr.end(ck)
	if !p.check(err) {
		return
	}
	p.op(c.name, d)
	p.s.add("sim.virtual_s", float64(out.Elapsed)/1e9)
}

func (s *simPaper) verify(c simConfig, out *simOutcome) error {
	if !c.check(s.in, out.value) {
		return fmt.Errorf("sim %s: answer differs from the sequential oracle", c.name)
	}
	g := s.golden[c.name]
	if g == nil {
		return fmt.Errorf("sim %s: no golden outputs", c.name)
	}
	if out.Elapsed != g.Elapsed || !jsonEqual(out.Stats, g.Stats) {
		return fmt.Errorf("sim %s: virtual outputs elapsed=%d stats=%s differ from the golden elapsed=%d stats=%s",
			c.name, out.Elapsed, out.Stats, g.Elapsed, g.Stats)
	}
	return nil
}

func jsonEqual(a, b json.RawMessage) bool {
	var x, y any
	return json.Unmarshal(a, &x) == nil && json.Unmarshal(b, &y) == nil && reflect.DeepEqual(x, y)
}

func (s *simPaper) layers(m metricValues, p *phase) {
	// sim_s is one pass over every configuration, from their medians.
	var wallS float64
	for _, c := range simConfigs {
		m["sim."+c.name+"_s"] = median(p.ops[c.name]) / 1e3
		m["sim_s"] += m["sim."+c.name+"_s"]
		wallS += p.ops.sum(c.name) / 1e3
	}
	m["sim.virtual_per_wall"] = ratio(p.s.sum("sim.virtual_s"), wallS)
}

// recordGolden runs every configuration at every scale with two seeds,
// checks that the virtual outputs do not depend on the seed, and writes
// them to path.
func recordGolden(path string) error {
	all := simGolden{}
	for scale, sc := range simScales {
		all[scale] = map[string]*simOutcome{}
		for _, seed := range []uint64{1, 2} {
			in := newSimInputs(sc, seed)
			for _, c := range simConfigs {
				out, err := c.run(in)
				if err != nil {
					return fmt.Errorf("%s %s: %w", scale, c.name, err)
				}
				if !c.check(in, out.value) {
					return fmt.Errorf("%s %s: answer differs from the oracle", scale, c.name)
				}
				if prev := all[scale][c.name]; prev != nil &&
					(prev.Elapsed != out.Elapsed || !jsonEqual(prev.Stats, out.Stats)) {
					return fmt.Errorf("%s %s: virtual outputs depend on the seed", scale, c.name)
				}
				all[scale][c.name] = out
			}
		}
	}
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
