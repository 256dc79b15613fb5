package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"parhask/internal/cluster"
)

// TestMain dispatches the child processes the benchmark starts: cluster
// workers and its own children re-execute the test binary.
func TestMain(m *testing.M) {
	cluster.MaybeWorker()
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(childMain(mode))
	}
	os.Exit(m.Run())
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runCLI(t *testing.T, args ...string) resultLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--scale", "tiny", "--out", t.TempDir())
	if code := cli(args, &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &top); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if len(top) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", top)
	}
	var r resultLine
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTinyPassPrintsEveryMetric runs every workload at tiny scale,
// untraced and traced, and checks that each prints exactly its declared
// metrics with their units and no failures.
func TestTinyPassPrintsEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			r := runCLI(t, "--workload", w, "--seed", "3", "--seconds", "0.3", "--trace", trace)
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%s: correct=%t attempted=%d failed=%d", w, trace, r.Correct, r.Attempted, r.Failed)
			}
			specs := endToEnd
			if trace == "1" {
				specs = perLayer
			}
			if len(r.Metrics) != len(specs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, trace, len(r.Metrics), len(specs))
			}
			for _, m := range specs {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
			}
			if trace == "0" {
				for _, m := range specs {
					if r.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", w, m.Name, r.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestWrongAnswerIsFailedNotTimed gives every workload wrong expected
// answers: each checked operation must count as failed, none may be
// timed, and the run must not report itself correct.
func TestWrongAnswerIsFailedNotTimed(t *testing.T) {
	for _, w := range workloadNames() {
		cfg := config{Workload: w, Seed: 5, Seconds: 0.2, Scale: "tiny", OutDir: t.TempDir(), Corrupt: true}
		res, err := bench(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.attempted == 0 || res.failed != res.attempted {
			t.Errorf("%s: attempted=%d failed=%d, want every operation failed", w, res.attempted, res.failed)
		}
		if v := res.metrics["op_ms"]; v != 0 {
			t.Errorf("%s: a failed operation was timed: op_ms=%g", w, v)
		}
		cfg.Trace = true
		res, err = bench(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", w, err)
		}
		if v := res.metrics["failed_frac"]; v != 1 {
			t.Errorf("%s: failed_frac=%g, want 1", w, v)
		}
	}
}

// TestSpecsMatchBenchmarkJSON keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames(), " ") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	for _, c := range []struct {
		name      string
		got, want []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		g, _ := json.Marshal(c.got)
		w, _ := json.Marshal(c.want)
		if !bytes.Equal(g, w) {
			t.Errorf("BENCHMARK.json %s differs from the benchmark's metrics:\n got %s\nwant %s", c.name, g, w)
		}
	}
}

// TestQuantileMatchesPython pins the quartile rule to Python's
// statistics.quantiles(values, n=4).
func TestQuantileMatchesPython(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}} {
		if got := quantile(s, c.p); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

// TestSelfTime checks that a span's self time excludes the union of
// its children, overlapping or not.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.place(0, "op", "bench", 0, 100)
	http := tr.place(root, "call", "serve.http", 10, 90)
	tr.place(http, "q", "serve.queue", 20, 40)
	tr.place(http, "r", "serve.run", 30, 60)
	got := tr.selfTimes()
	want := map[string]float64{"bench": 20e-9, "serve.http": 40e-9, "serve.queue": 20e-9, "serve.run": 30e-9}
	for k, v := range want {
		if d := got[k] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("self time of %s = %g, want %g", k, got[k], v)
		}
	}
}
