package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"parhask/internal/stats"
)

// quickGoldenPath holds the text of every simulated figure at Quick()
// scale: what `benchall -quick -models` prints, followed by each run's
// virtual elapsed time in exact nanoseconds (the rendered tables round
// them). The simulator is deterministic, so a kernel or runtime change
// that is meant to be a pure speed-up must leave this file untouched.
const quickGoldenPath = "testdata/quick_figures.txt"

// quickFigures renders the golden text for p.
func quickFigures(p Params) string {
	var b strings.Builder
	exact := func(name string, ns int64) { fmt.Fprintf(&b, "  %s: %d ns\n", name, ns) }
	series := func(ss []*stats.Series) {
		for _, s := range ss {
			cores := make([]int, 0, len(s.Times))
			for c := range s.Times {
				cores = append(cores, c)
			}
			sort.Ints(cores)
			for _, c := range cores {
				exact(fmt.Sprintf("%s @%d", s.Name, c), s.Times[c])
			}
		}
	}
	entries := func(es []TraceEntry) {
		for _, e := range es {
			exact(e.Name, e.Elapsed)
		}
	}

	f1, f2, f3, f4, f5, m := RunFig1(p), RunFig2(p), RunFig3(p), RunFig4(p), RunFig5(p), RunModels(p)
	for _, s := range []fmt.Stringer{f1, f2, f3, f4, f5, m} {
		fmt.Fprintln(&b, s.String())
	}
	fmt.Fprintln(&b, "exact virtual elapsed times")
	for _, r := range f1.Rows {
		exact("fig1 "+r.Name, r.Elapsed)
	}
	entries(f2.Entries)
	series(f3.SumEuler)
	series(f3.MatMul)
	entries(f4.Entries)
	series(f5.Series)
	for _, r := range m.Rows {
		exact("models "+r.Name, r.Elapsed)
	}
	return b.String()
}

// TestQuickFiguresGolden compares every quick-scale figure, byte for
// byte, with the recorded text. It covers paths the perfbench goldens do
// not: Fig. 4's oversubscribed Eden (more PEs than cores, where a
// machine rebalance changes every burner's rate) and GUM. On a mismatch
// the new text is written beside the golden as quick_figures.got; after
// an intended change to the virtual outputs, review the diff and move it
// over the golden.
func TestQuickFiguresGolden(t *testing.T) {
	want, err := os.ReadFile(quickGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(quickFigures(Quick()))
	if bytes.Equal(got, want) {
		return
	}
	gotPath := strings.TrimSuffix(quickGoldenPath, filepath.Ext(quickGoldenPath)) + ".got"
	if err := os.WriteFile(gotPath, got, 0o644); err != nil {
		t.Errorf("write %s: %v", gotPath, err)
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("quick figures differ from %s at line %d (full text in %s):\n got: %q\nwant: %q",
				quickGoldenPath, i+1, gotPath, g, w)
		}
	}
}
