package apsp

import (
	"testing"
	"testing/quick"

	"parhask/internal/eden"
	"parhask/internal/gph"
)

type nopCtx struct{ burned, alloced int64 }

func (n *nopCtx) Burn(ns int64) { n.burned += ns }
func (n *nopCtx) Alloc(b int64) { n.alloced += b }

func TestFloydWarshallSmallKnown(t *testing.T) {
	// 0 -> 1 (1), 1 -> 2 (2), 0 -> 2 (10): shortest 0->2 is 3.
	g := Graph{
		{0, 1, 10},
		{Inf, 0, 2},
		{Inf, Inf, 0},
	}
	d := FloydWarshall(g)
	if d[0][2] != 3 {
		t.Fatalf("d[0][2] = %d, want 3", d[0][2])
	}
	if d[2][0] != Inf {
		t.Fatalf("d[2][0] = %d, want Inf", d[2][0])
	}
}

func TestUpdateRowMatchesOracleStage(t *testing.T) {
	g := RandomGraph(12, 3, 9, 40)
	// Apply stage 0 manually via UpdateRow to every row and compare
	// against one FW iteration.
	want := Clone(g)
	for i := 0; i < 12; i++ {
		if w := want[i][0]; w < Inf {
			for j := 0; j < 12; j++ {
				if alt := w + want[0][j]; alt < want[i][j] {
					want[i][j] = alt
				}
			}
		}
	}
	ctx := &nopCtx{}
	pivot := append([]int32(nil), g[0]...)
	for i := 0; i < 12; i++ {
		got := UpdateRow(ctx, 1, g[i], pivot, 0)
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("row %d col %d: %d != %d", i, j, got[j], want[i][j])
			}
		}
	}
}

// TestUpdateRowCopiesOnlyOnChange: a row no element of which improves
// comes back as the same slice without allocating; an improved row is a
// fresh copy and the input is untouched. The charges are the same
// either way (the simulator's goldens depend on them).
func TestUpdateRowCopiesOnlyOnChange(t *testing.T) {
	row := []int32{5, 0, 3, 9}
	pivot := []int32{7, 2, 0, 1} // row[2]+pivot[j] = 10, 5, 3, 4
	ctx := &nopCtx{}
	same := []int32{5, 0, 3, 4}
	if got := UpdateRow(ctx, 1, same, pivot, 2); &got[0] != &same[0] {
		t.Fatal("unchanged row was copied")
	}
	if allocs := testing.AllocsPerRun(100, func() { UpdateRow(ctx, 1, same, pivot, 2) }); allocs != 0 {
		t.Fatalf("unchanged row: %v allocs, want 0", allocs)
	}
	got := UpdateRow(ctx, 1, row, pivot, 2)
	if &got[0] == &row[0] {
		t.Fatal("improved row was updated in place")
	}
	if want := []int32{5, 0, 3, 4}; !Equal(Graph{got}, Graph{want}) {
		t.Fatalf("updated row = %v, want %v", got, want)
	}
	if row[3] != 9 {
		t.Fatalf("input row mutated: %v", row)
	}
	unreachable := []int32{1, 1, Inf, 1}
	if got := UpdateRow(ctx, 1, unreachable, pivot, 2); &got[0] != &unreachable[0] {
		t.Fatal("row with no path to the pivot was copied")
	}
	ctx = &nopCtx{}
	UpdateRow(ctx, 3, same, pivot, 2)
	UpdateRow(ctx, 3, row, pivot, 2)
	if ctx.burned != 2*4*3 || ctx.alloced != 2*(4*AllocPerElem+24) {
		t.Fatalf("charges burned=%d alloced=%d", ctx.burned, ctx.alloced)
	}
}

func TestSeqProgramMatchesOracle(t *testing.T) {
	g := RandomGraph(24, 5, 9, 30)
	want := FloydWarshall(g)
	cfg := gph.WorkStealingConfig(1)
	res, err := gph.Run(cfg, SeqProgram(g, cfg.Costs.MinPlus))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(res.Value.(Graph), want) {
		t.Fatal("sequential program differs from oracle")
	}
}

func TestGpHProgramCorrectBothPolicies(t *testing.T) {
	g := RandomGraph(24, 7, 9, 30)
	want := FloydWarshall(g)
	for _, eager := range []bool{false, true} {
		for _, cores := range []int{1, 4} {
			cfg := gph.WorkStealingConfig(cores)
			cfg.EagerBlackholing = eager
			cfg.ResidentBytes = 2 * Bytes(24)
			res, err := gph.Run(cfg, GpHProgram(g, cfg.Costs.MinPlus))
			if err != nil {
				t.Fatalf("eager=%v cores=%d: %v", eager, cores, err)
			}
			if !Equal(res.Value.(Graph), want) {
				t.Fatalf("eager=%v cores=%d: wrong distances", eager, cores)
			}
		}
	}
}

func TestLazyBlackholingDuplicatesOnAPSP(t *testing.T) {
	g := RandomGraph(32, 11, 9, 30)
	mk := func(eager bool) *gph.Result {
		cfg := gph.WorkStealingConfig(8)
		cfg.EagerBlackholing = eager
		res, err := gph.Run(cfg, GpHProgram(g, cfg.Costs.MinPlus))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lazy, eager := mk(false), mk(true)
	if lazy.Stats.DupEntries == 0 {
		t.Fatal("lazy black-holing produced no duplicate entries on the shared lattice")
	}
	if eager.Stats.DupEntries != 0 {
		t.Fatalf("eager black-holing produced %d duplicates", eager.Stats.DupEntries)
	}
}

func TestEdenRingMatchesOracle(t *testing.T) {
	g := RandomGraph(30, 13, 9, 30)
	want := FloydWarshall(g)
	for _, p := range []int{1, 2, 3, 5} {
		cfg := eden.NewConfig(p+1, 8)
		res, err := eden.Run(cfg, EdenRingProgram(g, p, cfg.Costs.MinPlus))
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !Equal(res.Value.(Graph), want) {
			t.Fatalf("p=%d: wrong distances", p)
		}
	}
}

func TestEdenRingPipelines(t *testing.T) {
	// With p nodes, each pivot row crosses p-1 edges: n*(p-1) pivot
	// messages (plus inputs/results/closes).
	const n, p = 40, 4
	g := RandomGraph(n, 17, 9, 30)
	cfg := eden.NewConfig(p+1, 8)
	res, err := eden.Run(cfg, EdenRingProgram(g, p, cfg.Costs.MinPlus))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Messages < n*(p-1) {
		t.Fatalf("messages = %d, want >= %d", res.Stats.Messages, n*(p-1))
	}
}

func TestEdenRingSpeedup(t *testing.T) {
	// Needs paper-scale rows for the per-stage compute to dominate the
	// per-stage ring communication (n=96 genuinely does not speed up).
	g := RandomGraph(240, 19, 9, 30)
	mk := func(p, cores int) int64 {
		cfg := eden.NewConfig(p+1, cores)
		res, err := eden.Run(cfg, EdenRingProgram(g, p, cfg.Costs.MinPlus))
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	t1 := mk(1, 1)
	t8 := mk(8, 8)
	if sp := float64(t1) / float64(t8); sp < 2.5 {
		t.Fatalf("ring speedup = %.2f (t1=%d t8=%d), want >= 2.5", sp, t1, t8)
	}
}

func TestRandomGraphDeterministic(t *testing.T) {
	a := RandomGraph(20, 42, 9, 30)
	b := RandomGraph(20, 42, 9, 30)
	if !Equal(a, b) {
		t.Fatal("RandomGraph not deterministic")
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	// After FW, d[i][j] <= d[i][k] + d[k][j] for all i,j,k.
	f := func(seed uint64) bool {
		g := RandomGraph(12, seed, 9, 35)
		d := FloydWarshall(g)
		for i := 0; i < 12; i++ {
			for j := 0; j < 12; j++ {
				for k := 0; k < 12; k++ {
					if d[i][k] < Inf && d[k][j] < Inf && d[i][j] > d[i][k]+d[k][j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFWIdempotentProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := RandomGraph(10, seed, 9, 30)
		d1 := FloydWarshall(g)
		d2 := FloydWarshall(d1)
		return Equal(d1, d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStronglyConnected(t *testing.T) {
	d := FloydWarshall(RandomGraph(25, 23, 9, 10))
	for i := range d {
		for j := range d[i] {
			if d[i][j] >= Inf {
				t.Fatalf("d[%d][%d] unreachable; graph should be strongly connected", i, j)
			}
		}
	}
}
