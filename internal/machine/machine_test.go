package machine

import (
	"fmt"
	"testing"

	"parhask/internal/sim"
)

// runBurners spawns one task per work item on a CPU with the given core
// count, each starting at the given offset, and returns the finish time of
// each task in spawn order.
func runBurners(t *testing.T, cores int, items []struct {
	start sim.Time
	work  int64
}) []sim.Time {
	t.Helper()
	s := sim.New(1)
	m := New(s, cores)
	ends := make([]sim.Time, len(items))
	for i, it := range items {
		i, it := i, it
		s.Spawn(fmt.Sprintf("b%d", i), func(tk *sim.Task) {
			if it.start > 0 {
				tk.Advance(it.start)
			}
			m.Burn(tk, it.work)
			ends[i] = tk.Now()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return ends
}

func TestSingleBurnerFullSpeed(t *testing.T) {
	ends := runBurners(t, 4, []struct {
		start sim.Time
		work  int64
	}{{0, 1000}})
	if ends[0] != 1000 {
		t.Fatalf("end = %d, want 1000", ends[0])
	}
}

func TestTwoBurnersOneCoreShare(t *testing.T) {
	ends := runBurners(t, 1, []struct {
		start sim.Time
		work  int64
	}{{0, 100}, {0, 100}})
	for i, e := range ends {
		if e < 199 || e > 201 {
			t.Fatalf("end[%d] = %d, want ~200", i, e)
		}
	}
}

func TestTwoBurnersTwoCoresNoInterference(t *testing.T) {
	ends := runBurners(t, 2, []struct {
		start sim.Time
		work  int64
	}{{0, 100}, {0, 100}})
	for i, e := range ends {
		if e != 100 {
			t.Fatalf("end[%d] = %d, want 100", i, e)
		}
	}
}

func TestThreeBurnersTwoCores(t *testing.T) {
	// Rate 2/3 each: 300 units of work finish at ~450.
	ends := runBurners(t, 2, []struct {
		start sim.Time
		work  int64
	}{{0, 300}, {0, 300}, {0, 300}})
	for i, e := range ends {
		if e < 448 || e > 452 {
			t.Fatalf("end[%d] = %d, want ~450", i, e)
		}
	}
}

func TestStaggeredArrival(t *testing.T) {
	// 1 core. b0: 100 work from t=0. b1: 100 work from t=50.
	// t=0..50: b0 alone, does 50. t=50..150: both at 1/2, b0 does its
	// remaining 50 (done at 150), b1 does 50. t=150..200: b1 alone.
	ends := runBurners(t, 1, []struct {
		start sim.Time
		work  int64
	}{{0, 100}, {50, 100}})
	if ends[0] < 149 || ends[0] > 151 {
		t.Fatalf("end[0] = %d, want ~150", ends[0])
	}
	if ends[1] < 199 || ends[1] > 201 {
		t.Fatalf("end[1] = %d, want ~200", ends[1])
	}
}

func TestManyVirtualEntities(t *testing.T) {
	// 17 entities on 8 cores, equal work: each runs at 8/17 speed.
	items := make([]struct {
		start sim.Time
		work  int64
	}, 17)
	for i := range items {
		items[i].work = 8000
	}
	ends := runBurners(t, 8, items)
	want := sim.Time(8000 * 17 / 8) // = 17000
	for i, e := range ends {
		if e < want-20 || e > want+20 {
			t.Fatalf("end[%d] = %d, want ~%d", i, e, want)
		}
	}
}

func TestWorkConservation(t *testing.T) {
	// Total busy core-time must equal total work issued, regardless of
	// arrival pattern.
	s := sim.New(1)
	m := New(s, 3)
	var total int64
	for i := 0; i < 10; i++ {
		i := i
		work := int64(100 + 137*i)
		total += work
		s.Spawn(fmt.Sprintf("b%d", i), func(tk *sim.Task) {
			tk.Advance(sim.Time(i * 37))
			m.Burn(tk, work)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	busy := m.BusyTime()
	if busy < float64(total)-5 || busy > float64(total)+5 {
		t.Fatalf("busy = %v, want ~%d", busy, total)
	}
}

func TestZeroWorkIsFree(t *testing.T) {
	s := sim.New(1)
	m := New(s, 1)
	s.Spawn("b", func(tk *sim.Task) {
		m.Burn(tk, 0)
		if tk.Now() != 0 {
			t.Errorf("Burn(0) advanced time to %d", tk.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicUnderContention(t *testing.T) {
	run := func() []sim.Time {
		items := make([]struct {
			start sim.Time
			work  int64
		}, 9)
		for i := range items {
			items[i].start = sim.Time(i * 13)
			items[i].work = int64(500 + i*77)
		}
		return runBurners(t, 4, items)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterminism at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestBurnSequenceOnSameTask(t *testing.T) {
	s := sim.New(1)
	m := New(s, 1)
	s.Spawn("b", func(tk *sim.Task) {
		m.Burn(tk, 100)
		m.Burn(tk, 200)
		if tk.Now() != 300 {
			t.Errorf("now = %d, want 300", tk.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTieOrderAfterUnchangedShare(t *testing.T) {
	// 4 cores, so b joining at 50 leaves a's share at 1, and both finish
	// at 100. The join still wakes a, which re-plans behind b: b finishes
	// first. Skipping the wake-up because the share did not change would
	// keep a's original event and finish a first.
	s := sim.New(1)
	m := New(s, 4)
	var order []string
	burn := func(name string, start sim.Time, work int64) {
		s.Spawn(name, func(tk *sim.Task) {
			tk.Advance(start)
			m.Burn(tk, work)
			order = append(order, fmt.Sprintf("%s@%d", name, tk.Now()))
		})
	}
	burn("a", 1, 99)
	burn("b", 50, 50)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[b@100 a@100]" {
		t.Fatalf("finish order = %s, want [b@100 a@100]", got)
	}
}
