// Package machine models a multicore CPU inside the discrete-event
// simulation.
//
// A CPU has a fixed number of cores. Simulated entities (capability
// worker loops, Eden PEs) consume processor time by calling Burn, which
// advances the calling task through virtual time at the machine's current
// fair share: with k entities burning on c cores, each progresses at rate
// min(1, c/k). This is generalized-processor-sharing (GPS), the standard
// fluid approximation of an OS timeslicing scheduler. When at most c
// entities are runnable — the usual case for a GpH runtime with one
// capability per core — every Burn advances at full speed and the model
// is exact. With more runnable entities than cores — Eden's "virtual PEs",
// e.g. 17 PVM nodes on 8 cores in the paper's Fig. 4 — the model
// reproduces the OS-level timeslicing those runs relied on.
//
// Every change in the set of burners re-rates all of them and wakes each
// sleeping burner so that it re-plans its completion, even when its share
// did not change: the wake-up gives its completion event a fresh sequence
// number, which fixes the order of bursts that end at the same virtual
// time. A burner sleeps in sim.Task.SleepWhile, so these re-plans run in
// the simulation kernel: a burner's task is resumed once, when its work
// is done, however many wake-ups it received.
package machine

import (
	"fmt"
	"math"

	"parhask/internal/sim"
)

// CPU is a simulated multicore processor.
type CPU struct {
	sim   *sim.Sim
	cores int
	// burners is an ordered slice (not a map) so that rebalance wakes
	// entities in a deterministic order — a requirement for reproducible
	// simulations.
	burners []*burner

	// busyIntegral accumulates Σ (active rate × elapsed) so utilisation
	// statistics can be reported; updated lazily at membership changes.
	busyIntegral float64
	lastChange   sim.Time
}

type burner struct {
	t          *sim.Task
	remaining  float64 // ns of work at full speed
	rate       float64 // current share, in (0, 1]
	lastSettle sim.Time
}

// New returns a CPU with the given core count attached to s.
func New(s *sim.Sim, cores int) *CPU {
	if cores <= 0 {
		panic(fmt.Sprintf("machine: invalid core count %d", cores))
	}
	return &CPU{sim: s, cores: cores}
}

// Cores returns the number of cores.
func (m *CPU) Cores() int { return m.cores }

// Runnable returns the number of entities currently burning CPU.
func (m *CPU) Runnable() int { return len(m.burners) }

// BusyTime returns the integral of busy-core-time so far (core·ns).
func (m *CPU) BusyTime() float64 {
	m.accountBusy()
	return m.busyIntegral
}

func (m *CPU) accountBusy() {
	now := m.sim.Now()
	active := float64(len(m.burners))
	if active > float64(m.cores) {
		active = float64(m.cores)
	}
	m.busyIntegral += active * float64(now-m.lastChange)
	m.lastChange = now
}

// Burn consumes `work` nanoseconds of full-speed processor time on behalf
// of task t, blocking t in virtual time until the work completes. The
// elapsed virtual time is work / share, where the share varies as other
// entities start and stop burning.
func (m *CPU) Burn(t *sim.Task, work int64) {
	if work <= 0 {
		return
	}
	b := &burner{t: t, remaining: float64(work), lastSettle: t.Now()}
	m.add(b)
	t.SleepWhile(b.plan)
	m.remove(b)
}

// plan settles b's progress and returns the virtual time it still needs
// at its current rate, or 0 once its work is done.
func (b *burner) plan() sim.Time {
	const eps = 1e-3
	b.settle(b.t.Now())
	if b.remaining <= eps {
		return 0
	}
	eta := sim.Time(math.Ceil(b.remaining / b.rate))
	if eta < 1 {
		eta = 1
	}
	return eta
}

func (b *burner) settle(now sim.Time) {
	elapsed := float64(now - b.lastSettle)
	b.remaining -= elapsed * b.rate
	b.lastSettle = now
}

func (m *CPU) add(b *burner) {
	m.accountBusy()
	m.burners = append(m.burners, b)
	m.rebalance(b)
}

func (m *CPU) remove(b *burner) {
	m.accountBusy()
	for i, x := range m.burners {
		if x == b {
			m.burners = append(m.burners[:i], m.burners[i+1:]...)
			break
		}
	}
	m.rebalance(nil)
}

// rebalance recomputes every burner's share after a membership change and
// wakes sleeping burners so they re-plan their completion. The burner
// `except` (the caller, which is about to compute its own ETA) is settled
// and re-rated but not unparked. Every other burner is unparked even when
// its share is unchanged, which keeps the tie order (see the package doc).
func (m *CPU) rebalance(except *burner) {
	n := len(m.burners)
	if n == 0 {
		return
	}
	rate := 1.0
	if n > m.cores {
		rate = float64(m.cores) / float64(n)
	}
	now := m.sim.Now()
	for _, b := range m.burners {
		b.settle(now)
		b.rate = rate
		if b != except {
			b.t.Unpark()
		}
	}
}
