package nativeeden

import (
	"errors"
	"runtime"
	"sync"
	"time"

	"parhask/internal/eventlog"
	"parhask/internal/faults"
	"parhask/internal/metrics"
	"parhask/internal/pe"
)

// ErrResidentClosed rejects RunJob after Close.
var ErrResidentClosed = errors.New("nativeeden: resident lane closed")

// JobConfig scopes one job on a resident lane.
type JobConfig struct {
	// Deadline arms the per-job watchdog (see Config.Deadline).
	Deadline time.Duration
	// Faults is this job's private fault budget (nil = none).
	Faults *faults.Injector
	// EventLog gives the job a per-PE event ring set of its own.
	EventLog bool
	// EventLogConfig tunes the rings (zero value = defaults).
	EventLogConfig eventlog.Config
	// TraceID, if non-zero, tags PE 0's ring with a TraceMark carrying
	// this id (ignored unless EventLog) — see Config.TraceID.
	TraceID int32
}

// Resident is a resident Eden lane: the PEs — their big locks, their
// thunk arenas, their channel registries — are created once and reused
// across jobs, so a job pays no PE construction and starts on warm
// arenas. One lane runs one job at a time: Eden's failure protocol
// (the run-global abort latch, the quiescence watchdog) is per-run
// state, so intra-lane concurrency would re-introduce exactly the
// cross-job blast radius the resident service exists to remove. For
// concurrent Eden traffic, run several lanes side by side (the serve
// layer keeps a small pool of lanes); jobs within a lane queue on its
// mutex.
//
// Between jobs the lane rewinds each PE's arena and clears its channel
// registries and its inbox. The previous job's threads have all exited
// by then (the run joins them), and its Result carries only
// deep-copied plain values, so no pre-reset thunk is reachable — the
// Arena.Reset contract. A Result's Value must be consumed (or copied) before the
// next RunJob on the same lane.
type Resident struct {
	cfg Config

	mu     sync.Mutex
	pes    []*peRT
	closed bool

	jobsDone   int64
	jobsFailed int64

	// m records the lane's telemetry (nil unless Config.Metrics was
	// set). The series are registered idempotently, so every lane on
	// one registry shares them — the scrape sees the lane fleet as one
	// eden backend, matching how serve treats its lane pool.
	m *laneMetrics
}

// laneMetrics is the shared series set for resident Eden lanes.
type laneMetrics struct {
	jobsOK  *metrics.Counter
	jobsErr *metrics.Counter
	wait    *metrics.Histogram // lane acquisition: RunJob entry → job start
	wall    *metrics.Histogram // job wall time
	msgs    *metrics.Counter
	bytes   *metrics.Counter
}

func newLaneMetrics(reg *metrics.Registry) *laneMetrics {
	return &laneMetrics{
		jobsOK:  reg.Counter("eden_lane_jobs_total", "resident Eden lane jobs by outcome", "outcome", "ok"),
		jobsErr: reg.Counter("eden_lane_jobs_total", "resident Eden lane jobs by outcome", "outcome", "error"),
		wait:    reg.Histogram("eden_lane_wait_seconds", "time a job queued for a lane mutex before starting", 1e-9),
		wall:    reg.Histogram("eden_lane_job_seconds", "wall-clock latency of lane jobs", 1e-9),
		msgs:    reg.Counter("eden_lane_messages_total", "Eden messages sent by lane jobs"),
		bytes:   reg.Counter("eden_lane_bytes_sent_total", "Eden bytes shipped by lane jobs (packing model)"),
	}
}

// NewResident builds a lane with cfg.PEs warm processing elements.
// Config.Deadline/Faults/EventLog become per-job knobs (JobConfig);
// their Config values are ignored here.
func NewResident(cfg Config) *Resident {
	if cfg.PEs <= 0 {
		cfg.PEs = runtime.GOMAXPROCS(0)
	}
	l := &Resident{cfg: cfg}
	l.pes = make([]*peRT, cfg.PEs)
	for i := range l.pes {
		l.pes[i] = newPE(i, cfg.ArenaChunk)
	}
	if cfg.Metrics != nil {
		l.m = newLaneMetrics(cfg.Metrics)
	}
	return l
}

// PEs reports the lane's processing-element count.
func (l *Resident) PEs() int { return l.cfg.PEs }

// RunJob executes main as one job on the lane, blocking until it
// completes (queueing behind any job already running). Each job gets a
// fresh RTS — failure latch, watchdog, channel-id space — over the
// lane's persistent PEs.
func (l *Resident) RunJob(jc JobConfig, main pe.Program) (*Result, error) {
	if main == nil {
		return nil, errors.New("nativeeden: nil job main")
	}
	t0 := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.m != nil {
		// Lane-wait: how long the job queued behind the lane's one-job-
		// at-a-time mutex before it could start.
		l.m.wait.Observe(time.Since(t0).Nanoseconds())
	}
	if l.closed {
		return nil, ErrResidentClosed
	}
	cfg := l.cfg
	cfg.Deadline = jc.Deadline
	cfg.Faults = jc.Faults
	cfg.EventLog = jc.EventLog
	cfg.EventLogConfig = jc.EventLogConfig
	cfg.TraceID = jc.TraceID
	r := &RTS{cfg: cfg, pes: l.pes}
	for _, p := range l.pes {
		p.rts = r
		// The previous job's threads joined before its run returned, so
		// nothing reaches the old arena slots or registry entries. A
		// failed job leaves its inbox unapplied; those deliveries belong
		// to the dead heap and must never reach this job.
		p.resetInbox()
		p.arena.Reset()
		clear(p.cells)
		clear(p.streams)
		clear(p.blockedOn)
		p.ctr = PEStats{} // stats are job-scoped; the arena stays warm
		p.ev = nil        // run re-wires rings if the job asked for them
	}
	res, err := r.run(main)
	if err != nil {
		l.jobsFailed++
	} else {
		l.jobsDone++
	}
	if l.m != nil {
		if err != nil {
			l.m.jobsErr.Inc()
		} else {
			l.m.jobsOK.Inc()
		}
		if res != nil {
			l.m.wall.Observe(res.WallNS)
			l.m.msgs.Add(res.Stats.Messages)
			l.m.bytes.Add(res.Stats.BytesSent)
		}
	}
	return res, err
}

// JobsDone and JobsFailed report completed-job counts.
func (l *Resident) JobsDone() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.jobsDone
}

func (l *Resident) JobsFailed() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.jobsFailed
}

// Close marks the lane unusable; a job in flight finishes first
// (RunJob holds the lane mutex for the job's duration). Idempotent.
func (l *Resident) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
}
