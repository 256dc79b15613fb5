package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"parhask/internal/eventlog"
	"parhask/internal/metrics"
	"parhask/internal/native"
	"parhask/internal/stats"
	"parhask/internal/workloads/euler"
)

// ServiceTelemetry cross-checks the server's own telemetry against the
// client's ground truth: during the sustained phase the bench scrapes
// the live /metrics endpoint, then compares the histogram-derived
// latency quantiles with the percentiles it measured client-side. The
// registry's log-bucketed histograms bound quantile error at 1/16
// (6.25%), so a >10% disagreement means the plane is lying, not noisy.
type ServiceTelemetry struct {
	// ScrapeOK is false if the final /metrics fetch or parse failed
	// (every other field is then meaningless).
	ScrapeOK bool `json:"scrape_ok"`
	// Scrapes counts successful mid-load expositions — the plane was
	// read concurrently with the traffic it was measuring.
	Scrapes int `json:"scrapes"`
	// Server quantiles come from the scraped _p50/_p99 gauges; client
	// quantiles from the bench's own sorted latencies (same rank
	// convention as the histogram: ceil(q*N)).
	ServerP50NS int64   `json:"server_p50_ns"`
	ServerP99NS int64   `json:"server_p99_ns"`
	ClientP50NS int64   `json:"client_p50_ns"`
	ClientP99NS int64   `json:"client_p99_ns"`
	P50DeltaPct float64 `json:"p50_delta_pct"`
	P99DeltaPct float64 `json:"p99_delta_pct"`
	// JobsTotalOK is the scraped serve_jobs_total{outcome="ok"} — it
	// must equal the sustained phase's completed-job count exactly.
	JobsTotalOK float64 `json:"jobs_total_ok"`
	// PoisonedClaims is the scraped native_pool_poisoned_claims_total —
	// zero under fault-free traffic, or workers are dying silently.
	PoisonedClaims float64 `json:"poisoned_claims"`
	// TracedJob reports that one request submitted with "trace":true
	// came back with a fetchable dump that reconstructed to a per-agent
	// timeline; TraceAgents is that timeline's agent count.
	TracedJob   bool `json:"traced_job"`
	TraceAgents int  `json:"trace_agents,omitempty"`
}

// scrapeMetrics fetches and parses one /metrics exposition.
func scrapeMetrics(baseURL string) (map[string]float64, error) {
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return metrics.ParseProm(resp.Body)
}

// fetchTraceDump pulls one stored per-job trace from the live server.
func fetchTraceDump(baseURL, id string) (*eventlog.Dump, error) {
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(baseURL + "/api/v1/trace?id=" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /api/v1/trace: %s", resp.Status)
	}
	var d eventlog.Dump
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return nil, err
	}
	return &d, nil
}

// pctRank picks the order statistic the registry histograms report:
// rank ceil(q*N) over a sorted sample.
func pctRank(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// deltaPct is the relative disagreement of got against want, in percent.
func deltaPct(got, want int64) float64 {
	if want <= 0 {
		return 0
	}
	return 100 * math.Abs(float64(got)-float64(want)) / float64(want)
}

// String renders the cross-check verdict.
func (t *ServiceTelemetry) String() string {
	if !t.ScrapeOK {
		return "telemetry: /metrics scrape FAILED\n"
	}
	return fmt.Sprintf("telemetry (%d mid-load scrapes): server p50 %s vs client %s (%.1f%%) | server p99 %s vs client %s (%.1f%%) | jobs_total ok=%.0f | poisoned=%.0f | traced job: %v\n",
		t.Scrapes,
		stats.Seconds(t.ServerP50NS), stats.Seconds(t.ClientP50NS), t.P50DeltaPct,
		stats.Seconds(t.ServerP99NS), stats.Seconds(t.ClientP99NS), t.P99DeltaPct,
		t.JobsTotalOK, t.PoisonedClaims, t.TracedJob)
}

// MetricsOverheadBench measures what the metrics plane costs the native
// pool: the same workload with Config.Metrics nil versus a live
// registry. The enabled path is sharded atomics; the disabled path is a
// nil check — it must stay within noise of no plane at all. DisabledNS
// and EnabledNS are best-of wall times; OverheadPct is the median
// paired difference in process CPU time (see pairedOverhead).
type MetricsOverheadBench struct {
	Reps        int     `json:"reps"`
	DisabledNS  int64   `json:"disabled_ns"`
	EnabledNS   int64   `json:"enabled_ns"`
	OverheadPct float64 `json:"overhead_pct"`
}

// MeasureMetricsOverhead runs the paired disabled/enabled comparison
// on the resident pool (see pairedOverhead), mirroring
// MeasureFaultOverhead.
func MeasureMetricsOverhead() *MetricsOverheadBench {
	const n, chunks = 3000, 96
	want := euler.SumTotientSieve(n)
	run := func(enabled bool) int64 {
		cfg := native.NewConfig(4)
		if enabled {
			cfg.Metrics = metrics.New()
		}
		p := native.NewPool(cfg)
		defer p.Close()
		h, err := p.Submit(native.JobConfig{}, euler.Program(n, chunks, 0, true))
		if err != nil {
			panic(fmt.Sprintf("experiments: metrics-overhead submit failed: %v", err))
		}
		res, err := h.Wait()
		if err != nil {
			panic(fmt.Sprintf("experiments: metrics-overhead run failed: %v", err))
		}
		if res.Value.(int64) != want {
			panic("experiments: metrics-overhead run computed a wrong result")
		}
		return res.WallNS
	}
	b := &MetricsOverheadBench{Reps: overheadReps}
	b.DisabledNS, b.EnabledNS, b.OverheadPct = pairedOverhead(overheadReps, run)
	return b
}

// String renders the overhead comparison.
func (b *MetricsOverheadBench) String() string {
	return fmt.Sprintf("Metrics-plane overhead (disabled vs live registry, %d paired runs):\n  disabled %s | enabled %s (best of each) | CPU overhead %+.2f%% (median pair)\n",
		b.Reps, stats.Seconds(b.DisabledNS), stats.Seconds(b.EnabledNS), b.OverheadPct)
}
