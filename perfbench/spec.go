package main

import "strings"

// metricSpec names one reported metric; the lists below are the ones
// BENCHMARK.json at the root of the repository declares.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are what a user of each workload sees; every workload reports
// all of them from an untraced run.
var endToEnd = []metricSpec{
	{"op_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"mem_mb", "MB", "lower"},
}

// selfLayers are the layers whose self time a traced run reports.
var selfLayers = []string{
	"bench", "oracle", "kernel", "native", "nativeeden", "cluster", "wire",
	"serve.http", "serve.queue", "serve.run", "sim",
}

// serveKinds is serve-mix's job mix, as workload@backend. sumeuler@eden
// is left out: euler.EdenProgram reads the process-global φ memo, so a
// resident Eden lane would time map lookups after its first job.
var serveKinds = []string{
	"sumeuler@gph", "matmul@gph", "matmul@eden", "apsp@gph",
	"apsp@eden", "mandel@gph", "mandel@eden", "fuzz@gph",
}

// serveKindMetric names a job kind's median run time; metric names
// may not contain '@'.
func serveKindMetric(kind string) string {
	return "serve.run_ms_p50." + strings.Replace(kind, "@", ".", 1)
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload does not exercise reads 0.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		// The ladder rungs and the other workloads' headline figures.
		{"seq_s", "s", "lower"},
		{"gph1_s", "s", "lower"},
		{"gph2_s", "s", "lower"},
		{"eden1_s", "s", "lower"},
		{"eden2_s", "s", "lower"},
		{"cluster2_s", "s", "lower"},
		{"jobs_per_s", "1/s", "higher"},
		{"lat_p50_ms", "ms", "lower"},
		{"lat_p99_ms", "ms", "lower"},
		{"sim_s", "s", "lower"},
		{"failed_frac", "frac", "lower"},
		// native
		{"native.overhead", "x", "lower"},
		{"native.speedup2", "x", "higher"},
		{"native.idle_s", "s", "lower"},
		{"native.steal_hit", "frac", "higher"},
		{"native.converted_frac", "frac", "higher"},
		{"native.blocked_forces", "count", "lower"},
		{"native.cpu_util", "frac", "higher"},
		{"native.gc_cycles", "count", "lower"},
		{"native.gc_pause_ms", "ms", "lower"},
		{"native.alloc_mb", "MB", "lower"},
		{"native.dup_entries", "count", "lower"},
		// nativeeden
		{"eden.overhead", "x", "lower"},
		{"eden.speedup2", "x", "higher"},
		{"eden.messages", "count", "lower"},
		{"eden.mb_sent", "MB", "lower"},
		{"eden.cpu_util", "frac", "higher"},
		{"eden.gc_cycles", "count", "lower"},
		{"eden.alloc_mb", "MB", "lower"},
		{"eden.memo_warm_ratio", "x", "lower"},
		// eden/wire
		{"wire.encode_mb_s", "MB/s", "higher"},
		{"wire.decode_mb_s", "MB/s", "higher"},
		// cluster
		{"cluster.launch_s", "s", "lower"},
		{"cluster.overhead", "x", "lower"},
		{"cluster.dropped_frames", "count", "lower"},
		{"cluster.reconnects", "count", "lower"},
		{"cluster.restarts", "count", "lower"},
		// serve
		{"serve.http_ms_p50", "ms", "lower"},
		{"serve.queue_ms_p50", "ms", "lower"},
		{"serve.run_ms_p50", "ms", "lower"},
	}
	for _, k := range serveKinds {
		m = append(m, metricSpec{serveKindMetric(k), "ms", "lower"})
	}
	m = append(m, metricSpec{"serve.cpu_util", "frac", "higher"})
	// sim
	for _, c := range simConfigs {
		m = append(m, metricSpec{"sim." + c.name + "_s", "s", "lower"})
	}
	m = append(m, metricSpec{"sim.virtual_per_wall", "x", "higher"})
	for _, l := range selfLayers {
		m = append(m, metricSpec{"self." + l + "_s", "s", "lower"})
	}
	return append(m, metricSpec{"trace.overhead_pct", "%", "lower"})
}()
