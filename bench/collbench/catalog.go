package main

// The metric catalogue. BENCHMARK.json at the repository root declares the
// same names, units and directions (collbench_test.go holds the two in
// step); regression bounds live only there, and compare reads them from it.
//
// Every metric here is reported by every workload, so one name means one
// quantity per workload kind: an apps workload's unit of work is one run of
// one Table 5 program, a service workload's is one HTTP request. The two
// time metrics are ratios to a host-speed reference timed alongside the
// workload (reference.go). bench/README.md defines each metric per kind.
// Quantities that exist in one kind only (per-program times, per-op
// latencies, HTTP self time, open-loop latency, generator lateness) and the
// raw times behind the ratios are reported as detail rows.

// metricDef is one catalogue entry. Moves is set for per-layer metrics only:
// the end-to-end metric and workload the layer metric should move.
type metricDef struct {
	Name, Unit, Better string
	Moves              string
}

// endToEnd lists the metrics a user of the system sees, reported untraced.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "time_x", Unit: "x", Better: "lower"},
	{Name: "latency_x", Unit: "x", Better: "lower"},
	{Name: "peak_mem_mb", Unit: "MB", Better: "lower"},
	{Name: "alloc_kb", Unit: "KB", Better: "lower"},
}

// perLayer lists the single-layer metrics, reported by the traced run.
// Counts are per measured pass (apps) or per second (service).
var perLayer = []metricDef{
	{Name: "tail_ms", Unit: "ms", Better: "lower", Moves: "latency_x on every workload: its tail, too noisy on this host to bound"},
	{Name: "runtime.live_heap_mb", Unit: "MB", Better: "lower", Moves: "peak_mem_mb on apps-adaptive and apps-pinned"},
	{Name: "core.new_ns", Unit: "ns", Better: "lower", Moves: "time_x on apps-adaptive and service-write"},
	{Name: "core.record_tax_ns.procs1", Unit: "ns", Better: "lower", Moves: "time_x on apps-adaptive"},
	{Name: "core.record_tax_ns.procs2", Unit: "ns", Better: "lower", Moves: "time_x on service-scan and service-write"},
	{Name: "core.decide_ns.w100", Unit: "ns", Better: "lower", Moves: "core.analysis_pass_us.p50, hence time_x on apps-adaptive"},
	{Name: "collections.bare_op_ns", Unit: "ns", Better: "lower", Moves: "time_x on apps-pinned and apps-adaptive"},
	{Name: "core.monitor_tax_pct", Unit: "%", Better: "lower", Moves: "time_x on apps-adaptive only"},
	{Name: "core.instances_created", Unit: "count", Better: "lower", Moves: "time_x on apps-adaptive and service-write"},
	{Name: "core.instances_monitored", Unit: "count", Better: "lower", Moves: "time_x on apps-adaptive and service-write"},
	{Name: "core.monitored_fraction", Unit: "fraction", Better: "lower", Moves: "time_x on apps-adaptive and service-write"},
	{Name: "core.windows_closed", Unit: "count", Better: "higher", Moves: "time_x and peak_mem_mb on apps-adaptive, time_x on service-scan"},
	{Name: "core.rule_evaluations", Unit: "count", Better: "higher", Moves: "time_x and peak_mem_mb on apps-adaptive, time_x on service-scan"},
	{Name: "core.transitions", Unit: "count", Better: "higher", Moves: "time_x and peak_mem_mb on apps-adaptive, time_x on service-scan"},
	{Name: "core.switch_ratio", Unit: "fraction", Better: "higher", Moves: "time_x and peak_mem_mb on apps-adaptive, time_x on service-scan"},
	{Name: "core.weak_reclaims", Unit: "count", Better: "higher", Moves: "time_x and peak_mem_mb on apps-adaptive, time_x on service-scan"},
	{Name: "core.analysis_passes", Unit: "count", Better: "lower", Moves: "time_x on apps-adaptive, tail_ms on service-scan and service-write"},
	{Name: "core.analysis_pass_us.p50", Unit: "us", Better: "lower", Moves: "time_x on apps-adaptive, tail_ms on service-scan and service-write"},
	{Name: "core.analysis_pass_us.p99", Unit: "us", Better: "lower", Moves: "time_x on apps-adaptive, tail_ms on service-scan and service-write"},
	{Name: "core.self_overhead_fraction", Unit: "fraction", Better: "lower", Moves: "time_x on service-scan and service-write"},
	{Name: "obs.events", Unit: "count", Better: "lower", Moves: "time_x on apps-adaptive"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "peak_mem_mb and alloc_kb on apps-adaptive and apps-pinned, tail_ms on service-scan and service-write"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "latency_x and its tail_ms on service-scan and service-write"},
	{Name: "runtime.gc_cpu_fraction", Unit: "fraction", Better: "lower", Moves: "alloc_kb and time_x on every workload"},
	{Name: "proc.program_cpu_cores", Unit: "cores", Better: "lower", Moves: "time_x on service-scan and service-write"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "time_x on every workload while tracing is on: the trust in this list"},
}

// workloadNames lists the workloads in run order.
var workloadNames = []string{"apps-adaptive", "apps-pinned", "service-scan", "service-write"}
