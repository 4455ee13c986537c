package main

// metricDef names one reported metric. Bound is the share of the base
// median by which an end-to-end metric may worsen before a change counts
// as a regression; Floor is an absolute change, in the metric's unit,
// below which a worsening never counts. BENCHMARK.json carries the same
// names, units, directions and bounds (TestBenchmarkJSONMatches).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Floor  float64
}

// endToEnd are the metrics a user of powder sees, reported by every
// workload from untraced reps.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.010},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Floor: 0.2},
	{Name: "reduction_pct", Unit: "%", Better: "higher", Bound: 0.005},
	{Name: "heldout_reduction_pct", Unit: "%", Better: "higher", Bound: 0.01},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20, Floor: 4},
}

// perLayer are the single-layer metrics of the traced pass, named by
// module. Every workload reports every one of them: kernel replays run on
// each workload's own initial netlists, and the engine counters of the
// daemon workload come from an in-process replay of its cache-miss jobs.
var perLayer = []metricDef{
	{Name: "transform.ab_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.stem_obs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "transform.c_per_s", Unit: "1/s", Better: "higher"},
	{Name: "transform.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "power.estimate_ms", Unit: "ms", Better: "lower"},
	{Name: "power.heldout_estimate_ms", Unit: "ms", Better: "lower"},
	{Name: "sta.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "atpg.checks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "atpg.permissible_frac", Unit: "ratio", Better: "higher"},
	{Name: "atpg.equiv_ms", Unit: "ms", Better: "lower"},
	{Name: "sat.conflicts_per_check", Unit: "count", Better: "lower"},
	{Name: "partition.decompose_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.regions", Unit: "count", Better: "higher"},
	{Name: "blif.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "blif.write_ms", Unit: "ms", Better: "lower"},
	{Name: "netlist.structhash_ms", Unit: "ms", Better: "lower"},
	{Name: "activity.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "activity.bind_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase.ab-analysis_s", Unit: "s", Better: "lower"},
	{Name: "core.phase.atpg-check_s", Unit: "s", Better: "lower"},
	{Name: "core.phase.pgc-reestimate_s", Unit: "s", Better: "lower"},
	{Name: "core.phase.preselect_s", Unit: "s", Better: "lower"},
	{Name: "core.phase.harvest_s", Unit: "s", Better: "lower"},
	{Name: "core.candidates", Unit: "count", Better: "lower"},
	{Name: "core.stale_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.applied_per_check", Unit: "ratio", Better: "higher"},
	{Name: "go.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "go.mallocs", Unit: "count", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}
