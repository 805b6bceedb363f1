package main

// metric names one number the benchmark reports. BENCHMARK.json at the root
// of the repository lists the same names, units and directions (the smoke
// test holds the two in step) and adds each end-to-end metric's bound.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the simulator sees, reported by every
// untraced run. An op is one chaos scenario, one 64-session fleet batch,
// one long bursty session, or one full odyssey-sim figure pass.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ops_per_s", unit: "ops/s", better: "higher"},
	{name: "op_p50_ms", unit: "ms", better: "lower"},
	{name: "op_tail_ms", unit: "ms", better: "lower"},
	{name: "max_rss_mb", unit: "MiB", better: "lower"},
}

// figureIDs are the odyssey-sim figure ids in the order -figure all runs
// them; the traced run times each one as its own subprocess.
var figureIDs = []string{
	"fig2", "fig4", "fig6", "fig8", "fig10", "fig11", "fig13", "fig14", "fig15", "fig16",
	"fig18", "fig19", "fig20", "fig21", "fig22", "ablations", "measurement", "dvs",
	"quality", "policy", "resilience", "supervision", "offload", "check",
}

// goalWorkloads are the three workloads whose op is an experiment.RunGoal
// session; the traced run measures Go runtime costs on each.
var goalWorkloads = []string{"chaos-soak", "fleet", "long-session"}

// perLayer are the metrics the traced run reports, grouped by the package
// (layer) whose public functions they time from outside. bench/README.md
// names the end-to-end metric and workload each should move.
var perLayer = func() []metric {
	ms := []metric{
		{"sim.event_ns", "ns", "lower"},
		{"sim.switch_ns", "ns", "lower"},
		{"sim.psresource_ns", "ns", "lower"},
		{"sim.switch_allocs", "count", "lower"},
		{"env.rig_us", "us", "lower"},
		{"env.rig_kb", "KiB", "lower"},
		{"trace.newlog_us", "us", "lower"},
		{"trace.newlog_kb", "KiB", "lower"},
		{"trace.record_ms", "ms", "lower"},
		{"trace.events_per_op", "count", "lower"},
		{"experiment.rungoal_ms", "ms", "lower"},
		{"experiment.rungoal_alloc_mb", "MiB", "lower"},
		{"chaos.generate_us", "us", "lower"},
		{"chaos.run_ms", "ms", "lower"},
		{"chaos.audit_ms", "ms", "lower"},
		{"chaos.rerun_frac", "frac", "lower"},
		{"chaos.violations", "count", "lower"},
		{"fleet.derive_us", "us", "lower"},
		{"fleet.merge_us", "us", "lower"},
		{"fleet.scorecard_ms", "ms", "lower"},
		{"fleet.overhead_frac", "frac", "lower"},
		{"offload.armed_ms", "ms", "lower"},
		{"supervise.armed_ms", "ms", "lower"},
		{"faults.armed_ms", "ms", "lower"},
		{"core.adaptations_per_op", "count", "lower"},
		{"core.goal_met_frac", "frac", "higher"},
		{"netsim.retries_per_op", "count", "lower"},
		{"netsim.deadline_aborts_per_op", "count", "lower"},
		{"offload.useful_frac", "frac", "higher"},
		{"faults.events_per_op", "count", "lower"},
		{"supervise.restarts_per_op", "count", "lower"},
		{"bench.trace_overhead_frac", "frac", "lower"},
	}
	for _, id := range figureIDs {
		ms = append(ms, metric{"experiment." + id + "_ms", "ms", "lower"})
	}
	for _, w := range goalWorkloads {
		ms = append(ms,
			metric{"go." + w + ".alloc_mb_per_op", "MiB", "lower"},
			metric{"go." + w + ".gc_per_op", "count", "lower"},
			metric{"go." + w + ".gc_cpu_frac", "frac", "lower"},
		)
	}
	return ms
}()
