//! In-memory aggregation of a traced run: span count, total and self
//! time per span name from the session's round-lane trace events, plus
//! the counters and span histograms of its metrics snapshot. Nothing is
//! written to disk, so no trace file ever goes through an analyzer.

use jtelemetry::{MetricsSnapshot, TraceEvent};
use std::collections::{BTreeMap, HashMap};

/// Count, total and self nanoseconds of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanAgg {
    pub count: u64,
    pub total_nanos: u64,
    pub self_nanos: u64,
}

/// Everything the per-layer table needs from one traced run.
#[derive(Debug, Default)]
pub struct TraceAgg {
    pub spans: BTreeMap<&'static str, SpanAgg>,
    /// `vm_execution` spans grouped by the stage that issued them:
    /// `fuzz`, `differential`, or `outside` (promotion minimization and
    /// fingerprinting, which run outside round spans).
    pub vm_by_stage: BTreeMap<&'static str, SpanAgg>,
    pub counters: BTreeMap<String, u64>,
    /// Span histograms of the metrics snapshot (`jtelemetry::span` users:
    /// `vm_execution` and the optimizer phases), by name.
    pub histograms: BTreeMap<String, SpanAgg>,
}

impl TraceAgg {
    pub fn span(&self, name: &str) -> SpanAgg {
        self.spans.get(name).copied().unwrap_or_default()
    }

    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    pub fn histogram(&self, name: &str) -> SpanAgg {
        self.histograms.get(name).copied().unwrap_or_default()
    }
}

/// Aggregates one session's trace events and metrics snapshot.
pub fn aggregate(events: &[TraceEvent], snap: &MetricsSnapshot) -> TraceAgg {
    let mut agg = TraceAgg::default();
    let mut child_nanos: HashMap<u64, u64> = HashMap::new();
    let mut by_id: HashMap<u64, &TraceEvent> = HashMap::new();
    for e in events.iter().filter(|e| !e.instant) {
        by_id.insert(e.id, e);
        if e.parent != 0 {
            *child_nanos.entry(e.parent).or_default() += e.dur_nanos;
        }
    }
    for e in events.iter().filter(|e| !e.instant) {
        let s = agg.spans.entry(e.name).or_default();
        s.count += 1;
        s.total_nanos += e.dur_nanos;
        let self_nanos = e
            .dur_nanos
            .saturating_sub(child_nanos.get(&e.id).copied().unwrap_or(0));
        s.self_nanos += self_nanos;
        if e.name == "vm_execution" {
            let stage = stage_of(e, &by_id);
            let v = agg.vm_by_stage.entry(stage).or_default();
            v.count += 1;
            v.total_nanos += e.dur_nanos;
            v.self_nanos += self_nanos;
        }
    }
    for (key, value) in &snap.counters {
        agg.counters.insert((*key).to_string(), *value);
    }
    for span in &snap.spans {
        agg.histograms.insert(
            span.name.clone(),
            SpanAgg {
                count: span.count,
                total_nanos: span.total_nanos,
                self_nanos: span.self_nanos,
            },
        );
    }
    agg
}

/// The optimizer phases, one `jopt.phase_s.<phase>` row each.
pub const PHASES: [(&str, &str); 10] = [
    ("inline", "jopt.phase_s.inline"),
    ("escape_analysis", "jopt.phase_s.escape_analysis"),
    ("lock_opts", "jopt.phase_s.lock_opts"),
    ("ideal_loop", "jopt.phase_s.ideal_loop"),
    ("iterative_gvn", "jopt.phase_s.iterative_gvn"),
    ("redundant_store", "jopt.phase_s.redundant_store"),
    ("autobox", "jopt.phase_s.autobox"),
    ("dead_code", "jopt.phase_s.dead_code"),
    ("dereflection", "jopt.phase_s.dereflection"),
    ("uncommon_trap", "jopt.phase_s.uncommon_trap"),
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Fills the span- and counter-derived per-layer rows from a traced run
/// whose campaigns took `wall_s` seconds on the benchmark clock.
pub fn fill_layers(out: &mut crate::report::Outcome, agg: &TraceAgg, wall_s: f64) {
    const NS: f64 = 1e9;
    let c = |k: &str| agg.counter(k);
    out.layer(
        "jexec.run_s",
        agg.span("interp_run").total_nanos as f64 / NS,
    );
    out.layer(
        "jexec.run_share",
        agg.span("interp_run").total_nanos as f64 / NS / wall_s.max(1e-9),
    );
    out.layer("jexec.runs", c("interp_runs") as f64);
    out.layer("jexec.steps", c("interp_steps") as f64);
    out.layer("jexec.methods_lowered", c("methods_lowered") as f64);
    let (hits, misses) = (c("code_cache_hits"), c("code_cache_misses"));
    out.layer("jexec.code_cache_hit_ratio", ratio(hits, hits + misses));
    out.layer("jexec.code_cache_misses", misses as f64);
    out.layer("jexec.leaf_inlines", c("leaf_calls_inlined") as f64);
    let vm = agg.span("vm_execution");
    out.layer("jvmsim.vm_executions", c("vm_executions") as f64);
    out.layer("jvmsim.vm_busy_s", vm.total_nanos as f64 / NS);
    out.layer("jvmsim.vm_self_s", vm.self_nanos as f64 / NS);
    out.layer(
        "jvmsim.vm_busy_share",
        vm.total_nanos as f64 / NS / wall_s.max(1e-9),
    );
    out.layer("jvmsim.build_failures", c("vm_build_failures") as f64);
    out.layer("jvmsim.crashes", c("vm_crashes") as f64);
    let opt = agg.span("optimize");
    out.layer("jopt.optimize_s", opt.total_nanos as f64 / NS);
    out.layer("jopt.compiles", opt.count as f64);
    let (hits, misses) = (c("pipeline_cache_hits"), c("pipeline_cache_misses"));
    out.layer("jopt.memo_hit_ratio", ratio(hits, hits + misses));
    for (phase, row) in PHASES {
        out.layer(row, agg.histogram(phase).total_nanos as f64 / NS);
    }
    let fuzz = agg.span("fuzz");
    out.layer("fuzzer.self_s", fuzz.self_nanos as f64 / NS);
    out.layer(
        "fuzzer.execs",
        agg.vm_by_stage.get("fuzz").map_or(0, |s| s.count) as f64,
    );
    out.layer("mutators.applied", c("mutations_applied") as f64);
    out.layer(
        "fuzzer.build_failure_ratio",
        ratio(c("mutants_rejected"), c("mutations_applied")),
    );
    let diff = agg.span("differential");
    out.layer("oracle.busy_s", diff.total_nanos as f64 / NS);
    out.layer("oracle.rounds", diff.count as f64);
    let round = agg.span("round");
    out.layer(
        "supervisor.round_self_s",
        (round.self_nanos + agg.span("attempt").self_nanos) as f64 / NS,
    );
    out.layer(
        "supervisor.outside_rounds_s",
        (wall_s - round.total_nanos as f64 / NS).max(0.0),
    );
}

fn stage_of(event: &TraceEvent, by_id: &HashMap<u64, &TraceEvent>) -> &'static str {
    let mut parent = event.parent;
    while let Some(p) = by_id.get(&parent) {
        match p.name {
            "fuzz" => return "fuzz",
            "differential" => return "differential",
            _ => parent = p.parent,
        }
    }
    "outside"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, dur_nanos: u64) -> TraceEvent {
        TraceEvent {
            id,
            parent,
            name,
            args: Vec::new(),
            rel_steps: 0,
            dur_steps: 0,
            dur_nanos,
            instant: false,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_stages_follow_ancestors() {
        let events = vec![
            span(3, 2, "vm_execution", 40),
            span(2, 1, "fuzz", 50),
            span(5, 4, "vm_execution", 30),
            span(4, 1, "differential", 35),
            span(1, 0, "round", 100),
            span(6, 0, "vm_execution", 7),
        ];
        let agg = aggregate(&events, &MetricsSnapshot::empty());
        let round = agg.span("round");
        assert_eq!(
            (round.count, round.total_nanos, round.self_nanos),
            (1, 100, 15)
        );
        assert_eq!(agg.span("fuzz").self_nanos, 10);
        assert_eq!(agg.span("vm_execution").count, 3);
        assert_eq!(agg.vm_by_stage["fuzz"].total_nanos, 40);
        assert_eq!(agg.vm_by_stage["differential"].total_nanos, 30);
        assert_eq!(agg.vm_by_stage["outside"].total_nanos, 7);
    }
}
