//! What a run reports: the end-to-end metrics (tracing off), the
//! per-layer table (traced run), and the closing JSON line.

use crate::stats::{json_num, json_str};
use std::collections::BTreeMap;

/// One end-to-end metric definition. `bounded` metrics go into the JSON
/// line of an untraced run; the rest are printed by name only.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bounded: bool,
}

/// Every end-to-end metric the benchmark prints, in print order.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bounded: true,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bounded: true,
    },
    EndToEnd {
        name: "steps_per_s",
        unit: "1/s",
        bounded: true,
    },
    EndToEnd {
        name: "execs_per_s",
        unit: "1/s",
        bounded: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bounded: false,
    },
    EndToEnd {
        name: "bugs_found",
        unit: "count",
        bounded: false,
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        bounded: false,
    },
];

/// One per-layer metric definition: which layer (module) it measures and
/// which end-to-end metric, on which workload, a change to it should move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        moves,
        on,
    }
}

const SERIAL: &str = "campaign_serial";
const PROFILED: &str = "campaign_profiled";
/// Layers no registered workload runs (corpus mode, the daemon) or
/// ratios that are reported, not moved.
const NONE: &str = "-";

/// Every per-layer metric a traced run reports, in print order.
pub const LAYERS: &[Layer] = &[
    layer("jexec.run_s", "s", "steps_per_s", SERIAL),
    layer("jexec.run_share", "ratio", "steps_per_s", SERIAL),
    layer("jexec.runs", "count", "wall_s", SERIAL),
    layer("jexec.steps", "count", "steps_per_s", SERIAL),
    layer("jexec.threaded_ns_per_step", "ns", "steps_per_s", SERIAL),
    layer("jexec.interp_ns_per_step", "ns", "-", NONE),
    layer("jexec.profiled_ns_per_step", "ns", "steps_per_s", PROFILED),
    layer("jexec.image_build_us", "us", "wall_s", SERIAL),
    layer("jexec.methods_lowered", "count", "wall_s", SERIAL),
    layer("jexec.code_cache_hit_ratio", "ratio", "wall_s", SERIAL),
    layer("jexec.code_cache_misses", "count", "wall_s", SERIAL),
    layer("jexec.leaf_inlines", "count", "steps_per_s", SERIAL),
    layer("jvmsim.vm_executions", "count", "wall_s", SERIAL),
    layer("jvmsim.vm_busy_s", "s", "wall_s", SERIAL),
    layer("jvmsim.vm_self_s", "s", "wall_s", SERIAL),
    layer("jvmsim.vm_busy_share", "ratio", "wall_s", SERIAL),
    layer("jvmsim.build_failures", "count", "wall_s", SERIAL),
    layer("jvmsim.crashes", "count", "wall_s", SERIAL),
    layer("jopt.optimize_s", "s", "wall_s", SERIAL),
    layer("jopt.compiles", "count", "wall_s", SERIAL),
    layer("jopt.memo_hit_ratio", "ratio", "wall_s", SERIAL),
    layer("jopt.optimize_us", "us", "wall_s", SERIAL),
    layer("jopt.phase_s.inline", "s", "wall_s", SERIAL),
    layer("jopt.phase_s.escape_analysis", "s", "wall_s", SERIAL),
    layer("jopt.phase_s.lock_opts", "s", "wall_s", SERIAL),
    layer("jopt.phase_s.ideal_loop", "s", "wall_s", SERIAL),
    layer("jopt.phase_s.iterative_gvn", "s", "wall_s", SERIAL),
    layer("jopt.phase_s.redundant_store", "s", "wall_s", SERIAL),
    layer("jopt.phase_s.autobox", "s", "wall_s", SERIAL),
    layer("jopt.phase_s.dead_code", "s", "wall_s", SERIAL),
    layer("jopt.phase_s.dereflection", "s", "wall_s", SERIAL),
    layer("jopt.phase_s.uncommon_trap", "s", "wall_s", SERIAL),
    layer("fuzzer.self_s", "s", "wall_s", SERIAL),
    layer("fuzzer.execs", "count", "wall_s", SERIAL),
    layer("mutators.applied", "count", "wall_s", SERIAL),
    layer("fuzzer.build_failure_ratio", "ratio", "wall_s", SERIAL),
    layer("oracle.busy_s", "s", "wall_s", SERIAL),
    layer("oracle.rounds", "count", "wall_s", SERIAL),
    layer("supervisor.round_self_s", "s", "wall_s", SERIAL),
    layer("supervisor.outside_rounds_s", "s", "wall_s", SERIAL),
    layer("jreduce.reduce_ms", "ms", "-", NONE),
    layer("jreduce.oracle_calls", "count", "-", NONE),
    layer("jreduce.useful_ratio", "ratio", "-", NONE),
    layer("journal.write_round_us", "us", "-", NONE),
    layer("journal.bytes_per_round", "B", "-", NONE),
    layer("journal.read_ms", "ms", "-", NONE),
    layer("store.open_ms", "ms", "-", NONE),
    layer("store.save_ms", "ms", "-", NONE),
    layer("store.entries", "count", "-", NONE),
    layer("daemon.submit_ms", "ms", "-", NONE),
    layer("daemon.queue_wait_s", "s", "-", NONE),
    layer("daemon.status_ms", "ms", "-", NONE),
    layer("daemon.metrics_scrape_ms", "ms", "-", NONE),
    layer("mjava.print_us", "us", "wall_s", SERIAL),
    layer("telemetry.trace_overhead_ratio", "ratio", "-", NONE),
    layer("telemetry.profile_overhead_ratio", "ratio", "-", NONE),
    layer("host.parallel_yield", "ratio", "-", NONE),
];

/// The result of one benchmark invocation.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: rounds.
    pub attempted: u64,
    /// Operations that failed or disagreed with the interp reference.
    pub failed: u64,
    /// Why the run is not correct, one line per finding.
    pub problems: Vec<String>,
    /// End-to-end values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Notes printed beside end-to-end values (sample counts).
    pub e2e_notes: BTreeMap<&'static str, String>,
    /// Per-layer values by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Free-form report lines (host block, exact counters, acceptance).
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().any(|m| m.name == name), "{name}");
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYERS.iter().any(|m| m.name == name), "{name}");
        self.layers.insert(name, value);
    }

    pub fn problem(&mut self, text: String) {
        self.problems.push(text);
    }

    /// Counts `failed` of `attempted` operations.
    pub fn operations(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Prints the human-readable report followed by the JSON line, which
    /// is always the last line of standard output.
    pub fn print(&mut self, traced: bool) {
        let share = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        self.e2e.insert("failed_share", share);
        self.e2e_notes.insert(
            "failed_share",
            format!("{} of {} operations", self.failed, self.attempted),
        );
        for line in &self.lines {
            println!("{line}");
        }
        for m in END_TO_END {
            let v = self.e2e.get(m.name).copied().unwrap_or(0.0);
            let note = self.e2e_notes.get(m.name).map_or("", String::as_str);
            println!("metric {:<16} {:>16.6} {:<6} {note}", m.name, v, m.unit);
        }
        if traced {
            println!(
                "layer {:<34} {:>16} {:<6} should move {:<16} on",
                "name", "value", "unit", ""
            );
            for l in LAYERS {
                let v = self.layers.get(l.name).copied().unwrap_or(0.0);
                println!(
                    "layer {:<34} {:>16.6} {:<6} should move {:<16} on {}",
                    l.name, v, l.unit, l.moves, l.on
                );
            }
        }
        for p in &self.problems {
            println!("problem: {p}");
        }
        let entry = |name: &str, value: Option<&f64>, unit: &str| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value.copied().unwrap_or(0.0)),
                json_str(unit)
            )
        };
        let metrics: Vec<String> = if traced {
            LAYERS
                .iter()
                .map(|l| entry(l.name, self.layers.get(l.name), l.unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter(|m| m.bounded)
                .map(|m| entry(m.name, self.e2e.get(m.name), m.unit))
                .collect()
        };
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
