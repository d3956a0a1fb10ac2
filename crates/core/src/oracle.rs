//! Test oracles (paper §3.5): crash detection and differential testing
//! across the JVM pool.
//!
//! # Oracle parallelism
//!
//! [`differential_jobs`] farms the pool executions onto the process-wide
//! work pool ([`crate::pool`]) and then **merges in canonical pool
//! order**, replaying every observable side effect on the calling thread
//! exactly as the serial loop would have produced it:
//!
//! * each task's flight-recorder stream (the `vm_execution` span open
//!   plus any optimizer-phase spans) is re-emitted at the same
//!   simulated-work timestamp (each task runs under
//!   [`jtelemetry::work::isolated`], and the merge credits each run's
//!   work in pool order, so the meter reads the same value the serial
//!   loop would have seen — the work meter only advances at execution
//!   completion, so every in-run event shares one timestamp);
//! * each task's counters and span histograms are captured in a private
//!   session and absorbed in merge order;
//! * the crash early-exit becomes "first crash in pool order wins":
//!   speculative results past that index are dropped *before* their
//!   telemetry is absorbed, so counters match a serial loop that never
//!   ran them. Two guards keep that speculation from costing CPU a
//!   crash-heavy fuzzing workload cannot spare: pool index 0 runs as an
//!   inline **pilot probe** on the caller before anything is scattered
//!   (a first-JVM crash — the dominant early-exit — therefore stays at
//!   exactly serial cost), and once any task observes a crash, tasks
//!   claimed at higher pool indices **skip execution outright** (the
//!   merge provably never reads those slots);
//! * a panic (fault injection) at pool index `i` is resumed on the
//!   calling thread at merge index `i` — after absorbing the partial
//!   span the unwinding task recorded, and only if no earlier JVM
//!   crashed — so the supervisor's containment and classification see
//!   the identical unwind the serial loop raises.
//!
//! The result: verdicts, culprit sets, `Inconclusive` messages, merged
//! coverage, journals, and telemetry totals are bit-identical at any
//! `--oracle-jobs`.

use crate::pool;
use jvmsim::{CoverageMap, CrashReport, JvmRun, JvmSpec, RunOptions, Verdict as JvmVerdict};
use mjava::Program;
use std::any::Any;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The oracle's verdict on one test case.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleVerdict {
    /// All JVMs completed and agreed.
    Pass,
    /// A JVM's compiler crashed.
    Crash {
        /// Which JVM crashed.
        jvm: String,
        /// Its crash report.
        report: CrashReport,
    },
    /// Completed JVMs disagreed on observable output.
    Miscompile {
        /// Per-JVM observable output.
        outputs: Vec<(String, Vec<String>)>,
        /// Ground-truth ids of the miscompile bugs whose corruption was
        /// applied (bookkeeping only — a real campaign would not know).
        culprits: Vec<String>,
    },
    /// Fewer than two JVMs produced comparable output (timeouts,
    /// build failures).
    Inconclusive(String),
}

impl OracleVerdict {
    /// True for crash or miscompilation.
    pub fn is_bug(&self) -> bool {
        matches!(
            self,
            OracleVerdict::Crash { .. } | OracleVerdict::Miscompile { .. }
        )
    }
}

/// Everything one differential round produced.
#[derive(Debug, Clone, PartialEq)]
pub struct DifferentialResult {
    /// The verdict.
    pub verdict: OracleVerdict,
    /// Coverage accumulated across all pool executions.
    pub coverage: CoverageMap,
    /// JVM executions performed.
    pub executions: u64,
    /// Interpreter steps consumed.
    pub steps: u64,
}

/// Accumulates pool runs in canonical order — shared by the serial loop
/// and the parallel merge so they cannot drift apart.
struct Accumulator {
    coverage: CoverageMap,
    executions: u64,
    steps: u64,
    runs: Vec<JvmRun>,
    /// Code-cache keys seen so far this differential call (merge order).
    code_seen: HashSet<u64>,
    /// Pipeline-memo keys seen so far this differential call.
    pipeline_seen: HashSet<u64>,
    /// Execution-memo keys seen so far this differential call.
    memo_seen: HashSet<u64>,
}

impl Accumulator {
    fn new() -> Accumulator {
        Accumulator {
            coverage: CoverageMap::new(),
            executions: 0,
            steps: 0,
            runs: Vec::new(),
            code_seen: HashSet::new(),
            pipeline_seen: HashSet::new(),
            memo_seen: HashSet::new(),
        }
    }

    /// Counts this run's cache lookups against the keys already seen this
    /// differential call, in canonical merge order. The process-wide
    /// caches are warmed in scheduling order (speculative pool executions
    /// included), so their live hit rates depend on worker count — but
    /// each run's *lookup keys* are a pure function of the execution, so
    /// replaying them against merge-order seen-sets yields counters that
    /// are bit-identical at any `--jobs`×`--oracle-jobs`.
    fn count_cache_lookups(&mut self, run: &JvmRun) {
        // code, pipeline and execution memo: hit/miss each
        let mut tally = [0u64; 6];
        let logs = [
            (&run.cache_log.code, &mut self.code_seen),
            (&run.cache_log.pipeline, &mut self.pipeline_seen),
            (&run.cache_log.memo, &mut self.memo_seen),
        ];
        for (i, (keys, seen)) in logs.into_iter().enumerate() {
            for &key in keys {
                tally[2 * i + usize::from(seen.insert(key))] += 1;
            }
        }
        let counters = [
            jtelemetry::Counter::CodeCacheHits,
            jtelemetry::Counter::CodeCacheMisses,
            jtelemetry::Counter::PipelineCacheHits,
            jtelemetry::Counter::PipelineCacheMisses,
            jtelemetry::Counter::ExecMemoHits,
            jtelemetry::Counter::ExecMemoMisses,
        ];
        for (counter, n) in counters.into_iter().zip(tally) {
            if n > 0 {
                jtelemetry::count(counter, n);
            }
        }
        if run.cache_log.inlined > 0 {
            jtelemetry::count(jtelemetry::Counter::LeafCallsInlined, run.cache_log.inlined);
        }
    }

    /// Folds in the next run (in pool order). Returns the early-exit
    /// result when this run crashed the compiler.
    fn push(&mut self, run: JvmRun) -> Option<DifferentialResult> {
        self.executions += 1;
        self.steps += run.steps;
        self.coverage.merge(&run.coverage);
        // Before the crash early-exit: the crashing run's lookups happened.
        if jtelemetry::enabled() {
            self.count_cache_lookups(&run);
        }
        if let JvmVerdict::CompilerCrash(report) = &run.verdict {
            if jtelemetry::enabled() {
                jtelemetry::count(jtelemetry::Counter::OracleCrash, 1);
                jtelemetry::flight(
                    jtelemetry::FlightKind::Oracle,
                    "crash",
                    format!("{} ({})", run.jvm, report.bug_id),
                );
                jtelemetry::trace_instant("verdict", || {
                    vec![
                        ("kind", "crash".to_string()),
                        ("jvm", run.jvm.clone()),
                        ("bug", report.bug_id.clone()),
                    ]
                });
            }
            return Some(DifferentialResult {
                verdict: OracleVerdict::Crash {
                    jvm: run.jvm.clone(),
                    report: report.clone(),
                },
                coverage: std::mem::take(&mut self.coverage),
                executions: self.executions,
                steps: self.steps,
            });
        }
        self.runs.push(run);
        None
    }

    /// All JVMs completed: compare observable behaviour.
    fn finish(self, pool_len: usize) -> DifferentialResult {
        let mut outputs: Vec<(String, Vec<String>)> = Vec::new();
        let mut culprits: Vec<String> = Vec::new();
        for run in &self.runs {
            if let Some(obs) = run.observable() {
                outputs.push((run.jvm.clone(), obs));
                culprits.extend(run.miscompiled_by.iter().cloned());
            }
        }
        culprits.sort();
        culprits.dedup();
        let verdict = if outputs.len() < 2 {
            OracleVerdict::Inconclusive(format!(
                "only {} of {} JVMs produced comparable output",
                outputs.len(),
                pool_len
            ))
        } else if outputs.iter().all(|(_, o)| o == &outputs[0].1) {
            OracleVerdict::Pass
        } else {
            OracleVerdict::Miscompile { outputs, culprits }
        };
        if jtelemetry::enabled() {
            let (counter, label) = match &verdict {
                OracleVerdict::Pass => (jtelemetry::Counter::OraclePass, "pass"),
                OracleVerdict::Miscompile { .. } => {
                    (jtelemetry::Counter::OracleMiscompile, "miscompile")
                }
                OracleVerdict::Inconclusive(_) => {
                    (jtelemetry::Counter::OracleInconclusive, "inconclusive")
                }
                OracleVerdict::Crash { .. } => unreachable!("crash returns early"),
            };
            jtelemetry::count(counter, 1);
            jtelemetry::flight(jtelemetry::FlightKind::Oracle, label, String::new());
            jtelemetry::trace_instant("verdict", || vec![("kind", label.to_string())]);
        }
        DifferentialResult {
            verdict,
            coverage: self.coverage,
            executions: self.executions,
            steps: self.steps,
        }
    }
}

/// Runs `program` on every JVM in `pool` and compares observable
/// behaviour (§3.5: the LTS versions and mainline of both families).
pub fn differential(
    program: &Program,
    pool: &[JvmSpec],
    options: &RunOptions,
) -> DifferentialResult {
    differential_jobs(program, pool, options, 1)
}

/// [`differential`] with up to `jobs` pool executions in flight at once
/// (`--oracle-jobs`). `jobs <= 1` is exactly the serial loop; any other
/// value produces bit-identical results via the canonical-order merge
/// described in the module docs.
pub fn differential_jobs(
    program: &Program,
    pool: &[JvmSpec],
    options: &RunOptions,
    jobs: usize,
) -> DifferentialResult {
    let mut accum = Accumulator::new();
    // One class-loading pass for the whole pool: every JVM executes the
    // same program, so the image (and its load-time method lowering) is
    // built once, here on the caller thread — `MethodsLowered` counts it
    // once regardless of worker count. Each run still gets its own
    // mutable clone to install JIT code into.
    let image = Arc::new(jexec::Image::build(program));
    if jobs <= 1 || pool.len() <= 1 {
        for spec in pool {
            let run = jvmsim::run_jvm_with_image(program, Some((*image).clone()), spec, options);
            if let Some(result) = accum.push(run) {
                return result;
            }
        }
        return accum.finish(pool.len());
    }

    // Pilot probe: run pool index 0 inline, exactly as the serial loop
    // would — directly on this thread, telemetry landing natively. On a
    // fuzzing workload the dominant early-exit is a compiler crash on
    // the *first* JVM, and probing it before fanning out keeps that case
    // at serial cost instead of paying for seven speculative executions
    // the merge would immediately discard.
    let run = jvmsim::run_jvm_with_image(program, Some((*image).clone()), &pool[0], options);
    if let Some(result) = accum.push(run) {
        return result;
    }

    for slot in execute_pool(program, &image, &pool[1..], options, jobs) {
        // A cancelled slot can only sit *behind* the first crash in pool
        // order, and `accum.push` returns before this loop reaches it.
        let (caught, snap, flight, trace) =
            slot.expect("merge consumed a task cancelled by an earlier crash");
        // Replay the side effects `run_jvm` would have had on this
        // thread, in this order: the flight events first (their serial
        // timestamp is the work meter *before* this run), then the
        // task's counters and span histograms, then its trace spans
        // (re-parented under this thread's open span at the pre-run work
        // meter — exactly where the serial loop would have opened them),
        // then the work credit.
        for event in flight {
            jtelemetry::flight(event.kind, event.label, event.detail);
        }
        if let Some(snap) = &snap {
            jtelemetry::absorb(snap);
        }
        jtelemetry::absorb_trace(&trace);
        let run = match caught {
            Ok(run) => run,
            // An injected VM panic: re-raise it at its canonical pool
            // position so the supervisor's containment sees the serial
            // unwind. No work is credited — the execution never completed.
            Err(payload) => std::panic::resume_unwind(payload),
        };
        jtelemetry::work::add(run.steps, 1);
        if let Some(result) = accum.push(run) {
            // First crash in pool order wins; the remaining speculative
            // results drop here, their telemetry never absorbed.
            return result;
        }
    }
    debug_assert_eq!(accum.runs.len(), pool.len());
    accum.finish(pool.len())
}

/// One task's outcome: the run (or its panic payload) plus the telemetry
/// it accrued in its private session — counters/spans as a snapshot, the
/// flight events for in-order replay, and the trace spans for in-order
/// absorption.
type TaskOutput = (
    Result<JvmRun, Box<dyn Any + Send>>,
    Option<jtelemetry::MetricsSnapshot>,
    Vec<jtelemetry::FlightEvent>,
    Vec<jtelemetry::TraceEvent>,
);

/// Scatters the pool executions across the shared worker pool. Each task
/// is hermetic: its work-meter credits roll back, its telemetry lands in
/// a fresh private session (returned as a snapshot), and its panics are
/// caught and returned as payloads — whichever thread runs it, including
/// the calling thread itself, observes no effects.
///
/// Crash cancellation: the merge drops everything past the first crash
/// in pool order, so once some task has observed a compiler crash at
/// index `c`, a task claimed at index `> c` returns `None` without
/// executing — the serial loop would never have run it either. The
/// cancelled slots are exactly a suffix of what the merge discards, so
/// results stay bit-identical while a crash-heavy workload keeps close
/// to serial cost instead of paying for the whole speculative pool.
fn execute_pool(
    program: &Program,
    image: &Arc<Result<jexec::Image, jexec::BuildError>>,
    pool: &[JvmSpec],
    options: &RunOptions,
    jobs: usize,
) -> Vec<Option<TaskOutput>> {
    // Workers inherit the calling session's shape (clock mode, tracing,
    // profiling) so their private sessions record the same event classes
    // the serial loop would have.
    let spec = jtelemetry::session_spec();
    let program = program.clone();
    let image = Arc::clone(image);
    let options = options.clone();
    let crash_floor = AtomicUsize::new(usize::MAX);
    // The round's cancellation token is installed on the *calling* thread;
    // capture it here and re-install it inside each task so the watchdog
    // reaches executions running on pool threads too.
    let cancel = jtelemetry::cancel::current();
    pool::scatter(pool.to_vec(), jobs, move |index, spec_jvm: JvmSpec| {
        if index > crash_floor.load(Ordering::Relaxed) {
            return None;
        }
        let _cancel_guard = cancel.as_ref().map(jtelemetry::cancel::install);
        Some(jtelemetry::work::isolated(|| {
            let saved = jtelemetry::take();
            if let Some(spec) = spec {
                jtelemetry::install(jtelemetry::Session::from_spec(spec));
            }
            let caught = pool::quiet_catch_unwind(|| {
                jvmsim::run_jvm_with_image(&program, Some((*image).clone()), &spec_jvm, &options)
            });
            if let Ok(run) = &caught {
                if matches!(run.verdict, JvmVerdict::CompilerCrash(_)) {
                    crash_floor.fetch_min(index, Ordering::Relaxed);
                }
            }
            let flight = jtelemetry::flight_snapshot();
            let (snap, trace) = match jtelemetry::take() {
                Some(mut session) => {
                    let trace = session.take_trace();
                    (Some(session.snapshot()), trace)
                }
                None => (None, Vec::new()),
            };
            if let Some(session) = saved {
                jtelemetry::install(session);
            }
            (caught, snap, flight, trace)
        }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvmsim::Version;

    fn pool() -> Vec<JvmSpec> {
        JvmSpec::differential_pool()
    }

    #[test]
    fn seeds_pass_differential_testing() {
        for seed in mjava::samples::all_seeds() {
            let result = differential(&seed.program, &pool(), &RunOptions::fuzzing());
            assert!(
                matches!(result.verdict, OracleVerdict::Pass),
                "seed {} verdict {:?}",
                seed.name,
                result.verdict
            );
            assert_eq!(result.executions, 8);
        }
    }

    #[test]
    fn detects_planted_output_divergence() {
        // Plant a divergence by hand: a program whose behaviour trips a
        // miscompile bug on J9 only — J101 requires StoreEliminate>=2 and
        // GvnHit>=1. We synthesize redundant stores plus a CSE pair.
        let program = mjava::parse(
            r#"
            class T {
                static int s;
                static void main() {
                    int a = 3 * 3 + 1;
                    s = 5;
                    s = 6;
                    s = 7;
                    int p = a + 2;
                    int q = a + 2;
                    System.out.println(s + p + q);
                }
            }
            "#,
        )
        .unwrap();
        let result = differential(&program, &pool(), &RunOptions::fuzzing());
        match &result.verdict {
            OracleVerdict::Miscompile { outputs, culprits } => {
                assert!(!culprits.is_empty());
                assert!(outputs.len() >= 2);
            }
            OracleVerdict::Crash { .. } => {} // also a detection
            other => panic!("divergence not detected: {other:?}"),
        }
    }

    #[test]
    fn inconclusive_when_everything_times_out() {
        let program =
            mjava::parse("class T { static void main() { while (true) { int x = 1; } } }").unwrap();
        let mut options = RunOptions::fuzzing();
        options.exec.fuel = 5_000;
        let result = differential(
            &program,
            &[JvmSpec::hotspur(Version::V17), JvmSpec::j9(Version::V17)],
            &options,
        );
        assert!(matches!(result.verdict, OracleVerdict::Inconclusive(_)));
    }

    #[test]
    fn verdict_bug_classification() {
        assert!(!OracleVerdict::Pass.is_bug());
        assert!(!OracleVerdict::Inconclusive("x".into()).is_bug());
        assert!(OracleVerdict::Miscompile {
            outputs: vec![],
            culprits: vec![]
        }
        .is_bug());
    }

    #[test]
    fn parallel_oracle_matches_serial_on_all_seeds() {
        for seed in mjava::samples::all_seeds() {
            let serial = differential(&seed.program, &pool(), &RunOptions::fuzzing());
            for jobs in [2, 4, 8] {
                let parallel =
                    differential_jobs(&seed.program, &pool(), &RunOptions::fuzzing(), jobs);
                assert_eq!(serial, parallel, "seed {} at oracle-jobs {jobs}", seed.name);
            }
        }
    }

    /// Crash cancellation must be invisible: fuzz until a mutant crashes
    /// some JVM in the pool, then check the parallel oracle (which skips
    /// the speculative suffix behind the crash) still returns exactly
    /// the serial result.
    #[test]
    fn parallel_oracle_matches_serial_on_a_crashing_mutant() {
        use crate::fuzzer::{fuzz, FuzzConfig};
        let pool = pool();
        let mut checked = 0;
        for (i, seed) in mjava::samples::all_seeds().iter().enumerate() {
            let config = FuzzConfig {
                max_iterations: 20,
                rng_seed: 0xc4a5 + i as u64,
                ..FuzzConfig::new(pool[i % pool.len()].clone())
            };
            let mutant = fuzz(&seed.program, &config).final_mutant;
            let serial = differential(&mutant, &pool, &RunOptions::fuzzing());
            if !matches!(serial.verdict, OracleVerdict::Crash { .. }) {
                continue;
            }
            checked += 1;
            for jobs in [2, 8] {
                let parallel = differential_jobs(&mutant, &pool, &RunOptions::fuzzing(), jobs);
                assert_eq!(serial, parallel, "seed {} at oracle-jobs {jobs}", seed.name);
            }
        }
        assert!(
            checked > 0,
            "no fuzzed mutant crashed; strengthen the config"
        );
    }

    #[test]
    fn parallel_oracle_replays_work_in_pool_order() {
        let seed = &mjava::samples::all_seeds()[0];
        let before = jtelemetry::work::totals();
        let serial = differential(&seed.program, &pool(), &RunOptions::fuzzing());
        let after_serial = jtelemetry::work::totals();
        let parallel = differential_jobs(&seed.program, &pool(), &RunOptions::fuzzing(), 4);
        let after_parallel = jtelemetry::work::totals();
        assert_eq!(serial, parallel);
        // The merge credits exactly the serial loop's work on this thread.
        assert_eq!(
            (after_serial.0 - before.0, after_serial.1 - before.1),
            (
                after_parallel.0 - after_serial.0,
                after_parallel.1 - after_serial.1
            )
        );
    }
}
