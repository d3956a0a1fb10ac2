//! Differential-oracle throughput across worker counts (`--oracle-jobs`).
//!
//! Builds a set of optimization-heavy mutants (one short fuzzing run per
//! experiment seed), then replays the full differential oracle over them
//! at oracle-jobs ∈ {1, 2, 4, 8}, timing each sweep, and writes
//! `BENCH_oracle.json` (execs/sec, speedup over the serial oracle).
//! Because the parallel oracle is bit-deterministic, every worker count
//! must produce `DifferentialResult`s identical to the serial loop's —
//! the bench asserts this, so it doubles as an equivalence smoke test.
//!
//! Every row starts with cold process-wide caches, and every repetition
//! with an empty execution memo: without the resets, every row after the
//! first would run warm, and repetitions after the first would replay
//! memoized executions instead of executing. Within one differential
//! call the memo still answers the pool JVMs that repeat an execution,
//! as it does in a campaign.
//!
//! Speedup is bounded by the host: the recorded `host` block says what
//! OS/arch and how many hardware threads the numbers were taken on. The
//! oracle's fan-out is also bounded by the pool size (8 simulated JVMs),
//! so oracle-jobs 8 is the natural ceiling.
//!
//! Flags:
//!   --smoke       tiny repeat count (CI smoke mode)
//!   --out PATH    output path (default BENCH_oracle.json)
//!   --repeats N   override the sweep count

use bench::{experiment_seeds, render_table};
use jvmsim::{JvmSpec, RunOptions};
use mopfuzzer::{differential_jobs, fuzz, DifferentialResult, FuzzConfig};
use std::fmt::Write as _;
use std::time::Instant;

const ORACLE_JOBS: [usize; 4] = [1, 2, 4, 8];

struct Row {
    oracle_jobs: usize,
    seconds: f64,
    execs_per_sec: f64,
    executions: u64,
}

fn main() {
    let metrics = bench::metrics::start();
    run();
    bench::metrics::finish(metrics.as_deref());
}

fn run() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let out_path = flag("--out")
        .cloned()
        .unwrap_or_else(|| "BENCH_oracle.json".into());
    let repeats: usize = match flag("--repeats") {
        Some(s) => s.parse().expect("--repeats takes a number"),
        None if smoke => 4,
        None => 24,
    };
    let hw = std::thread::available_parallelism().map_or(1, usize::from);
    let pool = JvmSpec::differential_pool();

    // The workload: each experiment seed fuzzed briefly so the oracle
    // sees realistic optimization-heavy mutants, not cold seeds. This
    // also warms allocators and code paths before any timed sweep.
    let programs: Vec<mjava::Program> = experiment_seeds(6)
        .iter()
        .enumerate()
        .map(|(i, seed)| {
            let config = FuzzConfig {
                max_iterations: 20,
                rng_seed: i as u64,
                ..FuzzConfig::new(pool[i % pool.len()].clone())
            };
            fuzz(&seed.program, &config).final_mutant
        })
        .collect();
    let options = RunOptions::fuzzing();

    let mut rows: Vec<Row> = Vec::new();
    let mut baseline: Option<Vec<DifferentialResult>> = None;
    for oracle_jobs in ORACLE_JOBS {
        eprintln!(
            "running {repeats} oracle sweep(s) over {} mutant(s) at --oracle-jobs {oracle_jobs} ...",
            programs.len()
        );
        let mut executions = 0u64;
        let mut sweep: Vec<DifferentialResult> = Vec::new();
        jexec::threaded::cache_reset();
        jopt::pipeline::cache_reset();
        let start = Instant::now();
        for rep in 0..repeats {
            jexec::memo::reset();
            for program in &programs {
                let diff = differential_jobs(program, &pool, &options, oracle_jobs);
                executions += diff.executions;
                if rep == 0 {
                    sweep.push(diff);
                }
            }
        }
        let seconds = start.elapsed().as_secs_f64().max(1e-9);
        match &baseline {
            None => baseline = Some(sweep),
            Some(b) => assert_eq!(
                b, &sweep,
                "--oracle-jobs {oracle_jobs} diverged from the serial oracle: \
                 the parallel merge is broken"
            ),
        }
        rows.push(Row {
            oracle_jobs,
            seconds,
            execs_per_sec: executions as f64 / seconds,
            executions,
        });
    }

    let serial = rows[0].execs_per_sec;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.oracle_jobs.to_string(),
                format!("{:.3}", r.seconds),
                format!("{:.0}", r.execs_per_sec),
                format!("{:.2}x", r.execs_per_sec / serial),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!(
                "Differential-oracle throughput, {repeats} sweep(s) x {} mutant(s) x {} JVMs, \
                 {hw} hardware thread(s)",
                programs.len(),
                pool.len()
            ),
            &["oracle-jobs", "seconds", "execs/s", "speedup"],
            &table
        )
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"type\": \"mopfuzzer-oracle-bench\",");
    let _ = writeln!(json, "  \"version\": 2,");
    let _ = writeln!(json, "  \"host\": {},", bench::host_meta_json());
    let _ = writeln!(json, "  \"programs\": {},", programs.len());
    let _ = writeln!(json, "  \"pool\": {},", pool.len());
    let _ = writeln!(json, "  \"repeats\": {repeats},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"oracle_jobs\": {}, \"seconds\": {:.6}, \"execs_per_sec\": {:.3}, \
             \"executions\": {}, \"speedup\": {:.3}}}{comma}",
            r.oracle_jobs,
            r.seconds,
            r.execs_per_sec,
            r.executions,
            r.execs_per_sec / serial,
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, json).expect("write bench output");
    eprintln!("wrote {out_path}");
}
