//! Execution profile of one campaign: where the execs/s go.
//!
//! Runs a serial campaign with the causal trace layer and the opcode
//! profiler enabled (real clock), then attributes the wall time:
//! optimizer-phase self-times, interpreter time, the hottest opcodes and
//! the hottest superinstructions of the threaded substrate, written to
//! `BENCH_profile.json`. Companion to the
//! `jtelemetry-trace` binary, which answers the same question offline
//! from a `--trace-out` file.
//!
//! The timings are wall-clock and therefore host-dependent (see the
//! recorded `host` block); the *hit counts* are deterministic and must
//! not change across runs or machines.
//!
//! Flags:
//!   --smoke       tiny round count (CI smoke mode)
//!   --out PATH    output path (default BENCH_profile.json)
//!   --rounds N    override the round count

use bench::{experiment_seeds, render_table};
use mopfuzzer::{run_campaign, CampaignConfig};
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let out_path = flag("--out")
        .cloned()
        .unwrap_or_else(|| "BENCH_profile.json".into());
    let rounds: usize = match flag("--rounds") {
        Some(s) => s.parse().expect("--rounds takes a number"),
        None if smoke => 8,
        None => 48,
    };
    let seeds = experiment_seeds(6);
    let config = CampaignConfig {
        iterations_per_seed: 30,
        rounds,
        jobs: 1,
        ..CampaignConfig::new(rounds)
    };

    // Warm up allocators and code paths before the timed, profiled run.
    run_campaign(&seeds, &config);

    jtelemetry::install(jtelemetry::Session::new().with_trace().with_profile());
    eprintln!("running {rounds} profiled round(s) ...");
    let start = Instant::now();
    let result = run_campaign(&seeds, &config);
    let seconds = start.elapsed().as_secs_f64().max(1e-9);
    let session = jtelemetry::take().expect("session installed");
    // Each trace event object opens with its name — count them without
    // a JSON parser.
    let trace_events = jtelemetry::export::trace_json(&session, &[])
        .map_or(0, |json| json.matches("{\"name\"").count());
    let snap = session.snapshot();

    let execs = result.executions + result.wasted_execs;
    let wall_ns = seconds * 1e9;
    let mut spans = snap.spans.clone();
    spans.sort_by_key(|s| std::cmp::Reverse(s.self_nanos));
    let mut opcodes = snap.opcodes.clone();
    opcodes.sort_by(|a, b| b.nanos.cmp(&a.nanos).then(b.hits.cmp(&a.hits)));
    let mut superops = snap.superops.clone();
    superops.sort_by(|a, b| b.nanos.cmp(&a.nanos).then(b.hits.cmp(&a.hits)));

    let span_rows: Vec<Vec<String>> = spans
        .iter()
        .take(12)
        .map(|s| {
            vec![
                s.name.clone(),
                s.count.to_string(),
                format!("{:.1}", s.self_nanos as f64 / 1e6),
                format!("{:.1}%", 100.0 * s.self_nanos as f64 / wall_ns),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!(
                "Self-time by span, {rounds} round(s), {:.0} execs/s",
                execs as f64 / seconds
            ),
            &["span", "count", "self ms", "% wall"],
            &span_rows
        )
    );
    let opcode_rows: Vec<Vec<String>> = opcodes
        .iter()
        .take(10)
        .map(|o| {
            vec![
                o.name.clone(),
                o.hits.to_string(),
                format!("{:.1}", o.nanos as f64 / 1e6),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Top opcodes by sampled time",
            &["opcode", "hits", "sampled ms"],
            &opcode_rows
        )
    );
    let superop_rows: Vec<Vec<String>> = superops
        .iter()
        .take(10)
        .map(|s| {
            vec![
                s.kind.clone(),
                s.comp.join(" "),
                s.hits.to_string(),
                format!("{:.1}", s.nanos as f64 / 1e6),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Top superinstructions by sampled time",
            &["kind", "composition", "dispatches", "sampled ms"],
            &superop_rows
        )
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"type\": \"mopfuzzer-profile-bench\",");
    let _ = writeln!(json, "  \"version\": 2,");
    let _ = writeln!(json, "  \"host\": {},", bench::host_meta_json());
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"seconds\": {seconds:.6},");
    let _ = writeln!(json, "  \"executions\": {execs},");
    let _ = writeln!(json, "  \"execs_per_sec\": {:.3},", execs as f64 / seconds);
    let _ = writeln!(json, "  \"trace_events\": {trace_events},");
    let _ = writeln!(json, "  \"spans\": [");
    for (i, s) in spans.iter().take(12).enumerate() {
        let comma = if i + 1 < spans.len().min(12) { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"count\": {}, \"self_nanos\": {}, \
             \"total_nanos\": {}}}{comma}",
            s.name, s.count, s.self_nanos, s.total_nanos,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"opcodes\": [");
    for (i, o) in opcodes.iter().take(10).enumerate() {
        let comma = if i + 1 < opcodes.len().min(10) {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"hits\": {}, \"nanos\": {}}}{comma}",
            o.name, o.hits, o.nanos,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"superops\": [");
    for (i, s) in superops.iter().take(10).enumerate() {
        let comma = if i + 1 < superops.len().min(10) {
            ","
        } else {
            ""
        };
        let comp: Vec<String> = s.comp.iter().map(|c| format!("\"{c}\"")).collect();
        let _ = writeln!(
            json,
            "    {{\"kind\": \"{}\", \"comp\": [{}], \"hits\": {}, \"nanos\": {}}}{comma}",
            s.kind,
            comp.join(", "),
            s.hits,
            s.nanos,
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, json).expect("write bench output");
    eprintln!("wrote {out_path}");
}
