//! Probes: the benchmark's own timing of calls into each layer's public
//! functions, fed with what the workload itself produced (its journals,
//! seeds, mutants and stores), never with a separate micro-benchmark set.

use crate::report::Outcome;
use crate::stats::{median, prom_value};
use crate::{http, Ctx};
use jexec::{ExecConfig, ExecMode, Image};
use mjava::Program;
use mopfuzzer::journal::{read_journal, JournalWriter};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Programs replayed through the substrate and compile probes at most.
const MAX_PROGRAMS: usize = 48;
/// Mutants minimized by the reduction probe at most.
const MAX_REDUCTIONS: usize = 12;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The distinct programs the journals show the workload ran: the seeds,
/// then every bug-triggering mutant.
pub fn programs_from_journals(journals: &[PathBuf]) -> Vec<Program> {
    let mut seen = HashSet::new();
    let mut programs = Vec::new();
    let mut push = |p: &Program| {
        if seen.insert(mjava::print(p)) {
            programs.push(p.clone());
        }
    };
    let contents: Vec<_> = journals
        .iter()
        .filter_map(|j| read_journal(j).ok())
        .collect();
    for c in &contents {
        for seed in &c.seeds {
            push(&seed.program);
        }
    }
    for c in &contents {
        for r in &c.records {
            for sighting in r.crash.iter().chain(&r.diff_bugs) {
                push(&sighting.mutant);
            }
        }
    }
    programs
}

/// Substrate and compile probe: `Image::build`, `jexec::run` threaded,
/// interp and threaded under a profiling session, `jopt::optimize` of
/// every method, and `mjava::print`. Substrate outputs must agree across
/// the three modes.
pub fn substrate(out: &mut Outcome, programs: &[Program]) {
    let programs = &programs[..programs.len().min(MAX_PROGRAMS)];
    let mut build_us = Vec::new();
    let mut print_us = Vec::new();
    let mut opt_us = Vec::new();
    // (nanos, steps) per mode: threaded, interp, profiled.
    let mut per_mode = [(0u128, 0u64); 3];
    let spec = jvmsim::JvmSpec::differential_pool()[0].clone();
    let flags = jopt::FlagSet::all();
    let mut disagreements = 0;
    for program in programs {
        let t = Instant::now();
        let text = mjava::print(program);
        print_us.push(us(t));
        std::hint::black_box(text);
        let t = Instant::now();
        let Ok(image) = Image::build(program) else {
            continue;
        };
        build_us.push(us(t));
        let mut outputs = Vec::new();
        for (i, mode) in [ExecMode::Threaded, ExecMode::Interp, ExecMode::Threaded]
            .into_iter()
            .enumerate()
        {
            let config = ExecConfig {
                mode,
                ..ExecConfig::default()
            };
            if i == 2 {
                jtelemetry::install(jtelemetry::Session::new().with_profile());
            }
            if i == 0 {
                // Lower into the shared code cache first; time warm runs.
                jexec::run(&image, &config);
            }
            let t = Instant::now();
            let outcome = jexec::run(&image, &config);
            per_mode[i].0 += t.elapsed().as_nanos();
            per_mode[i].1 += outcome.stats.steps;
            if i == 2 {
                jtelemetry::take();
            }
            outputs.push((outcome.output, outcome.error, outcome.stats.steps));
        }
        if outputs.windows(2).any(|w| w[0] != w[1]) {
            disagreements += 1;
        }
        for class in &program.classes {
            for method in &class.methods {
                let t = Instant::now();
                let r = jopt::optimize(
                    program,
                    &class.name,
                    &method.name,
                    &spec.c2_phases,
                    spec.limits,
                    &flags,
                );
                opt_us.push(us(t));
                std::hint::black_box(r);
            }
        }
    }
    if disagreements > 0 {
        out.problem(format!(
            "substrate probe: {disagreements} program(s) behave differently under threaded, interp and profiled"
        ));
    }
    let ns_per_step = |(nanos, steps): (u128, u64)| nanos as f64 / steps.max(1) as f64;
    out.layer("jexec.threaded_ns_per_step", ns_per_step(per_mode[0]));
    out.layer("jexec.interp_ns_per_step", ns_per_step(per_mode[1]));
    out.layer("jexec.profiled_ns_per_step", ns_per_step(per_mode[2]));
    out.layer("jexec.image_build_us", median(&build_us));
    out.layer("jopt.optimize_us", median(&opt_us));
    out.layer("mjava.print_us", median(&print_us));
    out.lines.push(format!(
        "probe substrate: {} programs, {} steps per mode, {} optimized methods",
        build_us.len(),
        per_mode[0].1,
        opt_us.len()
    ));
}

/// Persistence probe: `read_journal` and `JournalWriter::write_round`
/// over the workload's own round records, and `Store::open` and
/// `Store::save` on a corpus store initialised with its seeds.
pub fn persistence(
    out: &mut Outcome,
    journals: &[PathBuf],
    seeds: &[mopfuzzer::Seed],
    work: &Path,
) {
    let mut read_ms = Vec::new();
    let mut write_us = Vec::new();
    let mut bytes = 0u64;
    let mut records = 0u64;
    let probe_journal = work.join("probe-journal.jsonl");
    for path in journals {
        let t = Instant::now();
        let Ok(contents) = read_journal(path) else {
            out.problem(format!("journal {} does not read back", path.display()));
            continue;
        };
        read_ms.push(ms(t));
        let Ok(mut writer) = JournalWriter::create(
            &probe_journal,
            &contents.config,
            &contents.seeds,
            contents.corpus.as_ref(),
        ) else {
            continue;
        };
        let header = std::fs::metadata(&probe_journal).map_or(0, |m| m.len());
        for record in &contents.records {
            let t = Instant::now();
            if writer.write_round(record).is_err() {
                break;
            }
            write_us.push(us(t));
        }
        bytes += std::fs::metadata(&probe_journal).map_or(0, |m| m.len()) - header;
        records += contents.records.len() as u64;
    }
    let _ = std::fs::remove_file(&probe_journal);
    out.layer("journal.read_ms", median(&read_ms));
    out.layer("journal.write_round_us", median(&write_us));
    out.layer(
        "journal.bytes_per_round",
        bytes as f64 / records.max(1) as f64,
    );

    let dir = work.join("probe-store");
    let _ = std::fs::remove_dir_all(&dir);
    let built = jcorpus::Store::init(&dir).and_then(|mut s| {
        mopfuzzer::import_seeds(&mut s, seeds, jcorpus::Provenance::Generated)?;
        s.save()
    });
    if let Err(e) = built {
        out.problem(format!("probe store: {e}"));
        return;
    }
    let (mut open_ms, mut save_ms, mut entries) = (Vec::new(), Vec::new(), 0);
    for _ in 0..5 {
        let t = Instant::now();
        match jcorpus::Store::open(&dir) {
            Ok(mut store) => {
                open_ms.push(ms(t));
                entries = store.len();
                let t = Instant::now();
                match store.save() {
                    Ok(()) => save_ms.push(ms(t)),
                    Err(e) => out.problem(format!("store save: {e}")),
                }
            }
            Err(e) => out.problem(format!("store open: {e}")),
        }
    }
    out.layer("store.open_ms", median(&open_ms));
    out.layer("store.save_ms", median(&save_ms));
    out.layer("store.entries", entries as f64);
}

/// Reduction probe: `jreduce::reduce` on the journals' bug-triggering
/// mutants, one per bug id, with the promotion oracle rebuilt from
/// `jvmsim::run_jvm`: a candidate passes only if it reproduces the same
/// bug id on the JVM that found it, as a corpus campaign's promotion
/// demands.
pub fn reduction(out: &mut Outcome, journals: &[PathBuf]) {
    let options = jvmsim::RunOptions::fuzzing();
    let mut bug_ids = HashSet::new();
    let sightings: Vec<_> = journals
        .iter()
        .filter_map(|j| read_journal(j).ok())
        .flat_map(|c| c.records)
        .filter_map(|r| r.crash.into_iter().chain(r.diff_bugs).next())
        .filter(|s| bug_ids.insert(s.id.clone()))
        .take(MAX_REDUCTIONS)
        .collect();
    let mut total_ms = 0.0;
    let (mut calls, mut accepted) = (0u64, 0u64);
    for s in &sightings {
        let Ok(spec) = jvmsim::JvmSpec::from_name(&s.jvm) else {
            continue;
        };
        let mut oracle = |p: &Program| {
            let run = jvmsim::run_jvm(p, &spec, &options);
            if s.is_crash {
                matches!(&run.verdict, jvmsim::Verdict::CompilerCrash(c) if c.bug_id == s.id)
            } else {
                run.miscompiled_by.contains(&s.id)
            }
        };
        let t = Instant::now();
        let stats = jreduce::reduce(&s.mutant, &mut oracle).1;
        total_ms += ms(t);
        calls += stats.oracle_calls;
        accepted += stats.accepted;
    }
    let done = sightings.len();
    out.layer("jreduce.reduce_ms", total_ms / done.max(1) as f64);
    out.layer("jreduce.oracle_calls", calls as f64);
    out.layer(
        "jreduce.useful_ratio",
        accepted as f64 / calls.max(1) as f64,
    );
    out.lines.push(format!(
        "probe jreduce: {done} reductions, {total_ms:.1} ms in total, {calls} oracle calls, {accepted} accepted"
    ));
}

/// Daemon probe: an in-process `mopfuzzerd::Server` serving three
/// one-round campaigns over HTTP, timed from the client side.
pub fn daemon(out: &mut Outcome, ctx: &Ctx) {
    let dir = ctx.work.join("probe-daemon");
    let _ = std::fs::remove_dir_all(&dir);
    let server = match mopfuzzerd::Server::start(mopfuzzerd::Config::new("127.0.0.1:0", &dir)) {
        Ok(s) => s,
        Err(e) => {
            out.problem(format!("probe daemon: {e}"));
            return;
        }
    };
    let addr = server.addr();
    let mut timings = http::Timings::default();
    for k in 0..3u64 {
        let spec = format!(
            "{{\"rounds\":1,\"seed\":{},\"iterations\":1,\"jobs\":1,\"oracle_jobs\":1}}",
            crate::stats::derive(ctx.seed, 900 + k) % (1 << 48)
        );
        match http::run_campaign(addr, &spec, &mut timings) {
            Ok(state) if state == "done" => {}
            Ok(state) => out.problem(format!("probe daemon campaign ended {state}")),
            Err(e) => out.problem(format!("probe daemon: {e}")),
        }
    }
    let t = Instant::now();
    let page = http::request(addr, "GET", "/metrics", "").map(|r| r.1);
    timings.scrape_ms.push(ms(t));
    if page
        .as_deref()
        .ok()
        .and_then(|p| prom_value(p, "mop_vm_executions"))
        .is_none()
    {
        out.problem("probe daemon: /metrics has no vm_executions sample".to_string());
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    timings.report(out);
}

/// The host block: `bench::host_meta_json`, CPU model, `nproc`, and —
/// in a traced run — the measured parallel yield: the throughput of two
/// concurrent copies of a fixed substrate probe divided by one copy's.
pub fn host(out: &mut Outcome, measure_yield: bool) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let parallel_yield = if measure_yield { parallel_yield() } else { 0.0 };
    if measure_yield {
        out.layer("host.parallel_yield", parallel_yield);
    }
    out.lines.push(format!(
        "host {{\"meta\": {}, \"cpu_model\": {}, \"nproc\": {nproc}, \"parallel_yield\": {}}}",
        bench::host_meta_json(),
        crate::stats::json_str(&cpu),
        crate::stats::json_num(parallel_yield)
    ));
}

/// Runs the built-in `arith_loop` seed on the threaded substrate for
/// about half a second, then twice that work on two threads at once.
fn parallel_yield() -> f64 {
    let Some(seed) = mopfuzzer::corpus::builtin()
        .into_iter()
        .find(|s| s.name == "arith_loop")
    else {
        return 0.0;
    };
    let Ok(image) = Image::build(&seed.program) else {
        return 0.0;
    };
    let config = ExecConfig {
        mode: ExecMode::Threaded,
        ..ExecConfig::default()
    };
    jexec::run(&image, &config);
    let t = Instant::now();
    let mut n = 0u32;
    while t.elapsed().as_secs_f64() < 0.5 {
        jexec::run(&image, &config);
        n += 1;
    }
    let one = t.elapsed().as_secs_f64() / f64::from(n);
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for _ in 0..n {
                    jexec::run(&image, &config);
                }
            });
        }
    });
    let two = t.elapsed().as_secs_f64() / f64::from(2 * n);
    one / two
}
