//! The campaign benchmark of record.
//!
//! ```text
//! campaignbench --workload NAME --seed N --seconds S --trace 0|1
//! campaignbench --self-test
//! ```
//!
//! Workloads: `campaign_serial`, `campaign_profiled`
//! (see README.md). Every run first computes an interp-substrate
//! reference of the workload's output outside the timed region, checks
//! each timed campaign against it, and prints the end-to-end metrics;
//! `--trace 1` instead makes a traced run and prints the per-layer
//! table. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod http;
mod probes;
mod report;
mod serial;
mod speed;
mod stats;
mod trace;

use std::path::PathBuf;

pub const WORKLOADS: [&str; 2] = ["campaign_serial", "campaign_profiled"];

/// One invocation's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
    /// Self-test only: corrupt the reference so every check must fail.
    pub tamper_reference: bool,
}

impl Ctx {
    /// Hands back the reference output, corrupted under the self-test.
    pub fn reference(&self, mut output: serial::Output) -> serial::Output {
        if self.tamper_reference {
            if let Some(first) = output.rows.first_mut() {
                first.digest ^= 1;
            }
            output.digest ^= 1;
        }
        output
    }
}

const USAGE: &str = "usage: campaignbench --workload campaign_serial|campaign_profiled \
                     --seed N --seconds S --trace 0|1\n       campaignbench --self-test";

fn parse(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Ctx {
        work: work_dir(&workload),
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        tamper_reference: false,
    })
}

fn work_dir(workload: &str) -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    cwd.join(".campaignbench-work")
        .join(format!("{workload}-{}", std::process::id()))
}

fn run(ctx: &Ctx) -> report::Outcome {
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        let mut out = report::Outcome::default();
        out.problem(format!("cannot create {}: {e}", ctx.work.display()));
        return out;
    }
    let mut out = serial::run(ctx, ctx.workload == "campaign_profiled");
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Some(parent) = ctx.work.parent() {
        // Only succeeds when no other run still uses it.
        let _ = std::fs::remove_dir(parent);
    }
    let mut host = report::Outcome::default();
    probes::host(&mut host, ctx.trace);
    out.lines.splice(0..0, host.lines);
    out.layers.extend(host.layers);
    out
}

/// Checks that the output check can fail: a tampered reference and a
/// campaign whose rounds all fault must both be reported as failures.
fn self_test() -> i32 {
    let workload = "campaign_serial";
    let ctx = Ctx {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.1,
        trace: false,
        work: work_dir(workload),
        tamper_reference: true,
    };
    let out = run(&ctx);
    let mut ok = !out.correct() && out.failed > 0;
    println!(
        "self-test tampered reference: {} of {} operations failed -> {}",
        out.failed,
        out.attempted,
        if ok { "reported" } else { "MISSED" }
    );
    let seeds = serial::seeds(7);
    let mut clean = serial::config(7, serial::BUDGET_STEPS);
    clean.rounds = 3;
    let mut faulty = clean.clone();
    faulty.fault = Some(jvmsim::FaultPlan::new(7, 1.0));
    faulty.supervisor.max_retries = 0;
    let got = serial::campaign(&seeds, &faulty, None).output;
    let want = serial::campaign(&seeds, &clean, None).output;
    let (attempted, failed) = got.failures(&want, false);
    let caught = failed > 0;
    println!(
        "self-test forced failed rounds: {failed} of {attempted} rounds failed -> {}",
        if caught { "reported" } else { "MISSED" }
    );
    ok &= caught;
    println!("self-test: {}", if ok { "ok" } else { "FAILED" });
    i32::from(!ok)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--self-test") {
        std::process::exit(self_test());
    }
    let ctx = match parse(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("campaignbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "campaignbench: workload={} seed={} seconds={} trace={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    let mut out = run(&ctx);
    out.print(ctx.trace);
}
