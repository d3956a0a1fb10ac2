//! `campaign_serial` and `campaign_profiled`: one single-worker campaign
//! over seeds generated from the workload seed, run through
//! `mopfuzzer::run_campaign_observed` with cold process-wide caches, plain
//! or under a profiling session (what `mopfuzzer --profile` installs).

use crate::report::Outcome;
use crate::stats::{derive, median, peak_rss_mb};
use crate::{probes, speed, trace, Ctx};
use jvmsim::Area;
use mopfuzzer::{CampaignConfig, CampaignObserver, CampaignResult, Seed};
use std::fmt::Write as _;
use std::time::Instant;

/// Generated seeds added to the ten built-in ones.
pub const EXTRA_SEEDS: usize = 40;
/// The campaign's budget of simulated time, in interpreter steps: the
/// campaign runs rounds (rotating over the seeds) until it has spent
/// this much, the way this repository models a fixed-length campaign.
/// A budget rather than a round count keeps the work of a run steady
/// across workload seeds, although single rounds are heavy-tailed.
pub const BUDGET_STEPS: u64 = 2_500_000_000;
/// The profiled campaign's budget: the first rounds of the same
/// campaign, since profiling slows the substrate about twofold.
pub const PROFILED_BUDGET_STEPS: u64 = 1_500_000_000;
/// Rounds at most; the budget ends the campaign long before.
const MAX_ROUNDS: usize = 100_000;
/// Mutation iterations per round. Mutants accumulate mutations over a
/// round; with more iterations a round more often ends in a crash found
/// by the fuzz loop, and fewer rounds reach the differential oracle. At
/// 8 the time splits over the layers close to how it splits at 30 and 50
/// (see README.md), while a budget still holds enough rounds for the
/// heavy tail to average out; at 30 a run holds about 15 rounds.
pub const ITERATIONS: usize = 8;
/// Set-ups timed per run, each with cold caches; `setup_s` is their
/// median.
const SETUPS: usize = 3;
/// Campaigns repeated per run: at least `MIN_REPS`, so that the exact
/// counters can be compared across campaigns, and more while the run's
/// `--seconds` have not passed.
const MIN_REPS: usize = 2;

/// The campaign's seeds, generated from the workload seed.
pub fn seeds(seed: u64) -> Vec<Seed> {
    mopfuzzer::corpus::corpus(EXTRA_SEEDS, derive(seed, 1))
}

/// The campaign's configuration: the CLI's defaults with one worker and
/// one oracle worker, the 8-JVM differential pool, a derived RNG seed,
/// and a budget of `steps` simulated steps.
pub fn config(seed: u64, steps: u64) -> CampaignConfig {
    let mut config = CampaignConfig::new(MAX_ROUNDS);
    config.supervisor.max_steps = Some(steps);
    config.iterations_per_seed = ITERATIONS;
    config.rng_seed = derive(seed, 2);
    config.jobs = 1;
    config.oracle_jobs = 1;
    config
}

/// Empties the shared threaded-code cache and the `jopt` pipeline memo.
/// Every campaign does this itself when it starts; seed generation does
/// not.
pub fn cold_caches() {
    jexec::threaded::cache_reset();
    jopt::pipeline::cache_reset();
}

/// One round as seen by the observer: its disposition and a digest of
/// the campaign totals right after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRow {
    pub disposition: &'static str,
    pub digest: u64,
}

/// Collects a [`RoundRow`] per live round and, when timing, the wall
/// time of each round followed by one calibration kernel sample (kernel
/// time is excluded from the rounds' time).
#[derive(Default)]
pub struct Rounds {
    pub rows: Vec<RoundRow>,
    prev: (usize, u64, u64),
    /// Set while timing: the end of the previous interval.
    mark: Option<Instant>,
    segments: Vec<f64>,
    kernels: Vec<f64>,
}

impl Rounds {
    fn lap(&mut self) {
        if let Some(mark) = self.mark {
            self.segments.push(mark.elapsed().as_secs_f64());
            self.kernels.push(speed::kernel());
            self.mark = Some(Instant::now());
        }
    }
}

impl CampaignObserver for Rounds {
    fn round_finished(&mut self, round: usize, r: &CampaignResult) {
        let now = (r.completed_rounds(), r.errored_rounds, r.skipped_rounds);
        let disposition = if now.0 > self.prev.0 {
            "ok"
        } else if now.1 > self.prev.1 {
            "errored"
        } else if now.2 > self.prev.2 {
            "skipped"
        } else {
            "unknown"
        };
        self.prev = now;
        let digest = jopt::source_fingerprint(&format!(
            "{round} {disposition} {} {} {} {} {:?} {:?}",
            r.executions,
            r.steps,
            r.wasted_steps,
            r.bugs.len(),
            r.bugs.last().map(|b| &b.id),
            r.final_deltas.last().map(|d| d.to_bits()),
        ));
        self.rows.push(RoundRow {
            disposition,
            digest,
        });
        self.lap();
    }
}

/// A campaign's output: the per-round rows plus a digest of the whole
/// result (bugs with their mutants, coverage, deltas, errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    pub rows: Vec<RoundRow>,
    pub digest: u64,
    pub executions: u64,
    pub steps: u64,
    pub bugs: usize,
}

impl Output {
    pub fn of(rows: Vec<RoundRow>, result: &CampaignResult) -> Output {
        Output {
            rows,
            digest: result_digest(result),
            executions: result.executions,
            steps: result.steps,
            bugs: result.bugs.len(),
        }
    }

    /// Counts the operations (rounds) of `self` that fail against the
    /// reference `want`: a disposition other than `ok`, a round digest
    /// that differs, a round missing. A whole-result digest mismatch
    /// with every round agreeing fails the last round. Only the first
    /// `want.rows.len()` rounds are compared, so a prefix campaign checks
    /// against the full reference.
    pub fn failures(&self, want: &Output, prefix: bool) -> (u64, u64) {
        let attempted = want.rows.len().max(self.rows.len()) as u64;
        let mut failed = 0u64;
        for (i, w) in want.rows.iter().enumerate() {
            match self.rows.get(i) {
                Some(got) if got == w && got.disposition == "ok" => {}
                _ => failed += 1,
            }
        }
        failed += self.rows.len().saturating_sub(want.rows.len()) as u64;
        if !prefix && failed == 0 && self.digest != want.digest {
            failed = 1;
        }
        (attempted, failed)
    }
}

/// A canonical digest of everything a campaign result holds: bugs with
/// their printed mutants, work totals, coverage blocks in order, deltas,
/// failures, quarantine, stop reason and promotions.
pub fn result_digest(r: &CampaignResult) -> u64 {
    let mut text = String::new();
    for b in &r.bugs {
        let _ = writeln!(
            text,
            "{} {:?} {} {} {} {:?} {} {}\n{}",
            b.id,
            b.component,
            b.is_crash,
            b.jvm,
            b.seed,
            b.mutators,
            b.at_execs,
            b.at_steps,
            mjava::print(&b.mutant)
        );
    }
    let _ = writeln!(
        text,
        "{} {} {} {}",
        r.executions, r.steps, r.wasted_steps, r.wasted_execs
    );
    for area in [Area::C1, Area::C2, Area::Runtime, Area::Gc] {
        let _ = writeln!(text, "{:?}", r.coverage.blocks(area));
    }
    let failure = |f: &mopfuzzer::RoundFailure| format!("{} {} {:?}", f.round, f.attempt, f.error);
    let errors: Vec<String> = r.round_errors.iter().map(failure).collect();
    let deltas: Vec<u64> = r.final_deltas.iter().map(|d| d.to_bits()).collect();
    let _ = writeln!(
        text,
        "{deltas:?} {} {} {} {} {errors:?} {:?} {:?} {:?} {}",
        r.inconclusive_rounds,
        r.errored_rounds,
        r.skipped_rounds,
        r.retried_attempts,
        r.quarantined,
        r.stopped.as_ref().map(failure),
        r.promotions,
        r.interrupted
    );
    jopt::source_fingerprint(&text)
}

/// One timed campaign.
pub struct Timed {
    pub output: Output,
    /// Raw wall time of the campaign, calibration excluded.
    pub wall: f64,
    /// The wall time adjusted to nominal host speed round by round (see
    /// [`speed`]).
    pub adjusted: f64,
    pub session: Option<jtelemetry::Session>,
}

/// Runs one campaign, timed; it starts with cold caches, as every
/// campaign does. `session` is installed around the campaign and handed
/// back.
pub fn campaign(
    seeds: &[Seed],
    config: &CampaignConfig,
    session: Option<jtelemetry::Session>,
) -> Timed {
    let mut rounds = Rounds::default();
    let installed = session.is_some();
    if let Some(s) = session {
        jtelemetry::install(s);
    }
    rounds.mark = Some(Instant::now());
    let result = mopfuzzer::run_campaign_observed(seeds, config, &mut rounds);
    rounds.lap();
    let session = if installed { jtelemetry::take() } else { None };
    Timed {
        output: Output::of(rounds.rows, &result),
        wall: rounds.segments.iter().sum(),
        adjusted: speed::adjust(&rounds.segments, &rounds.kernels)
            .iter()
            .sum(),
        session,
    }
}

/// The exact work counters of the process-wide caches after a campaign.
fn cache_counters() -> [u64; 7] {
    let code = jexec::threaded::cache_stats();
    let memo = jopt::pipeline::cache_stats();
    [
        code.hits,
        code.misses,
        code.entries as u64,
        memo.hits,
        memo.misses,
        memo.entries as u64,
        jexec::threaded::inline_total(),
    ]
}

fn session(profiled: bool, traced: bool) -> Option<jtelemetry::Session> {
    if !profiled && !traced {
        return None;
    }
    let mut s = jtelemetry::Session::new();
    if profiled {
        s = s.with_profile();
    }
    if traced {
        s = s.with_trace();
    }
    Some(s)
}

/// Runs the workload; `profiled` selects `campaign_profiled`.
pub fn run(ctx: &Ctx, profiled: bool) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: generating the seeds (each candidate runs on the 8-JVM pool),
    // every time with cold caches, as a CLI campaign generates them.
    let mut setups = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUPS {
        cold_caches();
        let (generated, adjusted) = speed::timed(|| seeds(ctx.seed));
        inputs = generated;
        setups.push(adjusted);
    }
    out.set("setup_s", median(&setups));
    let budget = if profiled {
        PROFILED_BUDGET_STEPS
    } else {
        BUDGET_STEPS
    };
    let cfg = config(ctx.seed, budget);

    // The reference: the interp substrate on the same inputs, outside
    // every timed region. A traced run also journals it for the probes.
    jexec::set_default_exec_mode(jexec::ExecMode::Interp);
    let mut ref_rounds = Rounds::default();
    let ref_journal = ctx.work.join("reference.jsonl");
    let ref_result = if ctx.trace {
        match mopfuzzer::run_campaign_with_journal_observed(
            &inputs,
            &cfg,
            &ref_journal,
            Some(&mut ref_rounds),
        ) {
            Ok(r) => r,
            Err(e) => {
                out.problem(format!("reference journal: {e}"));
                mopfuzzer::CampaignResult::default()
            }
        }
    } else {
        mopfuzzer::run_campaign_observed(&inputs, &cfg, &mut ref_rounds)
    };
    let reference = ctx.reference(Output::of(ref_rounds.rows, &ref_result));
    jexec::set_default_exec_mode(jexec::ExecMode::Threaded);

    // Timed campaigns, tracing off.
    let mut walls = Vec::new();
    let mut adjusted = Vec::new();
    let mut counters: Vec<[u64; 7]> = Vec::new();
    let mut last = None;
    let started = Instant::now();
    let (min_reps, seconds) = if ctx.trace {
        (1, 0.0)
    } else {
        (MIN_REPS, ctx.seconds)
    };
    while walls.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        let timed = campaign(&inputs, &cfg, session(profiled, false));
        counters.push(cache_counters());
        let (attempted, failed) = timed.output.failures(&reference, false);
        out.operations(attempted, failed);
        walls.push(timed.wall);
        adjusted.push(timed.adjusted);
        last = Some(timed.output);
    }
    let output = last.expect("at least one campaign ran");
    if counters.windows(2).any(|w| w[0] != w[1]) {
        out.problem(format!(
            "exact cache counters differ across campaigns: {counters:?}"
        ));
    }
    let wall = median(&adjusted);
    out.set("wall_s", wall);
    out.e2e_notes
        .insert("wall_s", format!("median of {} campaigns", adjusted.len()));
    out.set("execs_per_s", output.executions as f64 / wall);
    out.set("steps_per_s", output.steps as f64 / wall);
    out.set("bugs_found", output.bugs as f64);
    out.lines.push(format!(
        "campaign budget={budget} rounds={} iterations={} seeds={} executions={} steps={} bugs={} reps={} raw walls={:?} adjusted={:?}",
        output.rows.len(),
        cfg.iterations_per_seed,
        inputs.len(),
        output.executions,
        output.steps,
        output.bugs,
        walls.len(),
        walls,
        adjusted
    ));
    out.lines.push(format!(
        "exact code_cache(hits,misses,entries) memo(hits,misses,entries) inlines = {:?}",
        counters[0]
    ));

    if ctx.trace {
        traced(
            ctx,
            &mut out,
            profiled,
            &inputs,
            &cfg,
            &reference,
            wall,
            &ref_journal,
        );
    }
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// The traced run: the same campaign under a tracing session, the
/// tracing and profiling overheads, and the probes.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    out: &mut Outcome,
    profiled: bool,
    inputs: &[Seed],
    cfg: &CampaignConfig,
    reference: &Output,
    untraced_wall: f64,
    ref_journal: &std::path::Path,
) {
    let timed = campaign(inputs, cfg, session(profiled, true));
    let (attempted, failed) = timed.output.failures(reference, false);
    out.operations(attempted, failed);
    let wall = timed.wall;
    let adjusted = timed.adjusted;
    let mut traced = timed.session.expect("traced session");
    let events = traced.take_trace();
    let agg = trace::aggregate(&events, &traced.snapshot());
    trace::fill_layers(out, &agg, wall);
    out.layer("telemetry.trace_overhead_ratio", adjusted / untraced_wall);

    // Profiling overhead on a prefix of the same campaign.
    let prefix = config(ctx.seed, PROFILED_BUDGET_STEPS / 2);
    let plain = campaign(inputs, &prefix, None);
    let prof = campaign(inputs, &prefix, session(true, false));
    let (plain_wall, prof_wall) = (plain.adjusted, prof.adjusted);
    for o in [&plain.output, &prof.output] {
        let (attempted, failed) = o.failures(&reference_prefix(reference, o.rows.len()), true);
        out.operations(attempted, failed);
    }
    out.layer("telemetry.profile_overhead_ratio", prof_wall / plain_wall);
    out.lines.push(format!(
        "traced wall={wall:.4}s (adjusted {adjusted:.4}s) untraced adjusted wall={untraced_wall:.4}s; profile overhead on {} rounds: plain {plain_wall:.4}s profiled {prof_wall:.4}s (adjusted)",
        plain.output.rows.len()
    ));

    let journals = vec![ref_journal.to_path_buf()];
    let programs = probes::programs_from_journals(&journals);
    probes::substrate(out, &programs);
    probes::persistence(out, &journals, inputs, &ctx.work);
    probes::reduction(out, &journals);
    probes::daemon(out, ctx);
    let share = |row: &str| 100.0 * out.layers.get(row).copied().unwrap_or(0.0);
    let optimize_share = 100.0 * out.layers.get("jopt.optimize_s").copied().unwrap_or(0.0) / wall;
    out.lines.push(format!(
        "acceptance: of traced wall, vm_execution spans (jvmsim with jexec and jopt inside) cover {:.1}%, interp_run (jexec) {:.1}%, optimize (jopt) {optimize_share:.1}%",
        share("jvmsim.vm_busy_share"),
        share("jexec.run_share"),
    ));
}

fn reference_prefix(reference: &Output, rounds: usize) -> Output {
    Output {
        rows: reference.rows.iter().take(rounds).cloned().collect(),
        ..reference.clone()
    }
}
