//! The paper's evaluation (§4): Tables 2–6, Figures 1–5 and the §3.4
//! weighting ablation, rendered from one run of each distinct campaign.
//!
//! Several artifacts are slices of the same campaign: Tables 2–4 read
//! one dual-family campaign, and Figures 2–5 read the same five
//! equal-budget tool campaigns. [`Results::run`] runs each distinct
//! campaign once; every `render_*` function is then a pure view of the
//! shared [`Results`] and returns the text of its section.

use crate::{experiment_seeds, render_table};
use baselines::{tool_campaign, Tool, ToolCampaignConfig};
use jvmsim::{Area, BugKind, Component, Family, InjectedBug, JvmSpec, ReportStatus, Version};
use mopfuzzer::campaign::FoundBug;
use mopfuzzer::corpus::Seed;
use mopfuzzer::stats::{large_jumps, median, mutator_ratios, pair_ratios, trajectory};
use mopfuzzer::{
    fuzz, run_campaign, CampaignConfig, CampaignResult, FuzzConfig, FuzzOutcome, MutatorKind,
    Variant, WeightScheme,
};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

/// Campaign sizes. [`Sizes::at_scale`] is the paper configuration; a
/// larger scale runs longer campaigns and tightens the statistics.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rounds per JVM family of the Tables 2–4 campaign.
    pub family_rounds: usize,
    /// Rounds per JVM family of the Table 5 campaign.
    pub mutator_rounds: usize,
    /// JVM-execution budget of every tool campaign (Table 6, Figs 2–5).
    pub tool_budget: u64,
    /// Fuzz runs Figure 1 may try before it gives up on finding a crash.
    pub crash_search: u64,
    /// Fuzz runs per weighting scheme in the ablation.
    pub ablation_runs: u64,
}

impl Sizes {
    /// The paper configuration at `scale`.
    pub fn at_scale(scale: u64) -> Sizes {
        Sizes {
            family_rounds: (40 * scale) as usize,
            mutator_rounds: (50 * scale) as usize,
            tool_budget: 1_500 * scale,
            crash_search: 200 * scale,
            ablation_runs: 24 * scale,
        }
    }
}

/// Parses `paper`'s arguments: at most one positional scale, an
/// integer in `1..=100` (default 1).
pub fn parse_scale(args: &[String]) -> Result<u64, String> {
    match args {
        [] => Ok(1),
        [arg] => match arg.parse::<u64>() {
            Ok(scale @ 1..=100) => Ok(scale),
            _ => Err(format!("scale must be an integer in 1..=100, got `{arg}`")),
        },
        _ => Err(format!("expected at most one argument, got {}", args.len())),
    }
}

/// The merged outcome of the two per-family campaigns.
#[derive(Debug, Default)]
struct DualResult {
    /// Deduplicated bugs across both campaigns.
    bugs: Vec<FoundBug>,
    /// Total JVM executions.
    executions: u64,
}

/// Runs one campaign per family (paper §4.1's setup) and merges the
/// findings. The paper runs its campaigns against OpenJDK and OpenJ9
/// *separately*: pooling both families would let HotSpur crash bugs mask
/// J9 miscompilations, because a crash preempts the output comparison.
fn dual_family_campaign(seeds: &[Seed], rounds_per_family: usize) -> DualResult {
    let hotspur: Vec<JvmSpec> = Version::ALL.iter().map(|&v| JvmSpec::hotspur(v)).collect();
    let j9: Vec<JvmSpec> = [Version::V8, Version::V11, Version::V17]
        .into_iter()
        .map(JvmSpec::j9)
        .collect();
    let mut merged = DualResult::default();
    let mut seen = HashSet::new();
    for (pool, salt) in [(hotspur, 1u64), (j9, 2u64)] {
        let config = CampaignConfig {
            iterations_per_seed: 50,
            variant: Variant::Full,
            rounds: rounds_per_family,
            pool,
            rng_seed: 2024 + salt,
            supervisor: Default::default(),
            fault: None,
            jobs: 1,
            oracle_jobs: 1,
        };
        let result = run_campaign(seeds, &config);
        merged.executions += result.executions;
        for bug in result.bugs {
            if seen.insert(bug.id.clone()) {
                merged.bugs.push(bug);
            }
        }
    }
    merged
}

/// The tools of Figures 2–5, in the order Figures 2 and 3 list them; the
/// last two are the variants Figures 4 and 5 add to the full system.
const FIGURE_TOOLS: [Tool; 5] = [
    Tool::MopFuzzer(Variant::Full),
    Tool::JitFuzz,
    Tool::Artemis,
    Tool::MopFuzzer(Variant::NoGuidance),
    Tool::MopFuzzer(Variant::RandomMp),
];

/// The tools of Table 6, in its column order.
const TABLE6_TOOLS: [Tool; 3] = [Tool::MopFuzzer(Variant::Full), Tool::Artemis, Tool::JitFuzz];

/// Figures 2–5: every tool at the equal budget over the full pool.
fn figure_config(sizes: &Sizes) -> ToolCampaignConfig {
    ToolCampaignConfig::with_budget(sizes.tool_budget)
}

/// Table 6, the 24h-on-JDK17 setting: guidance and differential
/// restricted to the version-17 JVMs of both families.
fn table6_config(sizes: &Sizes) -> ToolCampaignConfig {
    ToolCampaignConfig {
        max_executions: sizes.tool_budget,
        pool: vec![JvmSpec::hotspur(Version::V17), JvmSpec::j9(Version::V17)],
        ..ToolCampaignConfig::with_budget(0)
    }
}

/// Figure 1's chosen run: the seed's name, the configuration and the
/// outcome of the first crashing run of the search.
type CrashRun = (String, FuzzConfig, FuzzOutcome);

/// The weighting schemes of the §3.4 ablation, with their row labels.
const SCHEMES: [(&str, WeightScheme); 2] = [
    ("Eq. 3 (normalized Δ)", WeightScheme::NormalizedDelta),
    ("raw sum (rejected)", WeightScheme::RawSum),
];

/// Every campaign of the evaluation, each run once.
#[derive(Debug)]
pub struct Results {
    /// The sizes the campaigns ran at.
    sizes: Sizes,
    /// Tables 2–4: one campaign per family over `experiment_seeds(6)`.
    families: DualResult,
    /// Table 5: the longer per-family campaign over `experiment_seeds(8)`.
    mutators: DualResult,
    /// Figures 2–5: one campaign per tool of [`FIGURE_TOOLS`].
    figures: Vec<(Tool, CampaignResult)>,
    /// Table 6: one campaign per tool of [`TABLE6_TOOLS`].
    table6: Vec<(Tool, CampaignResult)>,
    /// Figure 1: the first crashing run the search found, if any.
    crash: Option<CrashRun>,
    /// The ablation, per scheme of [`SCHEMES`]: the medians over runs of
    /// the final Δ, the distinct behaviours, and the weight concentration.
    weights: Vec<[f64; 3]>,
}

impl Results {
    /// Runs every distinct campaign of the evaluation once. Progress
    /// lines go to stderr.
    pub fn run(sizes: &Sizes) -> Results {
        let seeds6 = experiment_seeds(6);
        let seeds8 = experiment_seeds(8);
        eprintln!(
            "running one campaign per JVM family: {} rounds each over {} seeds ...",
            sizes.family_rounds,
            seeds6.len()
        );
        let families = dual_family_campaign(&seeds6, sizes.family_rounds);
        eprintln!(
            "running one campaign per JVM family: {} rounds each ...",
            sizes.mutator_rounds
        );
        let mutators = dual_family_campaign(&seeds8, sizes.mutator_rounds);
        let table6 = tool_campaigns(&TABLE6_TOOLS, &seeds8, &table6_config(sizes));
        let figures = tool_campaigns(&FIGURE_TOOLS, &seeds8, &figure_config(sizes));
        Results {
            sizes: *sizes,
            families,
            mutators,
            figures,
            table6,
            crash: crash_search(sizes.crash_search),
            weights: SCHEMES
                .iter()
                .map(|&(label, scheme)| {
                    eprintln!("running {label} ...");
                    weight_medians(scheme, sizes.ablation_runs)
                })
                .collect(),
        }
    }

    /// The Figures 2–5 campaign of `tool`.
    fn figure(&self, tool: Tool) -> &CampaignResult {
        let (_, result) = self
            .figures
            .iter()
            .find(|(t, _)| *t == tool)
            .expect("every figure tool runs");
        result
    }
}

fn tool_campaigns(
    tools: &[Tool],
    seeds: &[Seed],
    config: &ToolCampaignConfig,
) -> Vec<(Tool, CampaignResult)> {
    tools
        .iter()
        .map(|&tool| {
            eprintln!(
                "running {tool} (budget {} executions) ...",
                config.max_executions
            );
            (tool, tool_campaign(tool, seeds, config))
        })
        .collect()
}

/// Figure 1's search: RNG seeds in order until a run ends in a crash
/// after at least ten mutants.
fn crash_search(tries: u64) -> Option<CrashRun> {
    let seeds = experiment_seeds(4);
    let pool = JvmSpec::differential_pool();
    (0..tries).find_map(|round| {
        let seed = &seeds[round as usize % seeds.len()];
        let config = FuzzConfig {
            max_iterations: 50,
            variant: Variant::Full,
            guidance: pool[round as usize % pool.len()].clone(),
            rng_seed: 31 + round,
            weight_scheme: Default::default(),
            banned: Vec::new(),
            fault: None,
        };
        let outcome = fuzz(&seed.program, &config);
        (outcome.crash.is_some() && outcome.records.len() >= 10)
            .then(|| (seed.name.clone(), config, outcome))
    })
}

/// `runs` bug-free fuzz runs under `scheme`; the medians of their final
/// Δ, distinct behaviours, and weight concentration.
fn weight_medians(scheme: WeightScheme, runs: u64) -> [f64; 3] {
    let seeds = experiment_seeds(6);
    let pool = JvmSpec::differential_pool();
    let mut deltas = Vec::new();
    let mut distinct = Vec::new();
    let mut concentration = Vec::new();
    for round in 0..runs {
        let seed = &seeds[round as usize % seeds.len()];
        let config = FuzzConfig {
            max_iterations: 30,
            variant: Variant::Full,
            guidance: pool[round as usize % pool.len()].clone().without_bugs(),
            rng_seed: 17 + round,
            weight_scheme: scheme,
            banned: Vec::new(),
            fault: None,
        };
        let outcome = fuzz(&seed.program, &config);
        deltas.push(outcome.final_delta());
        distinct.push(outcome.records.last().map_or(0, |r| r.obv.distinct()) as f64);
        // Weight concentration: share of total weight held by the single
        // heaviest mutator (1/13 ≈ 0.077 = uniform).
        let total: f64 = outcome.weights.values().sum();
        let max = outcome.weights.values().cloned().fold(0.0f64, f64::max);
        concentration.push(max / total.max(f64::MIN_POSITIVE));
    }
    [median(&deltas), median(&distinct), median(&concentration)]
}

/// The sections in print order.
pub const SECTIONS: [fn(&Results) -> String; 11] = [
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    render_table6,
    render_fig1,
    render_fig2,
    render_fig3,
    render_fig4,
    render_fig5,
    render_ablation_weights,
];

/// Every section, in print order.
pub fn render_all(results: &Results) -> String {
    SECTIONS.iter().map(|render| render(results)).collect()
}

/// Appends a table as `println!("{}", render_table(..))` prints it.
fn push_table(out: &mut String, title: &str, header: &[&str], rows: &[Vec<String>]) {
    out.push_str(&render_table(title, header, rows));
    out.push('\n');
}

/// The ids of the bugs a campaign found.
fn found_ids(result: &DualResult) -> HashSet<&str> {
    result.bugs.iter().map(|b| b.id.as_str()).collect()
}

type BugPred = fn(&InjectedBug) -> bool;

/// Table 2 — status of the reported bugs. The injected-bug library *is*
/// the paper's reported-bug population, so the "paper" columns
/// regenerate exactly; the "found" column shows how much of it a
/// budget-limited campaign rediscovers.
pub fn render_table2(results: &Results) -> String {
    let library = jvmsim::bugs::library();
    let result = &results.families;
    let found: Vec<_> = result
        .bugs
        .iter()
        .filter(|b| library.iter().any(|lib| lib.id == b.id))
        .collect();
    let found_ids = found_ids(result);
    let count = |family: Family, pred: BugPred, only_found: bool| {
        library
            .iter()
            .filter(|b| b.family == family && pred(b))
            .filter(|b| !only_found || found_ids.contains(b.id))
            .count()
    };
    let row = |label: &str, pred: BugPred| {
        let (hotspur, j9) = (
            count(Family::HotSpur, pred, false),
            count(Family::J9, pred, false),
        );
        vec![
            label.to_string(),
            hotspur.to_string(),
            j9.to_string(),
            (hotspur + j9).to_string(),
            format!(
                "{}+{}",
                count(Family::HotSpur, pred, true),
                count(Family::J9, pred, true)
            ),
        ]
    };
    let statuses: [(&str, BugPred); 5] = [
        ("Confirmed", |_| true),
        ("In Progress", |b| b.status == ReportStatus::InProgress),
        ("Fixed", |b| b.status == ReportStatus::Fixed),
        ("Duplicate", |b| b.status == ReportStatus::Duplicate),
        ("Not Backportable", |b| {
            b.status == ReportStatus::NotBackportable
        }),
    ];
    let kinds: [(&str, BugPred); 2] = [
        ("Crash", |b| matches!(b.kind, BugKind::Crash)),
        ("Miscompilation", |b| {
            matches!(b.kind, BugKind::Miscompile(_))
        }),
    ];
    let mut rows: Vec<Vec<String>> = statuses.iter().map(|&(l, p)| row(l, p)).collect();
    let mut separator = vec![String::new(); 5];
    separator[0] = "--- types ---".into();
    rows.push(separator);
    rows.extend(kinds.iter().map(|&(l, p)| row(l, p)));

    let mut out = String::new();
    push_table(&mut out, "Table 2: Status of the reported bugs (paper columns regenerate from the bug library; 'found' = rediscovered in this campaign)", &["Category", "OpenJDK", "OpenJ9", "Total", "found"], &rows);
    let _ = writeln!(
        out,
        "campaign: 2×{} rounds, {} executions, {} unique bugs found ({} crash / {} miscompile)",
        results.sizes.family_rounds,
        result.executions,
        found.len(),
        found.iter().filter(|b| b.is_crash).count(),
        found.iter().filter(|b| !b.is_crash).count(),
    );
    out
}

/// Table 3 — distribution of the detected bugs across OpenJDK LTS and
/// mainline versions (one bug may affect several versions).
pub fn render_table3(results: &Results) -> String {
    let library = jvmsim::bugs::library();
    let found_ids = found_ids(&results.families);
    let hotspur = |v: Version| {
        library
            .iter()
            .filter(move |b| b.family == Family::HotSpur && b.affected.contains(&v))
    };
    let mut header = vec!["Affected Version"];
    let mut bugs_row = vec!["#Bugs (paper)".to_string()];
    let mut nb_row = vec!["#Not Backportable (paper)".to_string()];
    let mut found_row = vec!["#found (this campaign)".to_string()];
    for v in Version::ALL {
        header.push(match v {
            Version::V8 => "JDK-8",
            Version::V11 => "JDK-11",
            Version::V17 => "JDK-17",
            Version::V21 => "JDK-21",
            Version::Mainline => "Mainline",
        });
        bugs_row.push(hotspur(v).count().to_string());
        // The paper counts each not-backportable bug once, at the highest
        // version it affects (12 at JDK-8, 2 at JDK-11).
        nb_row.push(
            hotspur(v)
                .filter(|b| b.status == ReportStatus::NotBackportable)
                .filter(|b| b.affected.iter().max() == Some(&v))
                .count()
                .to_string(),
        );
        found_row.push(
            hotspur(v)
                .filter(|b| found_ids.contains(b.id))
                .count()
                .to_string(),
        );
    }
    let mut out = String::new();
    push_table(
        &mut out,
        "Table 3: Bug distribution across OpenJDK versions",
        &header,
        &[bugs_row, nb_row, found_row],
    );
    let _ = writeln!(out, "campaign executions: {}", results.families.executions);
    out
}

/// Table 4 — distribution of the affected JIT components
/// (HotSpot-analogue on the left, OpenJ9-analogue on the right).
pub fn render_table4(results: &Results) -> String {
    let library = jvmsim::bugs::library();
    let found_ids = found_ids(&results.families);
    let rows_for = |family: Family| -> Vec<Vec<String>> {
        let mut per: Vec<(Component, usize, usize)> = Vec::new();
        for bug in library.iter().filter(|b| b.family == family) {
            let found = usize::from(found_ids.contains(bug.id));
            match per.iter_mut().find(|(c, _, _)| *c == bug.component) {
                Some(entry) => {
                    entry.1 += 1;
                    entry.2 += found;
                }
                None => per.push((bug.component, 1, found)),
            }
        }
        per.sort_by_key(|(_, n, _)| std::cmp::Reverse(*n));
        per.into_iter()
            .map(|(c, n, f)| vec![c.label().to_string(), n.to_string(), f.to_string()])
            .collect()
    };
    let mut out = String::new();
    for (title, column, family) in [
        (
            "Table 4 (left): HotSpot components",
            "HotSpot Component",
            Family::HotSpur,
        ),
        (
            "Table 4 (right): OpenJ9 components",
            "OpenJ9 Component",
            Family::J9,
        ),
    ] {
        push_table(
            &mut out,
            title,
            &[column, "# (paper)", "# found"],
            &rows_for(family),
        );
    }
    let _ = writeln!(out, "campaign executions: {}", results.families.executions);
    out
}

/// Table 5 — the top mutators and mutator pairs involved in
/// bug-triggering test cases. Paper: LoopUnroll. 30.5%, LockElim. 25.4%,
/// DeReflect. 22.0%, LoopUnswitch. 16.9%, EscapeAnalys. 16.9%; top pair
/// LoopUnroll.+LockElim. 13.6%.
pub fn render_table5(results: &Results) -> String {
    let result = &results.mutators;
    let mut out = String::new();
    if result.bugs.is_empty() {
        let _ = writeln!(out, "== Table 5: top mutators in bug-triggering cases ==");
        let _ = writeln!(
            out,
            "no bugs found at this budget; increase the scale argument"
        );
        return out;
    }
    let rows: Vec<Vec<String>> = mutator_ratios(&result.bugs)
        .iter()
        .take(5)
        .map(|(k, r)| vec![k.label().to_string(), format!("{:.1}%", r * 100.0)])
        .collect();
    push_table(
        &mut out,
        "Table 5 (left): top mutators in bug-triggering cases",
        &["Top Mutators", "Ratio"],
        &rows,
    );
    let rows: Vec<Vec<String>> = pair_ratios(&result.bugs)
        .iter()
        .take(5)
        .map(|((a, b), r)| {
            vec![
                format!("{} + {}", a.label(), b.label()),
                format!("{:.1}%", r * 100.0),
            ]
        })
        .collect();
    push_table(
        &mut out,
        "Table 5 (right): top mutator pairs",
        &["Top Mutator Pairs", "Ratio"],
        &rows,
    );
    let _ = writeln!(
        out,
        "basis: {} bug-triggering cases from 2x{} rounds ({} executions)",
        result.bugs.len(),
        results.sizes.mutator_rounds,
        result.executions
    );
    let _ = writeln!(out, "paper reference: LoopUnroll 30.5%, LockElim 25.4%, DeReflect 22.0%; top pair LoopUnroll+LockElim 13.6%");
    out
}

/// Table 6 — bug detection comparison on version-17 JVMs within an equal
/// budget: MopFuzzer vs Artemis vs JITFuzz, per component. Paper:
/// MopFuzzer 6 (GVN 2, IdealLoop 1, MacroExp 1, CondConstProp 1,
/// Runtime 1), Artemis 4, JITFuzz 2 — every find unique to its tool.
pub fn render_table6(results: &Results) -> String {
    let per_tool: Vec<BTreeMap<Component, Vec<&str>>> = results
        .table6
        .iter()
        .map(|(_, result)| {
            let mut by_component: BTreeMap<Component, Vec<&str>> = BTreeMap::new();
            for bug in &result.bugs {
                by_component.entry(bug.component).or_default().push(&bug.id);
            }
            by_component
        })
        .collect();

    // Uniqueness: a bug id found by exactly one tool.
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for by_component in &per_tool {
        let ids: HashSet<&str> = by_component.values().flatten().copied().collect();
        for id in ids {
            *counts.entry(id).or_insert(0) += 1;
        }
    }
    let cell = |ids: &[&str]| {
        let unique = ids.iter().filter(|id| counts.get(*id) == Some(&1)).count();
        format!("{} ({})", ids.len(), unique)
    };

    let mut components: Vec<Component> = per_tool.iter().flat_map(|m| m.keys().copied()).collect();
    components.sort();
    components.dedup();
    let mut rows: Vec<Vec<String>> = components
        .iter()
        .map(|component| {
            let mut row = vec![component.label().to_string()];
            for by_component in &per_tool {
                row.push(cell(by_component.get(component).map_or(&[], |ids| ids)));
            }
            row
        })
        .collect();
    let mut totals = vec!["Total".to_string()];
    for by_component in &per_tool {
        let all: Vec<&str> = by_component.values().flatten().copied().collect();
        totals.push(cell(&all));
    }
    rows.push(totals);

    let mut out = String::new();
    push_table(&mut out, "Table 6: bugs per component within an equal budget on version-17 JVMs (unique finds in parentheses)", &["Components", "MopFuzzer", "Artemis", "JITFuzz"], &rows);
    let _ = writeln!(
        out,
        "paper reference: MopFuzzer 6 (6), Artemis 4 (4), JITFuzz 2 (2)"
    );
    out
}

/// Figure 1 — the Euclidean-distance trajectory of a bug-triggering run:
/// Δ(OBVᵢ, OBV_seed) per iteration, with "large jump" iterations marked.
/// The paper's case study (JDK-8312741) crashes at the 48th mutant after
/// a rising, jumpy curve.
pub fn render_fig1(results: &Results) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Figure 1: Δ(OBV_i, OBV_seed) per iteration ==");
    let Some((seed_name, config, outcome)) = &results.crash else {
        let _ = writeln!(
            out,
            "no crashing run found at this scale; rerun with a larger scale argument"
        );
        return out;
    };
    let crash = outcome.crash.as_ref().expect("crashing run selected");
    let curve = trajectory(&outcome.seed_obv, &outcome.records);
    let jumps = large_jumps(&curve, 4.0);
    let _ = writeln!(
        out,
        "seed: {seed_name}, guidance JVM: {}, crash at mutant {}: {} ({})",
        config.guidance.name(),
        outcome.records.len(),
        crash.bug_id,
        crash.component.label()
    );
    let _ = writeln!(out, "{}", sparkline(&curve));
    let _ = writeln!(out, "iter, delta, mutator, jump");
    for (i, record) in outcome.records.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:4}, {:8.2}, {:24}, {}",
            record.iteration,
            curve[i],
            record.mutator.label(),
            if jumps.contains(&i) { "JUMP" } else { "" }
        );
    }
    let _ = writeln!(
        out,
        "shape check: starts at {:.1}, ends at {:.1}, {} large jumps — paper: low start, high end, several jumps, crash after accumulation",
        curve.first().copied().unwrap_or(0.0),
        curve.last().copied().unwrap_or(0.0),
        jumps.len()
    );
    out
}

/// Figure 2 — block coverage per JVM area for MopFuzzer, JITFuzz and
/// Artemis within an equal budget. Paper: differences are small
/// (~1–2 pp); MopFuzzer leads on C1 and C2, JITFuzz leads on GC.
pub fn render_fig2(results: &Results) -> String {
    let rows: Vec<Vec<String>> = results.figures[..3]
        .iter()
        .map(|(tool, result)| {
            let mut row = vec![tool.to_string()];
            for area in Area::ALL {
                row.push(format!("{:.1}%", result.coverage.percent(area)));
            }
            row.push(format!("{:.1}%", result.coverage.summary_percent()));
            row
        })
        .collect();
    let mut out = String::new();
    push_table(
        &mut out,
        "Figure 2: block coverage per JVM area (equal execution budget)",
        &["Tool", "C1", "C2", "Runtime", "GC", "Summary"],
        &rows,
    );
    let _ = writeln!(out, "paper reference: summary MopFuzzer 63.7%, JITFuzz 62.0%, Artemis 62.8%; MopFuzzer ahead on C1/C2, JITFuzz ahead on GC");
    out
}

/// Figure 3 — distribution of the final-mutant Δ per tool. Paper:
/// medians MopFuzzer 3881, JITFuzz 1192, Artemis in between; absolute
/// values depend on the substrate, the ordering is the shape.
pub fn render_fig3(results: &Results) -> String {
    let tools = &results.figures[..3];
    let rows: Vec<Vec<String>> = tools
        .iter()
        .map(|(tool, result)| format_box(&tool.to_string(), &result.final_deltas))
        .collect();
    let mut out = String::new();
    push_table(
        &mut out,
        "Figure 3: final-mutant Δ distribution per tool (box plot numbers)",
        &["Tool", "min", "q1", "median", "q3", "max", "n"],
        &rows,
    );
    for (tool, result) in tools {
        let _ = writeln!(out, "median {tool}: {:.1}", result.median_delta());
    }
    let _ = writeln!(
        out,
        "paper reference ordering: MopFuzzer > Artemis > JITFuzz (medians 3881 / – / 1192)"
    );
    out
}

/// Figure 4 — the ablation: final-mutant Δ distribution for MopFuzzer vs
/// MopFuzzer_g (no guidance) and MopFuzzer_r (random MP). Paper:
/// −19.9% (3881 → 3107) and −65.1% (3881 → 1353).
pub fn render_fig4(results: &Results) -> String {
    let variants = Variant::ALL.map(|v| (v, results.figure(Tool::MopFuzzer(v))));
    let rows: Vec<Vec<String>> = variants
        .iter()
        .map(|(variant, result)| format_box(&variant.to_string(), &result.final_deltas))
        .collect();
    let mut out = String::new();
    push_table(
        &mut out,
        "Figure 4: final-mutant Δ distribution per variant (box plot numbers)",
        &["Variant", "min", "q1", "median", "q3", "max", "n"],
        &rows,
    );
    let full = variants[0].1.median_delta().max(f64::EPSILON);
    for (variant, result) in &variants {
        let median = result.median_delta();
        let _ = writeln!(
            out,
            "median {variant}: {median:.1} ({:+.1}% vs full)",
            (median - full) / full * 100.0
        );
    }
    let _ = writeln!(
        out,
        "paper reference: MopFuzzer_g −19.9%, MopFuzzer_r −65.1% vs full"
    );
    out
}

/// Figure 5 — (a) bugs detected over (simulated) time per variant;
/// (b) overlap of the bug sets across variants. Paper: the full system
/// finds the most bugs and nearly subsumes both variants.
pub fn render_fig5(results: &Results) -> String {
    let per_variant = Variant::ALL.map(|v| (v, &results.figure(Tool::MopFuzzer(v)).bugs));
    let mut out = String::new();

    // (a) bugs over time: cumulative counts at deciles of the budget.
    let _ = writeln!(out, "== Figure 5a: bugs detected over simulated time ==");
    let max_steps = per_variant
        .iter()
        .flat_map(|(_, bugs)| bugs.iter().map(|b| b.at_steps))
        .max()
        .unwrap_or(1);
    let rows: Vec<Vec<String>> = per_variant
        .iter()
        .map(|(variant, bugs)| {
            let mut row = vec![variant.to_string()];
            for decile in 1..=10u64 {
                let cutoff = max_steps * decile / 10;
                row.push(
                    bugs.iter()
                        .filter(|b| b.at_steps <= cutoff)
                        .count()
                        .to_string(),
                );
            }
            row
        })
        .collect();
    push_table(
        &mut out,
        "cumulative bug count at each tenth of the time budget",
        &[
            "Variant", "10%", "20%", "30%", "40%", "50%", "60%", "70%", "80%", "90%", "100%",
        ],
        &rows,
    );

    // (b) overlap.
    let _ = writeln!(out, "== Figure 5b: overlap of detected bugs ==");
    let sets = per_variant.map(|(v, bugs)| (v, bugs.iter().map(|b| &b.id).collect::<HashSet<_>>()));
    for (v, set) in &sets {
        let _ = writeln!(out, "{v}: {} bugs", set.len());
    }
    let full = &sets[0].1;
    for (v, set) in &sets[1..] {
        let _ = writeln!(
            out,
            "{v}: {} shared with MopFuzzer, {} unique to {v}, {} unique to MopFuzzer",
            set.intersection(full).count(),
            set.difference(full).count(),
            full.difference(set).count()
        );
    }
    let _ = writeln!(out, "paper reference: MopFuzzer finds nearly all bugs of both variants; one bug is unique to MopFuzzer_g");
    out
}

/// Ablation of the weighting scheme (paper §3.4): the paper's normalized
/// Euclidean update (Eq. 3) versus the rejected raw-sum alternative,
/// under which weights collapse onto whichever mutator touches frequent
/// behaviours (inlining) and final mutants trigger fewer distinct
/// behaviours.
pub fn render_ablation_weights(results: &Results) -> String {
    let rows: Vec<Vec<String>> = SCHEMES
        .iter()
        .zip(&results.weights)
        .map(|((label, _), [delta, distinct, concentration])| {
            vec![
                label.to_string(),
                format!("{delta:.1}"),
                format!("{distinct:.1}"),
                format!("{concentration:.2}"),
            ]
        })
        .collect();
    let mut out = String::new();
    push_table(
        &mut out,
        "Weighting-scheme ablation (medians over runs)",
        &[
            "Scheme",
            "final Δ",
            "distinct behaviours",
            "weight concentration",
        ],
        &rows,
    );
    let _ = writeln!(
        out,
        "expected shape: the raw-sum scheme concentrates weight on one mutator \
         (concentration → 1.0) and triggers fewer distinct behaviours; there are {} mutators, \
         so uniform concentration is {:.2}",
        MutatorKind::ALL.len(),
        1.0 / MutatorKind::ALL.len() as f64
    );
    out
}

/// A crude ASCII sparkline.
fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::EPSILON, f64::max);
    values
        .iter()
        .map(|v| {
            let idx = ((v / max) * (GLYPHS.len() - 1) as f64).round() as usize;
            GLYPHS[idx.min(GLYPHS.len() - 1)]
        })
        .collect()
}

/// A boxplot five-number summary row.
fn format_box(label: &str, values: &[f64]) -> Vec<String> {
    let mut row = vec![label.to_string()];
    row.extend(mopfuzzer::stats::five_numbers(values).map(|v| format!("{v:.1}")));
    row.push(values.len().to_string());
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn scale_is_one_positional_integer_in_range() {
        assert_eq!(parse_scale(&args(&[])), Ok(1));
        assert_eq!(parse_scale(&args(&["1"])), Ok(1));
        assert_eq!(parse_scale(&args(&["100"])), Ok(100));
        for bad in ["0", "101", "-1", "two", "1.5", "", "--scale"] {
            assert!(parse_scale(&args(&[bad])).is_err(), "{bad:?} accepted");
        }
        assert!(parse_scale(&args(&["1", "2"])).is_err());
    }

    #[test]
    fn at_scale_keeps_the_paper_sizes() {
        let one = Sizes::at_scale(1);
        assert_eq!(
            (one.family_rounds, one.mutator_rounds, one.tool_budget),
            (40, 50, 1_500)
        );
        assert_eq!((one.crash_search, one.ablation_runs), (200, 24));
        assert_eq!(Sizes::at_scale(3).tool_budget, 4_500);
    }

    #[test]
    fn sparkline_monotone_heights() {
        let s = sparkline(&[0.0, 1.0, 2.0, 4.0]);
        assert_eq!(s.chars().count(), 4);
    }

    /// Every section renders from one tiny run, and sharing a campaign
    /// changes nothing: the Full result Figures 2–5 read equals a fresh
    /// campaign at the same configuration.
    #[test]
    fn tiny_run_renders_every_section_from_shared_campaigns() {
        let sizes = Sizes {
            family_rounds: 2,
            mutator_rounds: 2,
            tool_budget: 120,
            crash_search: 40,
            ablation_runs: 2,
        };
        let results = Results::run(&sizes);
        // The sizes reach the found-something paths of Table 5 and Fig 1.
        assert!(!results.mutators.bugs.is_empty());
        assert!(results.crash.is_some());
        let titles = [
            "== Table 2: ",
            "== Table 3: ",
            "== Table 4 (left): ",
            "== Table 5 (left): ",
            "== Table 6: ",
            "== Figure 1: ",
            "== Figure 2: ",
            "== Figure 3: ",
            "== Figure 4: ",
            "== Figure 5a: ",
            "== Weighting-scheme ablation ",
        ];
        for (render, title) in SECTIONS.iter().zip(titles) {
            let text = render(&results);
            assert!(text.starts_with(title), "want {title:?}:\n{text}");
        }

        let fresh = tool_campaign(
            Tool::MopFuzzer(Variant::Full),
            &experiment_seeds(8),
            &figure_config(&sizes),
        );
        assert_eq!(results.figure(Tool::MopFuzzer(Variant::Full)), &fresh);
    }
}
