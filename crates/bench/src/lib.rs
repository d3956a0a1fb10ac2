//! # bench — the experiment harness
//!
//! The `paper` binary regenerates the paper's whole evaluation (§4):
//! Tables 2–6, Figures 1–5 and the §3.4 weighting ablation, each
//! distinct campaign run once and every section rendered from the shared
//! results (see [`paper`]). The `*_bench` binaries measure the engine's
//! layers and write the `BENCH_*.json` files; `benches/` holds the
//! Criterion micro-benchmarks. Run e.g.:
//!
//! ```text
//! cargo run --release -p bench --bin paper       # scale 1
//! cargo run --release -p bench --bin paper -- 4  # longer campaigns
//! ```
//!
//! `paper` takes one optional positional *scale* (an integer in
//! `1..=100`, default 1): larger scales run longer campaigns and tighten
//! the statistics. Results are printed as paper-style text tables with
//! the paper's reference numbers alongside, and recorded in
//! EXPERIMENTS.md.

use mopfuzzer::corpus::{self, Seed};
use std::fmt::Write as _;

pub mod paper;

/// Telemetry wiring for the experiment binaries: every `bench` binary
/// brackets its run with [`metrics::start`]/[`metrics::finish`], so
/// setting `BENCH_METRICS_OUT=FILE` makes a tool-comparison run emit the
/// same JSONL-snapshot + Prometheus exports as `mopfuzzer --metrics-out`
/// — directly comparable telemetry across the CLI, the baselines, and
/// the benchmarks (one shared `jtelemetry` session per process).
pub mod metrics {
    use std::path::{Path, PathBuf};

    /// Installs a process-wide telemetry session when `BENCH_METRICS_OUT`
    /// names a file; returns that path. Without the variable this is a
    /// no-op and all telemetry calls stay disabled (zero overhead).
    pub fn start() -> Option<PathBuf> {
        let path = std::env::var_os("BENCH_METRICS_OUT")?;
        jtelemetry::install(jtelemetry::Session::new());
        Some(PathBuf::from(path))
    }

    /// Consumes the session and writes the final snapshot: one JSONL line
    /// appended to `out` plus a Prometheus text export at `out.prom`,
    /// matching the CLI's `--metrics-out` formats byte for byte.
    pub fn finish(out: Option<&Path>) {
        let Some(session) = jtelemetry::take() else {
            return;
        };
        let Some(out) = out else {
            return;
        };
        let snap = session.snapshot();
        let mut prom = out.as_os_str().to_owned();
        prom.push(".prom");
        let jsonl = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| {
                use std::io::Write as _;
                writeln!(f, "{}", jtelemetry::export::jsonl_line(&snap))
            });
        if let Err(e) = jsonl {
            eprintln!("warning: metrics write failed: {e}");
        }
        if let Err(e) = std::fs::write(&prom, jtelemetry::export::prometheus(&snap)) {
            eprintln!("warning: metrics write failed: {e}");
        }
        eprintln!(
            "metrics: {} (+ {})",
            out.display(),
            Path::new(&prom).display()
        );
    }
}

/// Host metadata rendered as a JSON object, embedded as the `"host"`
/// field of every `BENCH_*.json` so recorded numbers can be compared
/// like-for-like across machines. `clock` names the session time
/// source: bench bins always time against the host monotonic clock
/// (tests are what install a `ManualClock`).
pub fn host_meta_json() -> String {
    let hw = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "{{\"os\": \"{}\", \"arch\": \"{}\", \"family\": \"{}\", \
         \"pointer_width\": {}, \"available_parallelism\": {hw}, \
         \"debug_assertions\": {}, \"clock\": \"monotonic\"}}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::env::consts::FAMILY,
        usize::BITS,
        cfg!(debug_assertions)
    )
}

/// The experiment seed corpus: the built-in seeds plus generated ones.
pub fn experiment_seeds(extra: usize) -> Vec<Seed> {
    corpus::corpus(extra, 0xC0FFEE)
}

/// Renders a simple aligned text table.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let line = |out: &mut String, cells: &[String]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            let _ = write!(s, "{:<width$}  ", cell, width = widths[i]);
        }
        let _ = writeln!(out, "{}", s.trim_end());
    };
    line(
        &mut out,
        &header.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    let _ = writeln!(out, "{}", "-".repeat(total));
    for row in rows {
        line(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            "T",
            &["a", "bb"],
            &[
                vec!["x".into(), "y".into()],
                vec!["long".into(), "z".into()],
            ],
        );
        assert!(t.contains("== T =="));
        assert!(t.contains("long"));
    }

    #[test]
    fn experiment_seeds_extend() {
        assert_eq!(experiment_seeds(2).len(), 12);
    }

    #[test]
    fn host_meta_is_a_json_object() {
        let host = host_meta_json();
        assert!(host.starts_with('{') && host.ends_with('}'), "{host}");
        assert!(host.contains("\"os\""), "{host}");
        assert!(host.contains("\"arch\""), "{host}");
        assert!(host.contains("\"available_parallelism\""), "{host}");
        assert!(host.contains("\"clock\": \"monotonic\""), "{host}");
    }
}
