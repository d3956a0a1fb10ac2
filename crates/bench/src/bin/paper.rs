//! Regenerates the paper's evaluation (§4): Tables 2–6, Figures 1–5 and
//! the weighting ablation, each distinct campaign run once.
//!
//! ```text
//! paper [SCALE]    # SCALE: an integer in 1..=100, default 1
//! ```
//!
//! The sections go to stdout in paper order; progress lines go to
//! stderr. A bad argument is a usage error (exit 2).

use bench::paper::{parse_scale, render_all, Results, Sizes};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args).unwrap_or_else(|e| {
        eprintln!("paper: {e}\nusage: paper [SCALE]   (SCALE: an integer in 1..=100, default 1)");
        std::process::exit(2);
    });
    let metrics = bench::metrics::start();
    print!("{}", render_all(&Results::run(&Sizes::at_scale(scale))));
    bench::metrics::finish(metrics.as_deref());
}
