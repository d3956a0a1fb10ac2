//! Order statistics, seed derivation and the small JSON/Prometheus text
//! helpers the benchmark needs (the workspace has no serde).

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// SplitMix64: derives independent input seeds from the workload seed.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Renders a finite float for JSON with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// A string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", mopfuzzerd::esc(s))
}

/// Reads one unlabelled or labelled sample from a Prometheus text page,
/// e.g. `prom_value(page, "mop_vm_executions")` or
/// `prom_value(page, "mop_span_self_nanos{span=\"vm_execution\"}")`.
pub fn prom_value(page: &str, series: &str) -> Option<f64> {
    page.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        let value = rest.strip_prefix(' ')?;
        value.trim().parse().ok()
    })
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn prometheus_samples() {
        let page = "mop_vm_executions 42\nmop_span_self_nanos{span=\"fuzz\"} 7\n";
        assert_eq!(prom_value(page, "mop_vm_executions"), Some(42.0));
        assert_eq!(
            prom_value(page, "mop_span_self_nanos{span=\"fuzz\"}"),
            Some(7.0)
        );
        assert_eq!(prom_value(page, "mop_vm"), None);
    }
}
