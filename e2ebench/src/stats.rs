//! Small order statistics and process probes shared by every workload.

/// Median of `xs` (mean of the middle pair for an even count; 0 if empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 if empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// 1-based nearest rank of percentile `pct` over `n` samples:
/// `ceil(pct / 100 * n)`, at least 1.
pub fn rank(n: usize, pct: u32) -> usize {
    ((pct as usize * n).div_ceil(100)).max(1)
}

/// How many of `n` sorted samples lie strictly beyond the nearest-rank
/// `pct` percentile.
pub fn beyond(n: usize, pct: u32) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// The highest whole percentile `<= cap` that still has at least
/// `min_beyond` samples beyond it, or `None` when even the median does
/// not. At 100 samples with `min_beyond = 10` this is exactly p90: a tail
/// percentile backed by fewer than ten samples is one outlier away from a
/// different number.
pub fn highest_tail_percentile(n: usize, min_beyond: usize, cap: u32) -> Option<u32> {
    (50..=cap).rev().find(|&p| beyond(n, p) >= min_beyond)
}

/// Nearest-rank percentile of `xs` (0 if empty).
pub fn percentile(xs: &[f64], pct: u32) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), pct).min(v.len()) - 1]
}

/// The process's resident-set high-water mark in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 5.0);
        assert_eq!(percentile(&xs, 90), 9.0);
        assert_eq!(percentile(&xs, 100), 10.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib() > 0.0);
        }
    }
}
