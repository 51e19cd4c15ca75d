//! Order statistics used by every metric the ledger reports.
//!
//! Percentiles use the nearest-rank rule (the reported value is always
//! one of the samples), and quartiles follow Python's
//! `statistics.quantiles(values, n=4)` ("exclusive" method) exactly, so
//! the spread printed here is the spread a Python harness computes from
//! the same runs.

/// Percentiles tried, highest first, when reporting a latency tail.
const TAIL_LADDER: [f64; 4] = [99.99, 99.9, 99.0, 90.0];

/// Minimum number of samples that must lie beyond a reported tail
/// percentile for it to be more than one unlucky sample.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `p` percent of the samples at or below it. `None` when
/// there are no samples.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(sorted[rank(p, n).clamp(1, n) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples. The
/// relative slack keeps a product that lands on a whole rank (p99.9 of
/// 10 000 samples) from rounding up past it.
fn rank(p: f64, n: usize) -> usize {
    let x = p * n as f64 / 100.0;
    (x - x.abs().max(1.0) * 1e-12).ceil().max(0.0) as usize
}

/// The highest [`TAIL_LADDER`] percentile that still has at least
/// [`TAIL_MIN_BEYOND`] of `n` samples above its nearest rank, or `None`
/// when `n` is too small for any of them.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= TAIL_MIN_BEYOND)
}

/// Median (mean of the two middle samples for an even count), as
/// Python's `statistics.median`. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile by Python's `statistics.quantiles(values,
/// n=4)` default ("exclusive") method. `None` with fewer than two
/// samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let len = s.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread: the distance between the quartiles as a share of
/// the median. `None` with fewer than two samples or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// An ascending copy (NaN-free input assumed; `total_cmp` keeps it total).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
