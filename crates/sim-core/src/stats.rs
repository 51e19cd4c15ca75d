//! Statistics toolkit.
//!
//! Every figure in the paper is one of: an empirical CDF, a quantile
//! summary, a scatter with binned overlays, a stacked coverage breakdown, or
//! a Pearson correlation table. This module implements the numeric
//! primitives once so that the per-figure experiment code stays declarative;
//! the coverage breakdown is `TechShare` in the analysis layer.

use serde::{Deserialize, Serialize};

/// An empirical distribution built from `f64` samples.
///
/// Samples are stored sorted; quantiles use linear interpolation between
/// order statistics (type-7, the numpy/R default), which is what the
/// paper's plotting scripts use.
///
/// ```
/// use wheels_sim_core::stats::Cdf;
/// let c = Cdf::from_samples([4.0, 1.0, 3.0, 2.0]);
/// assert_eq!(c.median(), Some(2.5));
/// assert_eq!(c.fraction_at_or_below(3.0), 0.75);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from an iterator of samples. Non-finite values are dropped
    /// (driving logs legitimately contain gaps that parse as NaN).
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        Cdf { sorted }
    }

    /// Build from samples that are **already sorted** ascending (by
    /// `f64::total_cmp`) and free of non-finite values — the memoized
    /// dataset-view path, where one shared sort serves many queries.
    /// Equivalent to [`Cdf::from_samples`] on the same multiset, without
    /// the O(n log n) re-sort. Monotonicity and finiteness are
    /// debug-asserted only: in release builds unsorted or non-finite
    /// input is **not** rejected, and quantiles over it are meaningless.
    /// Callers own the precondition; the debug assert exists so test
    /// builds catch violations early.
    pub fn from_sorted(sorted: Vec<f64>) -> Self {
        debug_assert!(
            sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
            "Cdf::from_sorted requires ascending input"
        );
        debug_assert!(
            sorted.iter().all(|x| x.is_finite()),
            "Cdf::from_sorted requires finite samples"
        );
        Cdf { sorted }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no samples survived.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted sample vector.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Quantile `q` in `[0, 1]`, linearly interpolated. Out-of-range
    /// finite `q` clamps to the endpoints, so `quantile(0.0)` is exactly
    /// the minimum and `quantile(1.0)` exactly the maximum. Returns
    /// `None` when empty **or** when `q` is non-finite (NaN/±inf) — a
    /// NaN probability is a caller bug, not "the smallest sample".
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() || !q.is_finite() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac)
    }

    /// Median (p50).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Fraction of samples `<= x` (the CDF evaluated at `x`).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|v| *v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Five-number-plus-mean summary used in tables and EXPERIMENTS.md.
    pub fn summary(&self) -> Option<Summary> {
        Some(Summary {
            n: self.len(),
            min: self.min()?,
            p25: self.quantile(0.25)?,
            median: self.median()?,
            p75: self.quantile(0.75)?,
            p90: self.quantile(0.90)?,
            max: self.max()?,
            mean: self.mean()?,
            std_dev: std_dev(&self.sorted),
        })
    }
}

/// Summary statistics of one distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum.
    pub max: f64,
    /// Mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl Summary {
    /// Standard deviation as a percentage of the mean (Fig. 9's lower-row
    /// metric). Zero mean yields zero.
    pub fn std_dev_pct_of_mean(&self) -> f64 {
        if self.mean.abs() < 1e-12 {
            0.0
        } else {
            self.std_dev / self.mean * 100.0
        }
    }
}

/// Population mean of a slice; 0.0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation of a slice; 0.0 when len < 2.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Pearson correlation coefficient between two equal-length slices.
///
/// Returns `None` when lengths differ, fewer than 2 pairs, or either series
/// is constant (the paper's Table 2 would report such cells as undefined).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Linear binner: maps `x` to `floor((x - origin) / width)` with clamping,
/// used for the E2E-latency → frame-time bins of Table 5.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinearBins {
    /// Left edge of bin 0.
    pub origin: f64,
    /// Bin width.
    pub width: f64,
    /// Number of bins; values beyond the last edge clamp into the final bin.
    pub count: usize,
}

impl LinearBins {
    /// Classify a value, clamping to `[0, count-1]`.
    pub fn bin_of(&self, x: f64) -> usize {
        if self.count == 0 {
            return 0;
        }
        let idx = ((x - self.origin) / self.width).floor();
        if idx < 0.0 {
            0
        } else {
            (idx as usize).min(self.count - 1)
        }
    }

    /// `(lo, hi)` edges of bin `i`.
    pub fn edges(&self, i: usize) -> (f64, f64) {
        (
            self.origin + self.width * i as f64,
            self.origin + self.width * (i + 1) as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sorted_matches_from_samples() {
        let raw = vec![3.0, 1.0, 4.0, 1.5, 2.0];
        let mut sorted = raw.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(Cdf::from_sorted(sorted), Cdf::from_samples(raw));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    #[cfg(debug_assertions)]
    fn from_sorted_rejects_unsorted_input() {
        let _ = Cdf::from_sorted(vec![2.0, 1.0]);
    }

    #[test]
    fn cdf_quantiles_interpolate() {
        let c = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.quantile(0.0), Some(1.0));
        assert_eq!(c.quantile(1.0), Some(4.0));
        assert_eq!(c.median(), Some(2.5));
        assert_eq!(c.quantile(1.0 / 3.0), Some(2.0));
    }

    #[test]
    fn quantile_endpoints_are_exact_and_clamped() {
        let c = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        // q=0/1 hit the endpoints exactly (no interpolation residue) and
        // finite out-of-range q clamps to them.
        assert_eq!(c.quantile(0.0), Some(1.0));
        assert_eq!(c.quantile(1.0), Some(4.0));
        assert_eq!(c.quantile(-3.5), Some(1.0));
        assert_eq!(c.quantile(7.0), Some(4.0));
    }

    #[test]
    fn quantile_rejects_non_finite_q() {
        let c = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        // Regression: NaN used to clamp-propagate and come back as
        // Some(NaN) instead of an explicit refusal.
        assert_eq!(c.quantile(f64::NAN), None);
        assert_eq!(c.quantile(f64::INFINITY), None);
        assert_eq!(c.quantile(f64::NEG_INFINITY), None);
    }

    #[test]
    fn cdf_drops_non_finite() {
        let c = Cdf::from_samples([1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.max(), Some(2.0));
    }

    #[test]
    fn cdf_empty_behaviour() {
        let c = Cdf::from_samples(std::iter::empty());
        assert!(c.is_empty());
        assert_eq!(c.median(), None);
        assert_eq!(c.summary(), None);
        assert_eq!(c.fraction_at_or_below(10.0), 0.0);
    }

    #[test]
    fn cdf_fraction_at_or_below() {
        let c = Cdf::from_samples([1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(c.fraction_at_or_below(0.5), 0.0);
        assert_eq!(c.fraction_at_or_below(3.0), 0.6);
        assert_eq!(c.fraction_at_or_below(100.0), 1.0);
    }

    #[test]
    fn cdf_single_sample() {
        let c = Cdf::from_samples([7.0]);
        assert_eq!(c.median(), Some(7.0));
        assert_eq!(c.quantile(0.25), Some(7.0));
        let s = c.summary().unwrap();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.n, 1);
    }

    #[test]
    fn summary_std_pct() {
        let c = Cdf::from_samples([10.0, 20.0, 30.0]);
        let s = c.summary().unwrap();
        assert!((s.mean - 20.0).abs() < 1e-12);
        let expected_sd = ((100.0 + 0.0 + 100.0_f64) / 3.0).sqrt();
        assert!((s.std_dev - expected_sd).abs() < 1e-12);
        assert!((s.std_dev_pct_of_mean() - expected_sd / 20.0 * 100.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_undefined_cases() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[3.0]), None);
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn pearson_independent_near_zero() {
        let mut rng = crate::rng::SimRng::seed(42);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.std_normal()).collect();
        let ys: Vec<f64> = (0..20_000).map(|_| rng.std_normal()).collect();
        let r = pearson(&xs, &ys).unwrap();
        assert!(r.abs() < 0.03, "r {r}");
    }

    #[test]
    fn linear_bins_clamp() {
        let b = LinearBins {
            origin: 0.0,
            width: 33.3,
            count: 30,
        };
        assert_eq!(b.bin_of(-5.0), 0);
        assert_eq!(b.bin_of(0.0), 0);
        assert_eq!(b.bin_of(33.3), 1);
        assert_eq!(b.bin_of(1e9), 29);
        let (lo, hi) = b.edges(2);
        assert!((lo - 66.6).abs() < 1e-9);
        assert!((hi - 99.9).abs() < 1e-9);
    }

    #[test]
    fn mean_std_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
    }
}

/// Ordinary least squares: fit `y ≈ b0 + b1·x1 + … + bk·xk`.
///
/// The paper's §5.5 closes with "an in-depth understanding of the impact of
/// multiple KPIs on performance requires a multivariate analysis, which is
/// part of our future work" — this is that analysis. Solved via the normal
/// equations with Gaussian elimination and partial pivoting; returns `None`
/// when the system is singular (collinear or constant predictors) or
/// under-determined.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OlsFit {
    /// Coefficients: `[intercept, b1, …, bk]`.
    pub coefficients: Vec<f64>,
    /// Coefficient of determination on the training data.
    pub r_squared: f64,
    /// Number of observations.
    pub n: usize,
}

/// Fit OLS of `y` on the rows of `xs` (each row = one observation's
/// predictor vector; all rows must share `y`'s length... i.e. `xs.len() ==
/// y.len()` and every row has the same number of predictors).
pub fn ols(xs: &[Vec<f64>], y: &[f64]) -> Option<OlsFit> {
    let n = y.len();
    if n == 0 || xs.len() != n {
        return None;
    }
    let k = xs[0].len();
    if xs.iter().any(|r| r.len() != k) || n <= k + 1 {
        return None;
    }
    let p = k + 1; // intercept + predictors

    // Build X'X (p×p) and X'y (p).
    let mut xtx = vec![vec![0.0f64; p]; p];
    let mut xty = vec![0.0f64; p];
    for (row, &yi) in xs.iter().zip(y) {
        let mut xi = Vec::with_capacity(p);
        xi.push(1.0);
        xi.extend_from_slice(row);
        for a in 0..p {
            xty[a] += xi[a] * yi;
            for b in 0..p {
                xtx[a][b] += xi[a] * xi[b];
            }
        }
    }

    // Gaussian elimination with partial pivoting.
    let mut m = xtx;
    let mut v = xty;
    for col in 0..p {
        let pivot = (col..p).max_by(|&a, &b| m[a][col].abs().total_cmp(&m[b][col].abs()))?;
        if m[pivot][col].abs() < 1e-9 {
            return None; // singular
        }
        m.swap(col, pivot);
        v.swap(col, pivot);
        let d = m[col][col];
        for cell in m[col][col..p].iter_mut() {
            *cell /= d;
        }
        v[col] /= d;
        for r in 0..p {
            if r != col && m[r][col].abs() > 0.0 {
                let f = m[r][col];
                let pivot_row = m[col].clone();
                for (cell, pv) in m[r][col..p].iter_mut().zip(&pivot_row[col..p]) {
                    *cell -= f * pv;
                }
                v[r] -= f * v[col];
            }
        }
    }
    let coefficients = v;

    // R² on the fit.
    let ybar = mean(y);
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (row, &yi) in xs.iter().zip(y) {
        let mut pred = coefficients[0];
        for (j, xj) in row.iter().enumerate() {
            pred += coefficients[j + 1] * xj;
        }
        ss_res += (yi - pred).powi(2);
        ss_tot += (yi - ybar).powi(2);
    }
    if ss_tot <= 0.0 {
        return None;
    }
    Some(OlsFit {
        coefficients,
        r_squared: (1.0 - ss_res / ss_tot).clamp(-1.0, 1.0),
        n,
    })
}

#[cfg(test)]
mod ols_tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_relation() {
        // y = 2 + 3·x1 − 0.5·x2
        let xs: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, (i * i % 17) as f64])
            .collect();
        let y: Vec<f64> = xs.iter().map(|r| 2.0 + 3.0 * r[0] - 0.5 * r[1]).collect();
        let fit = ols(&xs, &y).unwrap();
        assert!((fit.coefficients[0] - 2.0).abs() < 1e-6);
        assert!((fit.coefficients[1] - 3.0).abs() < 1e-6);
        assert!((fit.coefficients[2] + 0.5).abs() < 1e-6);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
    }

    #[test]
    fn r_squared_at_least_best_single_predictor() {
        let mut rng = crate::rng::SimRng::seed(77);
        let xs: Vec<Vec<f64>> = (0..500)
            .map(|_| vec![rng.std_normal(), rng.std_normal(), rng.std_normal()])
            .collect();
        let y: Vec<f64> = xs
            .iter()
            .map(|r| 1.0 + 2.0 * r[0] + 1.0 * r[1] + rng.std_normal())
            .collect();
        let full = ols(&xs, &y).unwrap();
        for j in 0..3 {
            let single: Vec<Vec<f64>> = xs.iter().map(|r| vec![r[j]]).collect();
            let sj = ols(&single, &y).unwrap();
            assert!(full.r_squared >= sj.r_squared - 1e-9, "predictor {j}");
        }
        assert!(full.r_squared > 0.6);
    }

    #[test]
    fn singular_and_degenerate_inputs_rejected() {
        // Collinear predictors.
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| i as f64).collect();
        assert!(ols(&xs, &y).is_none());
        // Too few observations.
        let xs2 = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        assert!(ols(&xs2, &[1.0, 2.0]).is_none());
        // Mismatched lengths.
        assert!(ols(&xs2, &[1.0]).is_none());
        // Constant response.
        let xs3: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        assert!(ols(&xs3, &[5.0; 20]).is_none());
    }

    #[test]
    fn noise_only_r_squared_near_zero() {
        let mut rng = crate::rng::SimRng::seed(5);
        let xs: Vec<Vec<f64>> = (0..2000).map(|_| vec![rng.std_normal()]).collect();
        let y: Vec<f64> = (0..2000).map(|_| rng.std_normal()).collect();
        let fit = ols(&xs, &y).unwrap();
        assert!(fit.r_squared.abs() < 0.01, "r2 {}", fit.r_squared);
    }
}

/// Spearman rank correlation: Pearson over the ranks, with average ranks
/// for ties. A robustness companion to [`pearson`] for the Table 2
/// analysis — rank correlation is insensitive to the heavy right tail of
/// throughput samples.
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    pearson(&ranks(xs), &ranks(ys))
}

/// Average ranks (1-based) with ties sharing their mean rank.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg_rank;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod spearman_tests {
    use super::*;

    #[test]
    fn monotone_nonlinear_gives_unit_spearman() {
        let xs: Vec<f64> = (1..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.exp().min(1e30)).collect();
        // Pearson is well below 1 for an exponential, Spearman is exactly 1.
        let s = spearman(&xs, &ys).unwrap();
        assert!((s - 1.0).abs() < 1e-9, "spearman {s}");
        let p = pearson(&xs, &ys).unwrap();
        assert!(p < 0.9, "pearson {p}");
    }

    #[test]
    fn reversed_order_gives_minus_one() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..30).rev().map(|i| (i * i) as f64).collect();
        assert!((spearman(&xs, &ys).unwrap() + 1.0).abs() < 1e-9);
    }

    #[test]
    fn ties_handled_with_average_ranks() {
        let r = ranks(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
        let all_ties = spearman(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]);
        assert_eq!(all_ties, None); // constant ranks → undefined
    }

    #[test]
    fn bounded_in_unit_interval() {
        let mut rng = crate::rng::SimRng::seed(3);
        for _ in 0..20 {
            let xs: Vec<f64> = (0..50).map(|_| rng.uniform(0.0, 10.0)).collect();
            let ys: Vec<f64> = (0..50).map(|_| rng.uniform(0.0, 10.0)).collect();
            let s = spearman(&xs, &ys).unwrap();
            assert!((-1.0..=1.0).contains(&s));
        }
    }
}
