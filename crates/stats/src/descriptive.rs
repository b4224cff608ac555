//! Descriptive statistics over `f64` slices.
//!
//! These are the primitive reductions every other module builds on. The
//! moment-based reductions ([`mean`], [`variance`], [`stddev`]) expect
//! pre-cleaned series (the telemetry crate's pre-aggregator does exactly
//! that) and debug builds assert it; the order statistics ([`quantile`],
//! [`Summary::of`]) instead treat any non-finite sample as missing data and
//! return `None` — a single corrupt telemetry point downgrades one
//! statistic, it never panics a fleet pass.

use crate::ecdf::Ecdf;

/// Arithmetic mean. Returns `0.0` for an empty slice so that downstream
/// aggregations over possibly-empty windows stay total.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    debug_assert!(xs.iter().all(|x| x.is_finite()), "mean over non-finite input");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divides by `n`, not `n - 1`).
///
/// The paper's spike window is "one standard deviation below the max value";
/// with 10-minute samples over weeks of data the population/sample
/// distinction is immaterial, and the population form keeps `variance` of a
/// single sample well-defined (zero).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Linear-interpolation quantile (type 7, the R/NumPy default).
///
/// `q` is clamped to `[0, 1]`. Returns `None` for an empty slice **and**
/// for any slice containing a non-finite sample: one corrupt telemetry
/// point must surface as a missing statistic, never a panic or a NaN that
/// poisons downstream aggregation.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !xs.iter().all(|x| x.is_finite()) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_sorted(&sorted, q))
}

/// Quantile over an already-sorted slice; avoids the sort when the caller
/// needs several quantiles of the same data.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Maximum of a slice; `None` when empty.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().fold(None, |acc, x| match acc {
        None => Some(x),
        Some(m) => Some(if x > m { x } else { m }),
    })
}

/// Minimum of a slice; `None` when empty.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().fold(None, |acc, x| match acc {
        None => Some(x),
        Some(m) => Some(if x < m { x } else { m }),
    })
}

/// A five-number-plus summary of a series, used by the DMA Resource Use
/// module's distribution dashboards.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub stddev: f64,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub p95: f64,
    pub max: f64,
}

impl Summary {
    /// Summarize a series. Returns `None` for empty input and for input
    /// containing any non-finite sample (same contract as [`quantile`]:
    /// corrupt telemetry yields a missing summary, not a panic).
    pub fn of(xs: &[f64]) -> Option<Summary> {
        Summary::with_ecdf(xs).map(|(summary, _)| summary)
    }

    /// [`Summary::of`] plus the sample's [`Ecdf`], both read off one sorted
    /// copy. The moments are taken over `xs` in its own order: float
    /// summation order changes the last bits.
    pub fn with_ecdf(xs: &[f64]) -> Option<(Summary, Ecdf)> {
        if xs.is_empty() || !xs.iter().all(|x| x.is_finite()) {
            return None;
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        let summary = Summary {
            count: xs.len(),
            mean: mean(xs),
            stddev: stddev(xs),
            min: sorted[0],
            p25: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.50),
            p75: quantile_sorted(&sorted, 0.75),
            p95: quantile_sorted(&sorted, 0.95),
            max: sorted[sorted.len() - 1],
        };
        Some((summary, Ecdf::from_sorted(sorted)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_of_constants() {
        assert_eq!(mean(&[3.0, 3.0, 3.0]), 3.0);
    }

    #[test]
    fn mean_matches_hand_computation() {
        assert!((mean(&[1.0, 2.0, 3.0, 4.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(variance(&[5.0; 10]), 0.0);
    }

    #[test]
    fn variance_population_form() {
        // var([1,2,3]) with /n is 2/3.
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stddev_is_sqrt_of_variance() {
        let xs = [1.0, 4.0, 9.0, 16.0];
        assert!((stddev(&xs) - variance(&xs).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn quantile_of_empty_is_none() {
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_endpoints_are_min_max() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(9.0));
    }

    #[test]
    fn quantile_median_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.5).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_clamps_out_of_range_q() {
        let xs = [1.0, 2.0];
        assert_eq!(quantile(&xs, -0.5), Some(1.0));
        assert_eq!(quantile(&xs, 1.5), Some(2.0));
    }

    #[test]
    fn quantile_p95_of_uniform_grid() {
        let xs: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert!((quantile(&xs, 0.95).unwrap() - 95.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_of_non_finite_is_none_not_a_panic() {
        assert_eq!(quantile(&[1.0, f64::NAN, 3.0], 0.5), None);
        assert_eq!(quantile(&[f64::INFINITY], 0.5), None);
        assert_eq!(quantile(&[1.0, f64::NEG_INFINITY], 0.0), None);
        assert_eq!(quantile(&[f64::NAN], 1.0), None);
    }

    #[test]
    fn summary_of_non_finite_is_none_not_a_panic() {
        assert!(Summary::of(&[2.0, f64::NAN]).is_none());
        assert!(Summary::of(&[f64::INFINITY, 1.0, 2.0]).is_none());
    }

    #[test]
    fn min_max_behave() {
        let xs = [2.0, -1.0, 7.0];
        assert_eq!(min(&xs), Some(-1.0));
        assert_eq!(max(&xs), Some(7.0));
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
    }

    #[test]
    fn summary_orders_its_quantiles() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 50.0 + 50.0).collect();
        let s = Summary::of(&xs).unwrap();
        assert!(s.min <= s.p25 && s.p25 <= s.median);
        assert!(s.median <= s.p75 && s.p75 <= s.p95 && s.p95 <= s.max);
        assert_eq!(s.count, 1000);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_of_single_point_collapses() {
        let s = Summary::of(&[42.0]).unwrap();
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.stddev, 0.0);
    }
}
