//! Empirical cumulative distribution functions.
//!
//! Figure 6 of the paper characterizes workloads by the ECDF of each
//! performance dimension: steadily-used resources produce ECDFs that hug the
//! diagonal, while transiently spiky resources produce ECDFs that shoot up
//! early (most mass at low utilization). The AUC summarizers in
//! [`crate::auc`] reduce those shapes to scalars.

/// An empirical CDF built from a sample.
///
/// Evaluation is `O(log n)` by binary search over the sorted sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build an ECDF from a sample. Returns `None` for empty input.
    ///
    /// The sample is ordered by `f64::total_cmp`, so non-finite values sort
    /// to the ends instead of panicking, and `-0.0` sorts before `+0.0`.
    pub fn new(sample: &[f64]) -> Option<Ecdf> {
        if sample.is_empty() {
            return None;
        }
        let mut sorted = sample.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Ecdf { sorted })
    }

    /// An ECDF over a non-empty sample already sorted by `f64::total_cmp`
    /// (see [`crate::Summary::with_ecdf`]).
    pub(crate) fn from_sorted(sorted: Vec<f64>) -> Ecdf {
        debug_assert!(!sorted.is_empty(), "empty ECDF sample");
        debug_assert!(sorted.is_sorted_by(|a, b| a.total_cmp(b).is_le()), "unsorted ECDF sample");
        Ecdf { sorted }
    }

    /// `F(x)` — the fraction of the sample `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point gives the count of elements <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Number of points the ECDF was built from.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the backing sample is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Smallest sample value.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample value.
    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// The sorted backing sample.
    pub fn sorted_values(&self) -> &[f64] {
        &self.sorted
    }

    /// Evaluate the ECDF on an evenly spaced grid of `points` x-values
    /// spanning `[min, max]`; used by the dashboard plots of Figure 6/13.
    ///
    /// Returns `(x, F(x))` pairs. `points` must be at least 2.
    pub fn grid(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "ECDF grid needs at least 2 points");
        let (lo, hi) = (self.min(), self.max());
        let span = hi - lo;
        (0..points)
            .map(|i| {
                let x = if span == 0.0 { lo } else { lo + span * i as f64 / (points - 1) as f64 };
                (x, self.eval(x))
            })
            .collect()
    }

    /// Inverse ECDF (quantile function): smallest sample value `v` with
    /// `F(v) >= p`.
    pub fn inverse(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let n = self.sorted.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_gives_none() {
        assert!(Ecdf::new(&[]).is_none());
    }

    #[test]
    fn eval_below_min_is_zero() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(e.eval(0.5), 0.0);
    }

    #[test]
    fn eval_at_max_is_one() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(e.eval(3.0), 1.0);
        assert_eq!(e.eval(99.0), 1.0);
    }

    #[test]
    fn eval_counts_ties() {
        let e = Ecdf::new(&[1.0, 1.0, 2.0, 4.0]).unwrap();
        assert_eq!(e.eval(1.0), 0.5);
        assert_eq!(e.eval(2.0), 0.75);
    }

    #[test]
    fn eval_is_right_continuous_step() {
        let e = Ecdf::new(&[0.0, 10.0]).unwrap();
        assert_eq!(e.eval(9.999), 0.5);
        assert_eq!(e.eval(10.0), 1.0);
    }

    #[test]
    fn grid_spans_min_to_max() {
        let e = Ecdf::new(&[2.0, 8.0, 4.0]).unwrap();
        let g = e.grid(5);
        assert_eq!(g.len(), 5);
        assert_eq!(g[0].0, 2.0);
        assert_eq!(g[4].0, 8.0);
        assert_eq!(g[4].1, 1.0);
    }

    #[test]
    fn grid_of_constant_sample() {
        let e = Ecdf::new(&[5.0; 4]).unwrap();
        let g = e.grid(3);
        assert!(g.iter().all(|&(x, f)| x == 5.0 && f == 1.0));
    }

    #[test]
    fn inverse_recovers_order_statistics() {
        let e = Ecdf::new(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(e.inverse(0.25), 10.0);
        assert_eq!(e.inverse(0.5), 20.0);
        assert_eq!(e.inverse(1.0), 40.0);
        assert_eq!(e.inverse(0.0), 10.0); // clamped to the first order stat
    }

    #[test]
    fn inverse_and_eval_are_consistent() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let e = Ecdf::new(&xs).unwrap();
        for p in [0.1, 0.37, 0.5, 0.9] {
            let v = e.inverse(p);
            assert!(e.eval(v) >= p - 1e-12);
        }
    }

    #[test]
    fn ecdf_is_monotone_nondecreasing() {
        let xs: Vec<f64> = (0..50).map(|i| ((i * 7919) % 101) as f64).collect();
        let e = Ecdf::new(&xs).unwrap();
        let g = e.grid(64);
        for w in g.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }
}
