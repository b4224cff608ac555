//! The spike-duration *thresholding algorithm* of §3.3 — the negotiability
//! summarizer Doppler ships in production.
//!
//! > "Doppler first identifies the max peak value(s) within the time-series
//! > data of each performance dimension. The variances of the counters are
//! > also captured, and a window is formed (one standard deviation) below
//! > the max value. The total duration in which resource utilization is
//! > within this window is then assessed. If the total duration lasts for
//! > greater than a threshold percentage (ρ) of the total assessment period,
//! > the performance dimension is cast as non-negotiable."

/// The outcome of running the thresholding algorithm on one dimension.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpikeProfile {
    /// Max peak value observed in the series.
    pub peak: f64,
    /// One standard deviation of the series (the window height).
    pub stddev: f64,
    /// Fraction of samples that sit inside `[peak - stddev, peak]`.
    pub dwell_fraction: f64,
}

impl SpikeProfile {
    /// Run the thresholding measurement. Returns `None` for an empty series.
    ///
    /// The peak and the sum share one pass, each its own sequential chain:
    /// the peak folds in [`max`]'s order and the sum starts where
    /// `Iterator::sum` does (`-0.0`), so peak, mean and standard deviation
    /// are bit-identical to [`max`] and [`stddev`].
    ///
    /// [`max`]: crate::descriptive::max
    /// [`stddev`]: crate::descriptive::stddev
    pub fn measure(xs: &[f64]) -> Option<SpikeProfile> {
        let &first = xs.first()?;
        debug_assert!(xs.iter().all(|x| x.is_finite()), "spike profile over non-finite input");
        let (mut peak, mut sum) = (first, -0.0);
        for &x in xs {
            if x > peak {
                peak = x;
            }
            sum += x;
        }
        let n = xs.len() as f64;
        let mean = sum / n;
        let sd = (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n).sqrt();
        let lo = peak - sd;
        let dwell = xs.iter().filter(|&&x| x >= lo).count() as f64 / n;
        Some(SpikeProfile { peak, stddev: sd, dwell_fraction: dwell })
    }

    /// The paper's decision rule: a dimension is *negotiable* when the time
    /// spent near the peak is rare and short-lived — i.e. the dwell fraction
    /// stays below the tuned threshold `rho`.
    pub fn is_negotiable(&self, rho: f64) -> bool {
        self.dwell_fraction < rho
    }
}

/// Convenience wrapper returning just the dwell fraction (`1.0` for an empty
/// series, which reads as non-negotiable — no evidence of spare headroom).
pub fn spike_dwell_fraction(xs: &[f64]) -> f64 {
    SpikeProfile::measure(xs).map_or(1.0, |p| p.dwell_fraction)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spiky_series() -> Vec<f64> {
        // 1% of samples at 100, the rest near 10.
        let mut xs = vec![10.0; 990];
        for slot in 0..10 {
            xs[slot * 99] = 100.0;
        }
        xs
    }

    fn steady_high_series() -> Vec<f64> {
        // Hovers within a few percent of its own max the whole time.
        (0..1000).map(|i| 95.0 + ((i % 7) as f64) * 0.5).collect()
    }

    #[test]
    fn empty_series_yields_none() {
        assert!(SpikeProfile::measure(&[]).is_none());
        assert_eq!(spike_dwell_fraction(&[]), 1.0);
    }

    #[test]
    fn constant_series_dwells_forever() {
        // stddev = 0 so the window is [peak, peak]: every sample is inside.
        let p = SpikeProfile::measure(&[50.0; 20]).unwrap();
        assert_eq!(p.dwell_fraction, 1.0);
        assert!(!p.is_negotiable(0.05));
    }

    #[test]
    fn rare_short_spikes_are_negotiable() {
        let p = SpikeProfile::measure(&spiky_series()).unwrap();
        assert!(p.dwell_fraction < 0.05, "dwell = {}", p.dwell_fraction);
        assert!(p.is_negotiable(0.05));
    }

    #[test]
    fn sustained_high_utilization_is_non_negotiable() {
        // The series cycles within one stddev of its max almost half the
        // time — far above any sensible rho.
        let p = SpikeProfile::measure(&steady_high_series()).unwrap();
        assert!(p.dwell_fraction > 0.2, "dwell = {}", p.dwell_fraction);
        assert!(!p.is_negotiable(0.05));
    }

    #[test]
    fn peak_and_window_are_reported() {
        let p = SpikeProfile::measure(&spiky_series()).unwrap();
        assert_eq!(p.peak, 100.0);
        assert!(p.stddev > 0.0);
    }

    #[test]
    fn rho_controls_the_decision_boundary() {
        let p = SpikeProfile::measure(&spiky_series()).unwrap();
        // dwell is 1%: negotiable under rho = 5%, non-negotiable under 0.5%.
        assert!(p.is_negotiable(0.05));
        assert!(!p.is_negotiable(0.005));
    }

    #[test]
    fn one_pass_matches_max_and_stddev_bit_for_bit() {
        use crate::descriptive::{max, stddev};
        let mixed = vec![-0.0, 0.0, 3.5, -2.25, 1e-300, 7.0, 7.0, 0.1];
        let zeros = [vec![-0.0; 5], vec![-0.0, 0.0], vec![0.0, -0.0]];
        for xs in [spiky_series(), steady_high_series(), mixed, vec![1.0]].into_iter().chain(zeros)
        {
            let p = SpikeProfile::measure(&xs).unwrap();
            assert_eq!(p.peak.to_bits(), max(&xs).unwrap().to_bits());
            assert_eq!(p.stddev.to_bits(), stddev(&xs).to_bits());
        }
    }

    #[test]
    fn dwell_fraction_is_a_fraction() {
        for xs in [spiky_series(), steady_high_series(), vec![1.0]] {
            let d = spike_dwell_fraction(&xs);
            assert!((0.0..=1.0).contains(&d));
        }
    }
}
