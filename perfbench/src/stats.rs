//! Small statistics helpers: medians, nearest-rank percentiles, the tail
//! percentile a sample count can support, and open-loop schedule
//! accounting.

/// Candidate tail percentiles in tenths of a percent, highest first.
const TAIL_PERMILLE: [usize; 4] = [999, 990, 900, 500];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of an ascending slice; `None` when
/// the slice is empty.
fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let permille = (p * 10.0).round() as usize;
    Some(sorted[rank(sorted.len(), permille).max(1) - 1])
}

/// Median of `values` (sorted in place); `None` when empty.
pub fn median(values: &mut [f64]) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(values[n / 2]),
        _ => Some((values[n / 2 - 1] + values[n / 2]) / 2.0),
    }
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples above it out of `n`; `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERMILLE
        .into_iter()
        .find(|&pm| n - rank(n, pm) >= TAIL_MIN_BEYOND)
        .map(|pm| pm as f64 / 10.0)
}

/// Nearest rank (1-based, 0 for an empty sample) of the `permille`-th
/// thousandth of `n` samples, in integers so no rounding can move it.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille.min(1000)).div_ceil(1000)
}

/// The tail of an ascending slice: `(percentile, value)` at
/// [`tail_percentile`] of its length.
pub fn tail_sorted(sorted: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile(sorted.len())?;
    Some((p, percentile_sorted(sorted, p)?))
}

/// A fixed-rate open-loop schedule: request `i` is due `i * period_ns`
/// after the schedule's start, whether or not earlier requests finished.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    period_ns: u64,
}

impl OpenLoop {
    pub fn at_rate(per_second: f64) -> OpenLoop {
        assert!(per_second > 0.0, "open-loop rate must be positive");
        OpenLoop { period_ns: (1e9 / per_second).round() as u64 }
    }

    /// When request `i` is due, in ns since the schedule's start.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.period_ns
    }

    /// How late the generator sent request `i`, when it sent it at
    /// `sent_ns`; zero when on time.
    pub fn lateness_ns(&self, i: u64, sent_ns: u64) -> u64 {
        sent_ns.saturating_sub(self.due_ns(i))
    }

    /// Latency of request `i` finished at `done_ns`, counted from when it
    /// was due — so a stall that delays sending is charged to every
    /// request it holds back.
    pub fn latency_ns(&self, i: u64, done_ns: u64) -> u64 {
        done_ns.saturating_sub(self.due_ns(i))
    }
}

/// Latencies at 1 µs resolution in a fixed array, so a long run's
/// samples cost the benchmark no growing memory (which would show in the
/// program's peak RSS).
#[derive(Debug, Clone)]
pub struct MicrosHistogram {
    buckets: Vec<u32>,
    count: u64,
}

impl MicrosHistogram {
    /// Latencies at or above `max_us` land in the last bucket.
    pub fn new(max_us: usize) -> MicrosHistogram {
        MicrosHistogram { buckets: vec![0; max_us.max(1)], count: 0 }
    }

    pub fn record_ns(&mut self, ns: u64) {
        let last = self.buckets.len() - 1;
        self.buckets[((ns / 1000) as usize).min(last)] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile `p` in ms (the bucket's midpoint); `None`
    /// when empty.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        let n = usize::try_from(self.count).ok()?;
        let target = rank(n, (p * 10.0).round() as usize).max(1) as u64;
        let mut seen = 0u64;
        for (us, &k) in self.buckets.iter().enumerate() {
            seen += u64::from(k);
            if k > 0 && seen >= target {
                return Some((us as f64 + 0.5) / 1e3);
            }
        }
        None
    }

    /// `(percentile, ms)` at [`tail_percentile`] of the sample count.
    pub fn tail_ms(&self) -> Option<(f64, f64)> {
        let p = tail_percentile(usize::try_from(self.count).ok()?)?;
        Some((p, self.percentile_ms(p)?))
    }
}

/// SplitMix64: the benchmark's own seeded generator for input shapes
/// (jitter, shuffles) that the workspace's generators do not cover.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(50.0));
        assert_eq!(percentile_sorted(&v, 99.0), Some(99.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(100.0));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&[], 50.0), None);
        let (p, at) = tail_sorted(&v).expect("100 samples support p90");
        assert_eq!((p, at), (90.0, 90.0));
        assert_eq!(v.iter().filter(|&&x| x > at).count(), 10);
    }

    #[test]
    fn histogram_percentiles_match_the_sorted_samples() {
        let mut h = MicrosHistogram::new(10_000);
        assert_eq!(h.percentile_ms(50.0), None);
        // 1..=100 µs, plus one sample past the last bucket.
        for us in 1..=100u64 {
            h.record_ns(us * 1000 + 300);
        }
        h.record_ns(60_000_000);
        assert_eq!(h.count(), 101);
        assert_eq!(h.percentile_ms(50.0), Some(0.0515));
        assert_eq!(h.percentile_ms(100.0), Some(9.9995));
        assert_eq!(h.tail_ms(), Some((90.0, 0.0915)));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn open_loop_charges_stalls_to_held_back_requests() {
        let schedule = OpenLoop::at_rate(500.0);
        assert_eq!(schedule.due_ns(0), 0);
        assert_eq!(schedule.due_ns(3), 6_000_000);
        // On time: no lateness, latency is the service time alone.
        assert_eq!(schedule.lateness_ns(1, 2_000_000), 0);
        assert_eq!(schedule.latency_ns(1, 3_500_000), 1_500_000);
        // The generator stalls 10 ms before sending request 2 (due at
        // 4 ms): it is 10 ms late, and its latency includes the stall.
        assert_eq!(schedule.lateness_ns(2, 14_000_000), 10_000_000);
        assert_eq!(schedule.latency_ns(2, 15_000_000), 11_000_000);
        // Sending early never counts as negative lateness.
        assert_eq!(schedule.lateness_ns(5, 1), 0);
    }
}
