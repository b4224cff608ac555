//! The resource-throttling probability of Eq. 1 — Doppler's performance
//! proxy.
//!
//! For customer *n* and SKU *i*:
//!
//! ```text
//! P_n(SKU_i) = P( r_CPU > R_CPU  ∪  r_RAM > R_RAM  ∪ … ∪  r_IOPS > R_IOPS )
//! ```
//!
//! estimated non-parametrically: "calculating the frequency with which all
//! performance dimensions are satisfied by each SKU, at each time point"
//! (§3.2). The estimate is *joint* because Eq. 1 is defined as a union
//! over time-aligned samples: one indicator per time sample, set when any
//! dimension exceeds its capacity at that sample. It is a count of
//! samples, not a combination of per-dimension probabilities, so it needs
//! no assumption about how the dimensions relate, and it always lies
//! between the largest per-dimension fraction and their sum.
//!
//! IO latency is the one inverted dimension: "IO latency is taken as the
//! inverse of the actual IO latency in order to calculate the effect of
//! this performance dimension relative to an upper bound". Concretely, a
//! sample throttles on latency when the workload *requires* a latency
//! tighter than the SKU's minimum achievable one.
//!
//! # One pass for every SKU
//!
//! [`throttling_probability`] scores one SKU by rescanning every sample;
//! a curve over `m` SKUs would rescan the window `m` times.
//! [`throttling_probabilities`] scores them all in one pass. Per dimension
//! it sorts the SKUs' distinct capacities into ascending *levels* (negated
//! on the inverted latency dimension, so a tighter latency ranks higher)
//! and keeps, for each *level index* `k`, a `u64` mask of the SKUs whose
//! capacity is among `levels[..k]`. A sample's level index is the number
//! of levels its demand exceeds, found by an ascending scan that stops at
//! the first level the demand does not exceed. Most samples sit at or
//! below the smallest capacity, so the scan usually stops at the first
//! comparison (and such a sample throttles no SKU, so it is done), where a
//! binary search always pays `log2(levels)` of them.
//!
//! A sample's throttled set is the OR of one mask per dimension. Sorting
//! the per-sample masks turns equal sets into runs, and one pass over the
//! runs adds each run's length to every SKU in its set: the joint count.
//! The same pass keeps a histogram of level indices per dimension, so one
//! SKU's per-dimension exceedance count is the sum of the histogram over
//! the level indices whose mask holds that SKU. The engine reads the chosen
//! SKU's [`ThrottleBreakdown`] from it without a second scan.
//!
//! The estimate is exact, not approximate:
//!
//! * the scan's predicate is the reference's strict comparison:
//!   `demand > cap`, or on latency `-demand > -cap`, which is `demand <
//!   cap` because negation is exact. The levels ascend, so the predicate
//!   holds on a prefix of them and the scan stops exactly at its end.
//!   Demand exactly at a capacity never throttles, and NaN demand (every
//!   comparison false) stops at level index 0, where no SKU throttles;
//! * a NaN capacity is never exceeded, so it gets no level; capacities that
//!   compare equal (including ±0.0) share one;
//! * counts are integers, so `count as f64 / n as f64` is the reference's
//!   own expression on the reference's own operands — bit-identical, for
//!   the joint probability and for every per-dimension fraction.
//!
//! More than 64 SKUs run the same pass once per 64-SKU chunk.

use doppler_catalog::ResourceCaps;
use doppler_telemetry::{PerfDimension, PerfHistory};

/// The capacity a SKU exposes for one dimension.
fn capacity(caps: &ResourceCaps, dim: PerfDimension) -> f64 {
    match dim {
        PerfDimension::Cpu => caps.vcores,
        PerfDimension::Memory => caps.memory_gb,
        PerfDimension::Iops => caps.iops,
        PerfDimension::IoLatency => caps.min_io_latency_ms,
        PerfDimension::LogRate => caps.log_rate_mbps,
        PerfDimension::Storage => caps.max_data_gb,
    }
}

/// Whether a single sample exceeds a single capacity.
#[inline]
fn exceeds(dim: PerfDimension, demand: f64, cap: f64) -> bool {
    if dim.inverted() {
        // The workload needs a latency *tighter* than the SKU can deliver.
        demand < cap
    } else {
        demand > cap
    }
}

/// Joint throttling probability of Eq. 1: the fraction of time samples at
/// which at least one collected dimension exceeds the SKU's capacity.
///
/// An empty history throttles with probability 0 (no evidence of demand).
pub fn throttling_probability(history: &PerfHistory, caps: &ResourceCaps) -> f64 {
    let n = history.len();
    if n == 0 {
        return 0.0;
    }
    // Collect (dim, values, cap) triples once to keep the hot loop tight.
    let dims: Vec<(PerfDimension, &[f64], f64)> =
        history.iter().map(|(dim, series)| (dim, series.values(), capacity(caps, dim))).collect();
    let mut throttled = 0usize;
    for t in 0..n {
        for &(dim, values, cap) in &dims {
            if exceeds(dim, values[t], cap) {
                throttled += 1;
                break;
            }
        }
    }
    throttled as f64 / n as f64
}

/// Eq. 1 for every SKU in `caps`, from one pass over the samples per 64
/// SKUs (see the module docs).
///
/// Element `i` equals [`throttling_probability`]`(history, &caps[i])` bit
/// for bit; an empty history throttles with probability 0.
pub fn throttling_probabilities(history: &PerfHistory, caps: &[ResourceCaps]) -> Vec<f64> {
    ThrottleCounts::scan(history, caps).probabilities().collect()
}

/// [`ThrottleBreakdown`] for every SKU in `caps`, from the same pass as
/// [`throttling_probabilities`].
///
/// Element `i` equals [`ThrottleBreakdown::compute`]`(history, &caps[i])`
/// bit for bit.
pub fn throttle_breakdowns(history: &PerfHistory, caps: &[ResourceCaps]) -> Vec<ThrottleBreakdown> {
    let counts = ThrottleCounts::scan(history, caps);
    (0..caps.len()).map(|sku| counts.breakdown(sku)).collect()
}

/// The integer result of the one-pass kernel over a history and a SKU
/// list: each SKU's joint throttled-sample count, and per 64-SKU chunk and
/// collected dimension the level table with its histogram.
#[derive(Default)]
pub(crate) struct ThrottleCounts {
    samples: usize,
    /// Samples at which SKU `i` throttles on at least one dimension.
    joint: Vec<usize>,
    /// Collected dimensions: each chunk owns this many consecutive tables.
    dims: usize,
    /// Chunk-major: chunk `c`'s tables are `tables[c * dims..][..dims]`,
    /// in the history's canonical dimension order.
    tables: Vec<LevelMasks>,
}

impl ThrottleCounts {
    /// Run the kernel (see the module docs).
    pub(crate) fn scan(history: &PerfHistory, caps: &[ResourceCaps]) -> ThrottleCounts {
        let samples = history.len();
        let dims = history.iter().count();
        let mut joint = vec![0usize; caps.len()];
        let mut tables = Vec::with_capacity(dims * caps.len().div_ceil(CHUNK));
        let mut sample_masks = vec![0u64; samples];
        for (chunk, counts) in caps.chunks(CHUNK).zip(joint.chunks_mut(CHUNK)) {
            sample_masks.fill(0);
            for (dim, series) in history.iter() {
                let mut table = LevelMasks::build(dim, chunk);
                table.throttle(&mut sample_masks, series.values());
                tables.push(table);
            }
            sample_masks.sort_unstable();
            for run in sample_masks.chunk_by(|a, b| a == b) {
                let mut skus = run[0];
                while skus != 0 {
                    counts[skus.trailing_zeros() as usize] += run.len();
                    skus &= skus - 1;
                }
            }
        }
        ThrottleCounts { samples, joint, dims, tables }
    }

    /// `count / n`, the reference's expression; 0 for an empty history.
    fn fraction(&self, count: usize) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            count as f64 / self.samples as f64
        }
    }

    /// Each SKU's joint throttling probability, in `caps` order.
    pub(crate) fn probabilities(&self) -> impl Iterator<Item = f64> + '_ {
        self.joint.iter().map(|&count| self.fraction(count))
    }

    /// SKU `sku`'s breakdown; equals [`ThrottleBreakdown::compute`] on its
    /// capacities bit for bit.
    pub(crate) fn breakdown(&self, sku: usize) -> ThrottleBreakdown {
        let bit = sku % CHUNK;
        let per_dimension = self.tables[sku / CHUNK * self.dims..][..self.dims]
            .iter()
            .map(|table| (table.dim, self.fraction(table.exceeding(bit))))
            .collect();
        ThrottleBreakdown { per_dimension, joint: self.fraction(self.joint[sku]) }
    }
}

/// SKUs per kernel pass: one bit each in a `u64` mask.
const CHUNK: usize = u64::BITS as usize;

/// One dimension's exceedance table over at most 64 SKUs.
///
/// Capacities and demands are *oriented*: multiplied by `sign`, which is -1
/// on the inverted latency dimension, so its `demand < cap` reads
/// `-demand > -cap` and every dimension compares with `>`.
struct LevelMasks {
    dim: PerfDimension,
    sign: f64,
    /// Distinct non-NaN oriented capacities, ascending, so a demand exceeds
    /// a prefix.
    levels: Vec<f64>,
    /// `bins[k]`: for a demand exceeding exactly `levels[..k]`, the SKUs it
    /// throttles and how many samples landed there (none in bin 0, see
    /// [`LevelMasks::throttle`]).
    bins: Vec<Bin>,
}

/// Level index `k` of a [`LevelMasks`].
#[derive(Clone, Copy)]
struct Bin {
    /// Bit `j` set when SKU `j`'s capacity is among `levels[..k]`.
    skus: u64,
    /// Samples whose demand exceeds exactly `levels[..k]`.
    samples: usize,
}

impl LevelMasks {
    fn build(dim: PerfDimension, chunk: &[ResourceCaps]) -> LevelMasks {
        let sign = if dim.inverted() { -1.0 } else { 1.0 };
        let sku_caps = || {
            chunk
                .iter()
                .map(move |c| sign * capacity(c, dim))
                .enumerate()
                .filter(|&(_, cap)| !cap.is_nan())
        };
        let mut levels: Vec<f64> = sku_caps().map(|(_, cap)| cap).collect();
        levels.sort_unstable_by(f64::total_cmp);
        levels.dedup_by(|a, b| a == b);
        let mut bins = vec![Bin { skus: 0, samples: 0 }; levels.len() + 1];
        for (j, cap) in sku_caps() {
            // The levels a capacity exceeds are those before its own.
            bins[levels.partition_point(|&level| cap > level) + 1].skus |= 1 << j;
        }
        for k in 1..bins.len() {
            bins[k].skus |= bins[k - 1].skus;
        }
        LevelMasks { dim, sign, levels, bins }
    }

    /// OR into each sample's mask the SKUs its demand throttles here, and
    /// count the sample in its level's bin.
    ///
    /// A demand that does not exceed the lowest level lands in bin 0, which
    /// throttles no SKU; it is skipped, so bin 0 counts no samples.
    fn throttle(&mut self, sample_masks: &mut [u64], demands: &[f64]) {
        let Some((&lowest, higher)) = self.levels.split_first() else { return };
        for (mask, &demand) in sample_masks.iter_mut().zip(demands) {
            let demand = self.sign * demand;
            if demand > lowest {
                let level = 1 + higher.iter().take_while(|&&level| demand > level).count();
                let bin = &mut self.bins[level];
                *mask |= bin.skus;
                bin.samples += 1;
            }
        }
    }

    /// Samples whose demand exceeds chunk SKU `bit`'s capacity.
    fn exceeding(&self, bit: usize) -> usize {
        self.bins.iter().filter(|bin| bin.skus >> bit & 1 == 1).map(|bin| bin.samples).sum()
    }
}

/// Per-dimension exceedance fractions plus the joint probability; feeds the
/// explanation module ("why did this SKU score 0.82?").
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ThrottleBreakdown {
    /// `(dimension, fraction of samples exceeding capacity)`, one entry per
    /// collected dimension, in canonical order.
    pub per_dimension: Vec<(PerfDimension, f64)>,
    /// The joint union probability (what Eq. 1 reports).
    pub joint: f64,
}

impl ThrottleBreakdown {
    /// Compute the breakdown for one SKU.
    pub fn compute(history: &PerfHistory, caps: &ResourceCaps) -> ThrottleBreakdown {
        let n = history.len();
        let mut per_dimension = Vec::new();
        for (dim, series) in history.iter() {
            let cap = capacity(caps, dim);
            let count = series.values().iter().filter(|&&v| exceeds(dim, v, cap)).count();
            per_dimension.push((dim, if n == 0 { 0.0 } else { count as f64 / n as f64 }));
        }
        ThrottleBreakdown { per_dimension, joint: throttling_probability(history, caps) }
    }

    /// The dimension with the highest individual exceedance, if any
    /// exceeds at all — the bottleneck the explanation names.
    pub fn bottleneck(&self) -> Option<(PerfDimension, f64)> {
        self.per_dimension
            .iter()
            .copied()
            .filter(|&(_, f)| f > 0.0)
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppler_telemetry::TimeSeries;

    fn caps(vcores: f64, memory: f64, iops: f64, latency: f64) -> ResourceCaps {
        ResourceCaps {
            vcores,
            memory_gb: memory,
            max_data_gb: 1024.0,
            iops,
            log_rate_mbps: 100.0,
            min_io_latency_ms: latency,
            throughput_mbps: 1000.0,
        }
    }

    fn history(cpu: Vec<f64>, latency: Vec<f64>) -> PerfHistory {
        PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(cpu))
            .with(PerfDimension::IoLatency, TimeSeries::ten_minute(latency))
    }

    #[test]
    fn empty_history_never_throttles() {
        assert_eq!(throttling_probability(&PerfHistory::new(), &caps(2.0, 10.0, 600.0, 5.0)), 0.0);
    }

    #[test]
    fn ample_capacity_never_throttles() {
        let h = history(vec![1.0, 1.5, 1.8], vec![6.0, 6.0, 6.0]);
        assert_eq!(throttling_probability(&h, &caps(2.0, 10.0, 600.0, 5.0)), 0.0);
    }

    #[test]
    fn cpu_exceedance_counts_per_sample() {
        let h = history(vec![1.0, 3.0, 1.0, 3.0], vec![6.0; 4]);
        assert_eq!(throttling_probability(&h, &caps(2.0, 10.0, 600.0, 5.0)), 0.5);
    }

    #[test]
    fn latency_dimension_is_inverted() {
        // The workload requires 1 ms at half the samples; a 5 ms-floor SKU
        // throttles exactly there.
        let h = history(vec![1.0; 4], vec![1.0, 6.0, 1.0, 6.0]);
        assert_eq!(throttling_probability(&h, &caps(2.0, 10.0, 600.0, 5.0)), 0.5);
        // A 1 ms-floor (BC-like) SKU satisfies all samples.
        assert_eq!(throttling_probability(&h, &caps(2.0, 10.0, 600.0, 1.0)), 0.0);
    }

    #[test]
    fn union_does_not_double_count_correlated_exceedance() {
        // CPU and latency exceed at the SAME samples: the union is 0.5,
        // not 1 - (1-0.5)(1-0.5) = 0.75.
        let h = history(vec![3.0, 1.0, 3.0, 1.0], vec![1.0, 6.0, 1.0, 6.0]);
        assert_eq!(throttling_probability(&h, &caps(2.0, 10.0, 600.0, 5.0)), 0.5);
    }

    #[test]
    fn union_adds_disjoint_exceedances() {
        // CPU exceeds at samples 0-1, latency at samples 2-3: union = 1.0.
        let h = history(vec![3.0, 3.0, 1.0, 1.0], vec![6.0, 6.0, 1.0, 1.0]);
        assert_eq!(throttling_probability(&h, &caps(2.0, 10.0, 600.0, 5.0)), 1.0);
    }

    #[test]
    fn probability_is_monotone_in_capacity() {
        let h =
            history((0..100).map(|i| (i % 10) as f64).collect(), (0..100).map(|_| 6.0).collect());
        let mut last = 1.0;
        for vcores in [1.0, 3.0, 5.0, 8.0, 12.0] {
            let p = throttling_probability(&h, &caps(vcores, 100.0, 1e6, 5.0));
            assert!(p <= last + 1e-12, "p not monotone at {vcores} vCores");
            last = p;
        }
    }

    #[test]
    fn breakdown_reports_bottleneck() {
        // CPU exceeds at t=0,1,2; latency only at t=0 (overlapping): the
        // joint union is 0.75 and CPU is the named bottleneck.
        let h = history(vec![3.0, 3.0, 3.0, 1.0], vec![1.0, 6.0, 6.0, 6.0]);
        let b = ThrottleBreakdown::compute(&h, &caps(2.0, 10.0, 600.0, 5.0));
        assert_eq!(b.joint, 0.75);
        let (dim, frac) = b.bottleneck().unwrap();
        assert_eq!(dim, PerfDimension::Cpu);
        assert_eq!(frac, 0.75);
        let lat = b.per_dimension.iter().find(|(d, _)| *d == PerfDimension::IoLatency).unwrap();
        assert_eq!(lat.1, 0.25);
    }

    #[test]
    fn breakdown_of_satisfied_workload_has_no_bottleneck() {
        let h = history(vec![0.5; 3], vec![6.0; 3]);
        let b = ThrottleBreakdown::compute(&h, &caps(2.0, 10.0, 600.0, 5.0));
        assert_eq!(b.joint, 0.0);
        assert!(b.bottleneck().is_none());
    }

    #[test]
    fn boundary_values_do_not_throttle() {
        // Demand exactly at capacity is satisfied (strict inequality).
        let h = history(vec![2.0; 3], vec![5.0; 3]);
        assert_eq!(throttling_probability(&h, &caps(2.0, 10.0, 600.0, 5.0)), 0.0);
    }
}
