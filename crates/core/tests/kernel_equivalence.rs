//! The one-pass Eq. 1 kernel against the per-SKU reference, bit for bit.
//!
//! `throttling_probabilities(h, caps)[i]` must equal
//! `throttling_probability(h, &caps[i])` by `to_bits()`, every
//! per-dimension and joint fraction of `throttle_breakdowns(h, caps)[i]`
//! must equal `ThrottleBreakdown::compute(h, &caps[i])`'s, and the curve
//! builders that now run the kernel (`PricePerformanceCurve::
//! generate`, `mi_curve`) must reproduce the per-SKU loop they replaced.
//!
//! Each drawn seed expands into a whole case: 0 to 130 SKUs (across the
//! 64-SKU chunk boundary) with duplicate capacities, demand landing exactly
//! on capacities, ±0.0, the inverted latency dimension, and NaN/±inf
//! capacities. `KERNEL_CASES` raises the case count (default 96):
//!
//! ```text
//! KERNEL_CASES=2000 cargo test --release -p doppler-core --test kernel_equivalence
//! ```

use doppler_catalog::{
    azure_paas_catalog, BillingRates, Catalog, CatalogSpec, DeploymentType, FileLayout,
    ResourceCaps, ServiceTier,
};
use doppler_core::mi::IOPS_SATISFACTION_FRACTION;
use doppler_core::throttling::{throttle_breakdowns, throttling_probabilities};
use doppler_core::{mi_curve, throttling_probability, PricePerformanceCurve, ThrottleBreakdown};
use doppler_stats::descriptive::max;
use doppler_telemetry::{PerfDimension, PerfHistory, TimeSeries};
use proptest::prelude::*;

fn cases() -> u32 {
    std::env::var("KERNEL_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(96)
}

/// Window lengths every run covers; one more index draws a random length.
const LENGTHS: [usize; 6] = [0, 1, 2, 3, 144, 2016];

/// SKU counts around the chunk boundaries; one more index draws 0..=130.
const SKU_COUNTS: [usize; 9] = [0, 1, 63, 64, 65, 127, 128, 129, 130];

/// Capacity/demand levels shared by SKUs and samples, so duplicate
/// capacities and demand exactly at a capacity are the common case.
const GRID: [f64; 9] = [-0.0, 0.0, 0.5, 1.0, 2.0, 4.0, 5.0, 8.0, 16.0];

/// Capacities no real SKU has but the kernel must still agree on.
const ODD_CAPS: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];

/// A splitmix64 stream: one drawn seed expands into a whole case.
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    fn pick(&mut self, values: &[f64]) -> f64 {
        values[self.below(values.len())]
    }
}

fn window_length(gen: &mut Gen, shape: usize) -> usize {
    LENGTHS.get(shape).copied().unwrap_or_else(|| gen.below(700))
}

fn sku_count(gen: &mut Gen, mode: usize) -> usize {
    SKU_COUNTS.get(mode).copied().unwrap_or_else(|| gen.below(131))
}

/// A demand sample: on the grid (exactly at some capacity), or anywhere in
/// `[-1, 20)`.
fn demand(gen: &mut Gen) -> f64 {
    if gen.chance(0.5) {
        gen.pick(&GRID)
    } else {
        gen.unit() * 21.0 - 1.0
    }
}

fn capacity(gen: &mut Gen) -> f64 {
    match gen.below(10) {
        0 => gen.pick(&ODD_CAPS),
        1..=6 => gen.pick(&GRID),
        _ => gen.unit() * 20.0,
    }
}

/// A history over a random subset of the six dimensions (latency, the
/// inverted one, included most of the time).
fn history(gen: &mut Gen, n: usize) -> PerfHistory {
    let mut h = PerfHistory::new();
    for dim in PerfDimension::ALL {
        if gen.chance(0.75) {
            let values = (0..n).map(|_| demand(gen)).collect();
            h.insert(dim, TimeSeries::ten_minute(values));
        }
    }
    h
}

fn caps(gen: &mut Gen) -> ResourceCaps {
    ResourceCaps {
        vcores: capacity(gen),
        memory_gb: capacity(gen),
        max_data_gb: capacity(gen),
        iops: capacity(gen),
        log_rate_mbps: capacity(gen),
        min_io_latency_ms: capacity(gen),
        throughput_mbps: capacity(gen),
    }
}

/// Every SKU's kernel probability and breakdown equal the reference's, by
/// bit pattern.
fn assert_kernel_matches(h: &PerfHistory, caps: &[ResourceCaps]) {
    let kernel = throttling_probabilities(h, caps);
    let breakdowns = throttle_breakdowns(h, caps);
    assert_eq!(kernel.len(), caps.len());
    assert_eq!(breakdowns.len(), caps.len());
    for (i, ((&p, breakdown), sku)) in kernel.iter().zip(&breakdowns).zip(caps).enumerate() {
        let reference = throttling_probability(h, sku);
        assert_eq!(p.to_bits(), reference.to_bits(), "SKU {i}: {p} vs {reference}");
        let reference = ThrottleBreakdown::compute(h, sku);
        assert_eq!(bits(breakdown), bits(&reference), "SKU {i}: {breakdown:?} vs {reference:?}");
    }
}

/// A breakdown's dimensions and fractions as bit patterns.
fn bits(breakdown: &ThrottleBreakdown) -> (Vec<(PerfDimension, u64)>, u64) {
    let per_dimension = breakdown.per_dimension.iter().map(|&(d, f)| (d, f.to_bits())).collect();
    (per_dimension, breakdown.joint.to_bits())
}

/// `(sku_id, cost bits, raw bits, score bits)` rows: `==` on floats would
/// let -0.0 pass for 0.0.
fn rows(curve: &PricePerformanceCurve) -> Vec<(String, u64, u64, u64)> {
    curve
        .points()
        .iter()
        .map(|p| {
            (p.sku_id.clone(), p.monthly_cost.to_bits(), p.raw_score.to_bits(), p.score.to_bits())
        })
        .collect()
}

/// A workload scaled to the catalog: samples at SKU capacities or between
/// zero and the largest one.
fn catalog_history(gen: &mut Gen, n: usize, skus: &[ResourceCaps]) -> PerfHistory {
    let mut h = PerfHistory::new();
    for dim in PerfDimension::ALL {
        let levels: Vec<f64> = skus
            .iter()
            .map(|c| match dim {
                PerfDimension::Cpu => c.vcores,
                PerfDimension::Memory => c.memory_gb,
                PerfDimension::Iops => c.iops,
                PerfDimension::IoLatency => c.min_io_latency_ms,
                PerfDimension::LogRate => c.log_rate_mbps,
                PerfDimension::Storage => c.max_data_gb,
            })
            .collect();
        let top = levels.iter().copied().fold(1.0, f64::max);
        let values =
            (0..n).map(|_| if gen.chance(0.3) { gen.pick(&levels) } else { gen.unit() * top });
        h.insert(dim, TimeSeries::ten_minute(values.collect()));
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn kernel_matches_reference_bit_for_bit(
        seed in 0..u64::MAX,
        shape in 0..LENGTHS.len() + 1,
        mode in 0..SKU_COUNTS.len() + 1,
    ) {
        let mut gen = Gen(seed);
        let n = window_length(&mut gen, shape);
        let m = sku_count(&mut gen, mode);
        let h = history(&mut gen, n);
        let caps: Vec<ResourceCaps> = (0..m).map(|_| caps(&mut gen)).collect();
        assert_kernel_matches(&h, &caps);
    }

    #[test]
    fn generate_matches_the_per_sku_curve(seed in 0..u64::MAX, shape in 0..LENGTHS.len() + 1) {
        let mut gen = Gen(seed);
        let n = window_length(&mut gen, shape);
        let catalog = azure_paas_catalog(&CatalogSpec::default());
        for deployment in [DeploymentType::SqlDb, DeploymentType::SqlMi] {
            let skus = catalog.for_deployment(deployment);
            let sku_caps: Vec<ResourceCaps> = skus.iter().map(|s| s.caps).collect();
            let h = catalog_history(&mut gen, n, &sku_caps);
            assert_kernel_matches(&h, &sku_caps);
            let reference = PricePerformanceCurve::from_scored(
                skus.iter()
                    .map(|s| {
                        (s.id.to_string(), s.monthly_cost(), 1.0 - throttling_probability(&h, &s.caps))
                    })
                    .collect(),
            );
            prop_assert_eq!(rows(&PricePerformanceCurve::generate(&h, &skus)), rows(&reference));
        }
    }

    #[test]
    fn mi_curve_matches_the_per_sku_curve(
        seed in 0..u64::MAX,
        shape in 0..LENGTHS.len() + 1,
        files in 1usize..5,
    ) {
        let mut gen = Gen(seed);
        let n = window_length(&mut gen, shape);
        let catalog = azure_paas_catalog(&CatalogSpec::default());
        let rates = BillingRates::default();
        let sku_caps: Vec<ResourceCaps> =
            catalog.for_deployment(DeploymentType::SqlMi).iter().map(|s| s.caps).collect();
        let h = catalog_history(&mut gen, n, &sku_caps);
        let sizes: Vec<f64> = (0..files).map(|_| 10.0 + gen.unit() * 3000.0).collect();
        let layout = FileLayout::from_sizes(&sizes);
        match (reference_mi(&h, &layout, &catalog, &rates), mi_curve(&h, &layout, &catalog, &rates)) {
            (Some((adjusted, scored)), Some(assessed)) => {
                assert_kernel_matches(&h, &adjusted);
                prop_assert_eq!(
                    rows(&assessed.curve),
                    rows(&PricePerformanceCurve::from_scored(scored))
                );
            }
            (reference, assessed) => {
                prop_assert!(reference.is_none() && assessed.is_none(), "placement disagrees");
            }
        }
    }
}

/// A `(sku, monthly cost, raw score)` curve row.
type Scored = (String, f64, f64);

/// The MI flow's per-SKU loop: the layout-adjusted capacities of every
/// candidate and its `(sku, monthly cost, raw score)` row, or `None` when
/// no placement exists.
fn reference_mi(
    h: &PerfHistory,
    layout: &FileLayout,
    catalog: &Catalog,
    rates: &BillingRates,
) -> Option<(Vec<ResourceCaps>, Vec<Scored>)> {
    let iops_demand = h.values(PerfDimension::Iops).and_then(max).unwrap_or(0.0);
    let (storage, satisfied) = layout.assign_tiers_for_demand(
        iops_demand,
        iops_demand / 128.0,
        IOPS_SATISFACTION_FRACTION,
    )?;
    let mut adjusted = Vec::new();
    let mut scored = Vec::new();
    for sku in catalog.for_deployment(DeploymentType::SqlMi) {
        if !satisfied && sku.tier == ServiceTier::GeneralPurpose {
            continue;
        }
        if sku.caps.max_data_gb < layout.total_gib() {
            continue;
        }
        let mut caps = sku.caps;
        let monthly = match sku.tier {
            ServiceTier::GeneralPurpose => {
                caps.iops = storage.total_iops();
                caps.throughput_mbps = storage.total_throughput_mibps();
                rates.monthly_with_storage(sku, &storage)
            }
            ServiceTier::BusinessCritical => sku.monthly_cost(),
        };
        scored.push((sku.id.to_string(), monthly, 1.0 - throttling_probability(h, &caps)));
        adjusted.push(caps);
    }
    Some((adjusted, scored))
}

#[test]
fn chunk_boundaries_keep_each_sku_in_its_own_slot() {
    // 130 SKUs whose vCores step by one: SKU i throttles exactly on the
    // samples above i, so any cross-chunk mix-up shows as a wrong count.
    let n = 140;
    let h = PerfHistory::new()
        .with(PerfDimension::Cpu, TimeSeries::ten_minute((0..n).map(|t| t as f64).collect()));
    let caps: Vec<ResourceCaps> = (0..130)
        .map(|i| ResourceCaps {
            vcores: i as f64,
            memory_gb: 1.0,
            max_data_gb: 1.0,
            iops: 1.0,
            log_rate_mbps: 1.0,
            min_io_latency_ms: 1.0,
            throughput_mbps: 1.0,
        })
        .collect();
    let expected: Vec<f64> = (0..130).map(|i| (n - 1 - i) as f64 / n as f64).collect();
    assert_eq!(throttling_probabilities(&h, &caps), expected);
    assert_kernel_matches(&h, &caps);
}

/// A history with every dimension set to `demand` at all `n` samples.
fn constant_history(n: usize, demand: f64) -> PerfHistory {
    let mut h = PerfHistory::new();
    for dim in PerfDimension::ALL {
        h.insert(dim, TimeSeries::ten_minute(vec![demand; n]));
    }
    h
}

/// 100 SKUs (two chunks) over the grid and the odd capacities.
fn fixed_caps() -> Vec<ResourceCaps> {
    let values: Vec<f64> = GRID.iter().chain(&ODD_CAPS).copied().collect();
    (0..100)
        .map(|i| {
            let at = |k: usize| values[(i * 7 + k * 3) % values.len()];
            ResourceCaps {
                vcores: at(0),
                memory_gb: at(1),
                max_data_gb: at(2),
                iops: at(3),
                log_rate_mbps: at(4),
                min_io_latency_ms: at(5),
                throughput_mbps: at(6),
            }
        })
        .collect()
}

#[test]
fn demand_above_every_level_scans_to_the_end() {
    // The ascending scan's worst case: every sample exceeds every finite
    // level, on latency too (a demand tighter than every finite floor).
    for n in [144, 2016] {
        let h = constant_history(n, 1e300)
            .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![-1e300; n]));
        assert_kernel_matches(&h, &fixed_caps());
    }
}

#[test]
fn all_negative_zero_demand_matches() {
    // -0.0 equals the ±0.0 capacities (no throttle) and sits below every
    // positive one; on latency it throttles every SKU with a positive floor.
    let h = constant_history(2016, -0.0);
    assert_kernel_matches(&h, &fixed_caps());
    let breakdown = &throttle_breakdowns(&h, &fixed_caps())[0];
    assert_eq!(breakdown.per_dimension.len(), PerfDimension::ALL.len());
}
