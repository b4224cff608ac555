//! Property-based tests for the engine's invariants.

use doppler_catalog::{azure_paas_catalog, CatalogSpec, DeploymentType, ResourceCaps};
use doppler_core::matching::{select_for_p, select_with_slack};
use doppler_core::{
    throttling_probability, BaselineStrategy, PricePerformanceCurve, ThrottleBreakdown,
};
use doppler_telemetry::{PerfDimension, PerfHistory, TimeSeries};
use proptest::prelude::*;

fn caps(vcores: f64, memory: f64, iops: f64, latency: f64) -> ResourceCaps {
    ResourceCaps {
        vcores,
        memory_gb: memory,
        max_data_gb: 4096.0,
        iops,
        log_rate_mbps: 1e6,
        min_io_latency_ms: latency,
        throughput_mbps: 1e6,
    }
}

fn history_strategy() -> impl Strategy<Value = PerfHistory> {
    (
        prop::collection::vec(0.0..40.0f64, 8..120),
        prop::collection::vec(0.0..200.0f64, 8..120),
        prop::collection::vec(0.1..20.0f64, 8..120),
    )
        .prop_map(|(cpu, mem, lat)| {
            let n = cpu.len().min(mem.len()).min(lat.len());
            PerfHistory::new()
                .with(PerfDimension::Cpu, TimeSeries::ten_minute(cpu[..n].to_vec()))
                .with(PerfDimension::Memory, TimeSeries::ten_minute(mem[..n].to_vec()))
                .with(PerfDimension::IoLatency, TimeSeries::ten_minute(lat[..n].to_vec()))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn throttling_probability_is_a_probability(h in history_strategy(), v in 0.1..100.0f64) {
        let p = throttling_probability(&h, &caps(v, v * 5.0, v * 300.0, 3.0));
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn throttling_is_monotone_in_capacity(h in history_strategy(), v in 0.1..50.0f64) {
        // Scaling every capacity up can never increase the probability
        // (latency scales *down*, its improving direction).
        let small = caps(v, v * 5.0, v * 300.0, 4.0);
        let big = caps(v * 2.0, v * 10.0, v * 600.0, 2.0);
        let p_small = throttling_probability(&h, &small);
        let p_big = throttling_probability(&h, &big);
        prop_assert!(p_big <= p_small + 1e-12, "{p_big} > {p_small}");
    }

    #[test]
    fn joint_throttling_lies_within_the_union_bounds(h in history_strategy()) {
        // Eq. 1 is a union over time-aligned samples, so its count lies
        // between the largest per-dimension count and their sum. Every
        // fraction shares the denominator `n`, so each count is recovered
        // exactly and checked to round-trip bit for bit.
        let n = h.len();
        let count = |fraction: f64| {
            let c = (fraction * n as f64).round() as usize;
            assert_eq!(c as f64 / n as f64, fraction, "{fraction} is not a count over {n}");
            c
        };
        let cat = azure_paas_catalog(&CatalogSpec::default());
        for sku in cat.for_deployment(DeploymentType::SqlDb) {
            let breakdown = ThrottleBreakdown::compute(&h, &sku.caps);
            prop_assert_eq!(breakdown.joint, throttling_probability(&h, &sku.caps));
            let joint = count(breakdown.joint);
            let per_dim: Vec<usize> =
                breakdown.per_dimension.iter().map(|&(_, f)| count(f)).collect();
            let max = per_dim.iter().copied().max().unwrap_or(0);
            let bound = per_dim.iter().sum::<usize>().min(n);
            prop_assert!(max <= joint, "{}: joint {joint} below max {max}", sku.id);
            prop_assert!(joint <= bound, "{}: joint {joint} above min(n, sum) {bound}", sku.id);
        }
    }

    #[test]
    fn curve_envelope_is_monotone_and_above_raw(h in history_strategy()) {
        let cat = azure_paas_catalog(&CatalogSpec::default());
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let curve = PricePerformanceCurve::generate(&h, &skus);
        for w in curve.points().windows(2) {
            prop_assert!(w[0].monthly_cost <= w[1].monthly_cost);
            prop_assert!(w[1].score >= w[0].score - 1e-12);
        }
        for p in curve.points() {
            prop_assert!(p.score >= p.raw_score - 1e-12);
            prop_assert!((0.0..=1.0).contains(&p.raw_score));
        }
    }

    #[test]
    fn selection_respects_the_constraint(h in history_strategy(), p_g in 0.0..1.0f64) {
        let cat = azure_paas_catalog(&CatalogSpec::default());
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let curve = PricePerformanceCurve::generate(&h, &skus);
        let best_score = curve.points().iter().map(|p| p.score).fold(0.0, f64::max);
        if let Some(pick) = select_for_p(&curve, p_g) {
            let p = 1.0 - pick.score;
            // Either the constraint held, or nothing satisfied it and the
            // fallback returned the most performant point.
            prop_assert!(
                p <= p_g + 1e-9 || (pick.score - best_score).abs() < 1e-12,
                "constraint violated: P {p} vs P_g {p_g}"
            );
        }
    }

    #[test]
    fn slack_only_widens_the_feasible_set(h in history_strategy(), p_g in 0.0..0.5f64, slack in 0.0..0.3f64) {
        let cat = azure_paas_catalog(&CatalogSpec::default());
        let skus = cat.for_deployment(DeploymentType::SqlDb);
        let curve = PricePerformanceCurve::generate(&h, &skus);
        let strict = select_for_p(&curve, p_g).map(|p| 1.0 - p.score);
        let loose = select_with_slack(&curve, p_g, slack).map(|p| 1.0 - p.score);
        if let (Some(s), Some(l)) = (strict, loose) {
            // The slack pick is at least as close to p_g from the feasible
            // side; both are valid probabilities.
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!((0.0..=1.0).contains(&l));
        }
    }

    #[test]
    fn baseline_result_dominates_its_own_requirement(h in history_strategy()) {
        let cat = azure_paas_catalog(&CatalogSpec::default());
        for strategy in [BaselineStrategy::max(), BaselineStrategy::p95()] {
            let req = strategy.requirement(&h);
            if let Some(sku) = strategy.recommend(&h, &cat, DeploymentType::SqlDb) {
                prop_assert!(sku.caps.dominates(&req), "{} fails its own requirement", sku.id);
            }
        }
    }

    #[test]
    fn max_baseline_never_throttles_on_additive_dimensions(h in history_strategy()) {
        // The max-reduction baseline over-provisions by construction: its
        // chosen SKU satisfies every sample of every *additive* dimension.
        // Latency is exempt — the baseline's scalar reduction handles the
        // inverted dimension backwards (the §5.3 flaw this repo reproduces
        // deliberately), so latency exceedances are expected.
        let cat = azure_paas_catalog(&CatalogSpec::default());
        if let Some(sku) = BaselineStrategy::max().recommend(&h, &cat, DeploymentType::SqlDb) {
            let breakdown = doppler_core::ThrottleBreakdown::compute(&h, &sku.caps);
            for (dim, frac) in breakdown.per_dimension {
                if !dim.inverted() {
                    prop_assert!(frac.abs() < 1e-12, "{dim} exceeded {frac} under max baseline");
                }
            }
        }
    }
}
