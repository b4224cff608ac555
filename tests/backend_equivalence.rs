//! Backend-redesign determinism suite: the learned backend and the
//! champion/challenger harness must be as reproducible as the heuristic
//! path they ride on.
//!
//! CI runs this in the dedicated determinism job with `--test-threads=1`;
//! the 1/4/8-worker sweep lives inside each test.

use doppler::dma::json::{Json, JsonCodec};
use doppler::dma::preprocess::PreprocessedInstance;
use doppler::prelude::*;
use proptest::prelude::*;

const WORKER_SWEEP: [usize; 3] = [1, 4, 8];

fn catalog() -> Catalog {
    azure_paas_catalog(&CatalogSpec::default())
}

fn config() -> EngineConfig {
    EngineConfig::production(DeploymentType::SqlDb)
}

fn history(cpu: f64, mem: f64) -> PerfHistory {
    PerfHistory::new()
        .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; 96]))
        .with(PerfDimension::Memory, TimeSeries::ten_minute(vec![mem; 96]))
        .with(PerfDimension::Iops, TimeSeries::ten_minute(vec![cpu * 150.0; 96]))
        .with(PerfDimension::LogRate, TimeSeries::ten_minute(vec![0.5; 96]))
}

fn training(n: usize) -> Vec<TrainingRecord> {
    (0..n)
        .map(|i| {
            let cpu = 0.2 + (i % 10) as f64 * 0.6;
            TrainingRecord {
                history: history(cpu, 1.0 + cpu),
                chosen_sku: SkuId(if cpu > 3.0 { "DB_GP_8".into() } else { "DB_GP_2".into() }),
                file_layout: None,
            }
        })
        .collect()
}

fn learned_backend(floor: f64, records: &[TrainingRecord]) -> LearnedBackend {
    LearnedBackend::train(
        catalog(),
        config(),
        LearnedConfig { similarity_floor: floor, ..LearnedConfig::default() },
        records,
    )
}

fn request(name: String, cpu: f64) -> FleetRequest {
    FleetRequest::new(
        DeploymentType::SqlDb,
        AssessmentRequest {
            instance_name: name,
            input: PreprocessedInstance {
                instance: history(cpu, 2.0),
                databases: vec![("db0".into(), PerfHistory::new())],
                file_sizes_gib: vec![],
            },
            confidence: Some(ConfidenceConfig { replicates: 4, window_samples: 24, seed: 7 }),
        },
    )
}

fn cohort(n: usize) -> Vec<FleetRequest> {
    (0..n).map(|i| request(format!("inst-{i:04}"), 0.2 + (i % 13) as f64 * 0.55)).collect()
}

/// A trained learned backend yields the same fleet report — and the same
/// per-instance SKUs — at 1, 4, and 8 workers.
#[test]
fn learned_backend_fleets_are_deterministic_across_worker_counts() {
    let records = training(24);
    let fleet = cohort(96);
    let baseline = FleetAssessor::new(learned_backend(0.0, &records), FleetConfig::with_workers(1))
        .assess(fleet.clone());
    assert!(baseline.report.recommended > 0);

    for workers in WORKER_SWEEP {
        let run =
            FleetAssessor::new(learned_backend(0.0, &records), FleetConfig::with_workers(workers))
                .assess(fleet.clone());
        assert_eq!(run.report, baseline.report, "learned report at {workers} workers");
        assert_eq!(run.report.render(), baseline.report.render());
        for (got, want) in run.results.iter().zip(&baseline.results) {
            let got = got.outcome.as_ref().unwrap();
            let want = want.outcome.as_ref().unwrap();
            assert_eq!(got.recommendation.sku_id, want.recommendation.sku_id);
            assert_eq!(got.recommendation.monthly_cost, want.recommendation.monthly_cost);
            assert_eq!(got.recommendation.confidence, want.recommendation.confidence);
        }
    }
}

/// The acceptance scenario: a ≥1k-instance cohort through a shared
/// registry, heuristic champion vs learned challenger. One training per
/// `(key, backend)`, side-by-side columns in the report, and the whole
/// A/B outcome bit-for-bit stable across worker counts.
#[test]
fn thousand_instance_ab_fleet_is_deterministic_and_trains_once_per_backend() {
    use std::sync::Arc;

    let fleet = cohort(1024);
    let key = CatalogKey::production(DeploymentType::SqlDb);
    let training_set = TrainingSet::new(training(32));
    let mut reports = Vec::new();

    for workers in WORKER_SWEEP {
        let registry =
            Arc::new(EngineRegistry::new(Arc::new(InMemoryCatalogProvider::production())));
        let route = || EngineRoute::production(key.clone()).trained(training_set.clone());
        let champion =
            FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(workers))
                .with_route(route());
        let challenger =
            FleetAssessor::over_registry(Arc::clone(&registry), FleetConfig::with_workers(workers))
                .with_route(
                    route().with_backend_spec(BackendSpec::Learned(LearnedConfig::default())),
                );

        let outcome = AbFleet::new(champion, challenger).assess(fleet.clone());
        let stats = registry.stats();
        assert_eq!(stats.misses, 2, "one training per (key, backend) at {workers} workers");
        assert_eq!(stats.failures, 0);

        let ab = outcome.report.ab.as_ref().expect("A/B summary attached");
        assert_eq!(ab.paired, 1024);
        assert_eq!(ab.champion.backend, "heuristic");
        assert_eq!(ab.challenger.backend, "learned");
        assert!(ab.both_recommended > 0);
        let rendered = outcome.report.render();
        assert!(rendered.contains("Champion/challenger"));
        assert!(rendered.contains("SKU agreement"));

        // The JSON export round-trips losslessly at every worker count.
        let parsed = Json::parse(&ab.to_json().render_pretty()).unwrap();
        assert_eq!(AbSummary::from_json(&parsed).as_ref(), Some(ab));

        reports.push(outcome.report);
    }
    assert_eq!(reports[0], reports[1], "1 vs 4 workers");
    assert_eq!(reports[1], reports[2], "4 vs 8 workers");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The Lorentz safeguard: with a similarity floor no query can clear
    /// (> 1, while similarity = 1/(1+d) ≤ 1), the learned backend must
    /// return the heuristic fallback's *exact* recommendation for any
    /// workload — same SKU, same cost, same curve, bit for bit.
    #[test]
    fn floored_learned_backend_always_defers_to_the_heuristic(
        cpu in 0.05..20.0f64,
        mem in 0.25..64.0f64,
        corpus in 1usize..40,
    ) {
        let records = training(corpus);
        let floored = learned_backend(2.0, &records);
        let heuristic = DopplerEngine::untrained(catalog(), config());
        let workload = history(cpu, mem);

        let learned_rec = floored.recommend(&workload, None);
        let heuristic_rec = heuristic.recommend(&workload, None);
        prop_assert_eq!(&learned_rec, &heuristic_rec);

        // With the floor disabled the same corpus may override the SKU,
        // but never invent one outside the heuristic's own price-perf
        // curve.
        let open = learned_backend(0.0, &records);
        let open_rec = open.recommend(&workload, None);
        if let Some(sku) = &open_rec.sku_id {
            prop_assert!(
                heuristic_rec.curve.points().iter().any(|p| &p.sku_id == sku),
                "learned SKU {} not on the heuristic curve",
                sku
            );
        }
    }
}
