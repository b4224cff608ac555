//! Backtest determinism suite: a replayed back-test must be bit-for-bit
//! identical at any worker count — report, rendering, and JSON export.
//!
//! CI runs this in the dedicated determinism job with `--test-threads=1`;
//! the 1/4/8-worker sweep lives inside each test.

use doppler::dma::json::{Json, JsonCodec};
use doppler::fleet::BacktestCase;
use doppler::prelude::*;

const WORKER_SWEEP: [usize; 3] = [1, 4, 8];

fn catalog() -> Catalog {
    azure_paas_catalog(&CatalogSpec::default())
}

fn history(cpu: f64, iops: f64) -> PerfHistory {
    PerfHistory::new()
        .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; 144]))
        .with(PerfDimension::Memory, TimeSeries::ten_minute(vec![1.5 + cpu; 144]))
        .with(PerfDimension::Iops, TimeSeries::ten_minute(vec![iops; 144]))
        .with(PerfDimension::LogRate, TimeSeries::ten_minute(vec![0.5; 144]))
}

fn training(n: usize) -> Vec<TrainingRecord> {
    (0..n)
        .map(|i| {
            let cpu = 0.2 + (i % 10) as f64 * 0.6;
            TrainingRecord {
                history: history(cpu, cpu * 180.0),
                chosen_sku: SkuId(if cpu > 3.0 { "DB_GP_8".into() } else { "DB_GP_2".into() }),
                file_layout: None,
            }
        })
        .collect()
}

fn cases(n: usize) -> Vec<BacktestCase> {
    (0..n)
        .map(|i| BacktestCase {
            name: format!("holdout-{i}"),
            deployment: DeploymentType::SqlDb,
            history: history(0.3 + (i % 7) as f64 * 0.55, 100.0 + (i % 7) as f64 * 250.0),
            file_sizes_gib: vec![],
            // Every third case carries a ground-truth label; the rest fall
            // back to the reference assessor's pick.
            ground_truth: (i % 3 == 0).then(|| "DB_GP_8".to_string()),
        })
        .collect()
}

fn harness(workers: usize) -> Backtest {
    let learned = LearnedBackend::train(
        catalog(),
        EngineConfig::production(DeploymentType::SqlDb),
        LearnedConfig::default(),
        &training(24),
    );
    let heuristic =
        DopplerEngine::untrained(catalog(), EngineConfig::production(DeploymentType::SqlDb));
    Backtest::new(
        catalog(),
        FleetAssessor::new(learned, FleetConfig::with_workers(workers)),
        FleetAssessor::new(heuristic, FleetConfig::with_workers(workers)),
    )
    .with_labels("learned", "heuristic")
}

#[test]
fn backtest_reports_are_bit_for_bit_identical_across_worker_counts() {
    let cohort = cases(24);
    let reports: Vec<BacktestReport> =
        WORKER_SWEEP.iter().map(|&w| harness(w).run(&cohort)).collect();
    assert_eq!(reports[0], reports[1], "1 vs 4 workers");
    assert_eq!(reports[1], reports[2], "4 vs 8 workers");
    assert_eq!(reports[0].render(), reports[2].render(), "rendering is a pure function");
    assert!(reports[0].scored_pairs > 0, "the sweep actually scored something");
}

#[test]
fn backtest_json_export_is_identical_and_lossless_across_worker_counts() {
    let cohort = cases(16);
    let exports: Vec<String> =
        WORKER_SWEEP.iter().map(|&w| harness(w).run(&cohort).to_json().render_pretty()).collect();
    assert_eq!(exports[0], exports[1]);
    assert_eq!(exports[1], exports[2]);
    let parsed = Json::parse(&exports[0]).expect("valid JSON");
    let report = BacktestReport::from_json(&parsed).expect("structurally sound");
    assert_eq!(report, harness(1).run(&cohort), "round trip equals a fresh run");
}

#[test]
fn repeated_runs_of_one_harness_are_stable() {
    let cohort = cases(12);
    let harness = harness(4);
    let first = harness.run(&cohort);
    let second = harness.run(&cohort);
    assert_eq!(first, second, "a harness is reusable without state leakage");
}
