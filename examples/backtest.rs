//! Back-test the learned backend against ground truth, then stage its
//! rollout.
//!
//! Two acts:
//!
//! 1. **Backtest** — a synthetic cohort is split into a training fleet and
//!    a held-out fleet. The learned backend trains on the training fleet's
//!    (history → chosen SKU) pairs, then both its picks and the customers'
//!    own choices are *replayed* through the `doppler-replay` queueing
//!    machine on each held-out history (§5.4): fit rates, throttle months,
//!    and the projected cost delta land in one report.
//! 2. **Staged rollout** — the same champion/challenger pair rides a
//!    [`FleetScheduler`]: every simulated month the watched cohort is
//!    A/B-assessed, and the challenger is promoted automatically once
//!    agreement and savings clear the promotion policy's bar for the
//!    required streak of months.
//!
//! ```text
//! cargo run --release --example backtest
//! ```
//!
//! Flags via env (keeps the example dependency-free):
//! `FLEET_SIZE` (default 600), `FLEET_WORKERS` (default: all cores).

use doppler::dma::json::{Json, JsonCodec};
use doppler::fleet::BacktestCase;
use doppler::prelude::*;

fn main() {
    let fleet_size: usize =
        std::env::var("FLEET_SIZE").ok().and_then(|s| s.parse().ok()).unwrap_or(600);
    let workers: usize = std::env::var("FLEET_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));

    // 1. Split one synthetic cohort: the first half trains the learned
    //    backend, the second half is held out for the back-test.
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let config = EngineConfig::production(DeploymentType::SqlDb);
    let spec = PopulationSpec { days: 1.0, ..PopulationSpec::sql_db(fleet_size, 42) };
    let customers = spec.customers(&catalog);
    let (train, holdout) = customers.split_at(customers.len() / 2);

    let records: Vec<TrainingRecord> = train
        .iter()
        .map(|c| TrainingRecord {
            history: c.history.clone(),
            chosen_sku: c.chosen_sku.clone(),
            file_layout: c.file_layout.clone(),
        })
        .collect();
    let learned_config = LearnedConfig { features: FeatureSpec::FULL, ..LearnedConfig::default() };
    let learned = LearnedBackend::train(catalog.clone(), config, learned_config, &records);
    println!(
        "trained the learned backend on {} customers ({} features/dimension, {} exemplars)\n",
        records.len(),
        learned_config.features.per_dimension(),
        records.len().min(learned_config.max_profiles),
    );

    // 2. Replay the held-out fleet: the learned backend's picks (candidate)
    //    vs the SKUs those customers actually ran on (ground truth).
    let cases: Vec<BacktestCase> = holdout.iter().map(BacktestCase::from_customer).collect();
    let harness = Backtest::new(
        catalog.clone(),
        FleetAssessor::new(learned, FleetConfig::with_workers(workers)),
        FleetAssessor::new(
            DopplerEngine::untrained(catalog.clone(), config),
            FleetConfig::with_workers(workers),
        ),
    )
    .with_labels("learned", "ground-truth");
    let report = harness.run(&cases);
    println!("{}", report.render());

    // The export is lossless — what a dashboard stores is what it reads.
    let parsed = Json::parse(&report.to_json().render_pretty()).expect("valid JSON");
    let back = BacktestReport::from_json(&parsed).expect("structurally sound");
    assert_eq!(back, report, "dma::json round trip is lossless");
    println!("dma::json round trip: lossless ({} case rows)\n", report.cases.len());

    // 3. Stage the rollout: watch a slice of the fleet under a scheduler
    //    with the learned challenger attached. The demo policy promotes
    //    after two qualifying months (agreement >= 50%, any savings).
    let engine = || DopplerEngine::untrained(catalog.clone(), config);
    let challenger_side = || {
        let learned = LearnedBackend::train(
            catalog.clone(),
            config,
            LearnedConfig { features: FeatureSpec::FULL, ..LearnedConfig::default() },
            &records,
        );
        FleetAssessor::new(learned, FleetConfig::with_workers(workers))
    };
    let ab = AbFleet::new(
        FleetAssessor::new(engine(), FleetConfig::with_workers(workers)),
        challenger_side(),
    )
    .with_labels("heuristic", "learned");
    let policy = doppler::fleet::PromotionPolicy {
        min_agreement: 0.5,
        min_monthly_savings: 0.0,
        months_required: 2,
        demotion_months: 2,
    };
    let monitor =
        DriftMonitor::new(FleetAssessor::new(engine(), FleetConfig::with_workers(workers)));
    let mut sim =
        FleetScheduler::new(monitor, SimClock::starting(2022, 1)).with_challenger(ab, policy);
    for customer in holdout.iter().take(24) {
        sim.onboard_at(
            0,
            MonitoredCustomer::new(
                format!("customer-{}", customer.id),
                customer.deployment,
                customer.history.clone(),
            ),
        );
    }
    sim.run(3);
    match sim.rollout().and_then(|t| t.promoted_month().map(str::to_string)) {
        Some(month) => println!("challenger promoted in {month}"),
        None => println!("challenger not promoted yet (stage: {:?})", sim.rollout_stage()),
    }
    let final_report = sim.shutdown();
    println!("{}", final_report.render());
}
