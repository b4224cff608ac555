//! `lifecycle`: the operator re-assessing an estate month after month. A
//! `FleetScheduler` on a `SimClock` runs two simulated years over three
//! regions: staggered onboarding, monthly telemetry, one customer in five
//! drifting to a larger workload six months in, and a 0.95x price feed
//! every six months, rotating over the regions. Each roll retrains and
//! retires engines, so this workload writes to the registry where the
//! others only read it.

use std::sync::Arc;
use std::time::Instant;

use doppler_catalog::{
    azure_paas_catalog, CatalogKey, CatalogProvider, CatalogSpec, CatalogVersion, DeploymentType,
    InMemoryCatalogProvider, PriceFeed, RefreshableCatalogProvider, Region,
};
use doppler_core::{detect_drift, EngineRegistry, TrainingRecord, TrainingSet};
use doppler_dma::AssessmentRequest;
use doppler_fleet::{
    DriftMonitor, EngineRoute, FleetAssessor, FleetConfig, FleetScheduler, MonitoredCustomer,
    ScheduleSummary, SimClock,
};
use doppler_obs::{ObsRegistry, ObsSnapshot};
use doppler_telemetry::{PerfDimension, PerfHistory, TimeSeries};
use doppler_workload::PopulationSpec;

use crate::host::StealClock;
use crate::layers::{self, Item, Layers};
use crate::stats::{median, tail_sorted};
use crate::trace::{Span, Tracer};
use crate::{Args, Metric, Outcome, WORKERS};

const REGIONS: [(&str, f64); 3] = [("global", 1.0), ("westeurope", 1.08), ("eastasia", 1.12)];
const CUSTOMERS: usize = 240;
const DAYS: f64 = 7.0;
const TRAINING_RECORDS: usize = 256;
const MONTHS: usize = 24;
/// One customer in this many drifts.
const DRIFT_EVERY: usize = 5;
const DRIFT_AFTER: usize = 6;
const DRIFT_SCALE: f64 = 3.0;
const FEED_EVERY: usize = 6;
const FEED_MULTIPLIER: f64 = 0.95;
/// Untraced runs simulate at least this many lives, so the medians have
/// something to choose from.
const MIN_LIVES: usize = 3;

struct Customer {
    name: String,
    region: usize,
    onboard: usize,
    baseline: PerfHistory,
    /// The larger window a drifting customer reports from its drift month.
    drifted: Option<PerfHistory>,
}

struct Inputs {
    customers: Vec<Customer>,
    training: Vec<TrainingRecord>,
}

/// The same window with every additive demand scaled (latency and storage
/// allocation unchanged).
fn scaled(history: &PerfHistory, factor: f64) -> PerfHistory {
    history.iter().fold(PerfHistory::new(), |out, (dim, series)| {
        let values = match dim {
            PerfDimension::IoLatency | PerfDimension::Storage => series.values().to_vec(),
            _ => series.values().iter().map(|v| v * factor).collect(),
        };
        out.with(dim, TimeSeries::new(series.interval_minutes(), values))
    })
}

fn inputs(seed: u64) -> Inputs {
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let spec = PopulationSpec { days: DAYS, ..PopulationSpec::sql_db(CUSTOMERS, seed) };
    let customers = spec
        .stream_customers(&catalog)
        .enumerate()
        .map(|(i, c)| Customer {
            name: format!("cust-{i:04}"),
            region: i % REGIONS.len(),
            onboard: i % 12,
            drifted: (i % DRIFT_EVERY == 0).then(|| scaled(&c.history, DRIFT_SCALE)),
            baseline: c.history,
        })
        .collect();
    let migrated = PopulationSpec {
        days: DAYS,
        ..PopulationSpec::sql_db(TRAINING_RECORDS * 2, seed.wrapping_mul(31).wrapping_add(7))
    };
    let training = migrated
        .stream_customers(&catalog)
        .filter(|c| !c.over_provisioned)
        .take(TRAINING_RECORDS)
        .map(|c| TrainingRecord {
            history: c.history,
            chosen_sku: c.chosen_sku,
            file_layout: c.file_layout,
        })
        .collect();
    Inputs { customers, training }
}

fn region(r: usize) -> Region {
    Region::new(REGIONS[r].0)
}

/// Months each customer reports telemetry in: from the month after
/// onboarding to the end of the run.
fn telemetry_months(c: &Customer) -> std::ops::Range<usize> {
    c.onboard + 1..MONTHS
}

/// Months a feed lands in, with the region it re-prices.
fn feeds() -> impl Iterator<Item = (usize, usize)> {
    (FEED_EVERY - 1..MONTHS).step_by(FEED_EVERY).enumerate().map(|(k, m)| (m, k % REGIONS.len()))
}

/// What the scheduled life must report, worked out without the service:
/// probes from the calendar, drift verdicts from direct `detect_drift`
/// calls at each drifting customer's drift month, trainings from the
/// route keys plus one per feed.
struct Expected {
    probes: usize,
    drifted: usize,
    trainings: u64,
}

fn expected(inputs: &Inputs) -> Expected {
    let catalogs: Vec<_> = REGIONS
        .iter()
        .map(|&(_, m)| {
            let spec = CatalogSpec::default();
            azure_paas_catalog(&CatalogSpec { rates: spec.rates.scaled(m), ..spec })
        })
        .collect();
    let mut drifted = 0;
    for c in &inputs.customers {
        let Some(window) = &c.drifted else { continue };
        if !telemetry_months(c).contains(&(c.onboard + DRIFT_AFTER)) {
            continue;
        }
        let skus = catalogs[c.region].for_deployment(DeploymentType::SqlDb);
        let stitched = doppler_telemetry::concat(&c.baseline, window);
        let report = detect_drift(&stitched, c.baseline.len(), &skus, 0.0);
        if report.changed && report.before_sku.is_some() && report.after_sku.is_some() {
            drifted += 1;
        }
    }
    Expected {
        probes: inputs.customers.iter().map(|c| telemetry_months(c).len()).sum(),
        drifted,
        trainings: (REGIONS.len() + feeds().count()) as u64,
    }
}

fn key(r: usize) -> CatalogKey {
    CatalogKey::new(DeploymentType::SqlDb, region(r), CatalogVersion::INITIAL)
}

/// The key current in region `r` when month `m` starts: one version per
/// feed that region has had. (A feed landing in the onboarding month rolls
/// after onboarding and re-prices the customer itself.)
fn key_at(r: usize, m: usize) -> CatalogKey {
    let rolled = feeds().filter(|&(month, region)| region == r && month < m).count() as u32;
    key(r).at_version(CatalogVersion(CatalogVersion::INITIAL.0 + rolled))
}

/// One simulated life. Times are on the VM's available CPU time
/// ([`StealClock`]).
struct Life {
    setup_s: f64,
    run_s: f64,
    /// The run's plain wall seconds.
    run_wall_s: f64,
    month_ms: Vec<f64>,
    roll_month_ms: Vec<f64>,
    quiet_month_ms: Vec<f64>,
    summary: ScheduleSummary,
    inconclusive: usize,
    mismatches: u64,
    snapshot: ObsSnapshot,
    registry: Arc<EngineRegistry>,
    provider: Arc<RefreshableCatalogProvider>,
    route: EngineRoute,
}

/// Set up a fresh fleet (provider, registry, every region's key trained
/// cold, workers, calendar) and simulate its life.
fn life(inputs: &Inputs, expected: &Expected, traced: bool, tracer: &mut Tracer) -> Life {
    let obs = if traced { ObsRegistry::enabled() } else { ObsRegistry::disabled() };
    let life_id = tracer.fresh_id();
    let t_life = tracer.now();
    let mut clock = StealClock::start();
    let inner = REGIONS.iter().fold(InMemoryCatalogProvider::new(), |p, &(name, multiplier)| {
        p.with_region(
            Region::new(name),
            CatalogVersion::INITIAL,
            &CatalogSpec::default(),
            multiplier,
        )
    });
    let provider = Arc::new(RefreshableCatalogProvider::new(Arc::new(inner)));
    let registry = Arc::new(
        EngineRegistry::new(Arc::clone(&provider) as Arc<dyn CatalogProvider>).with_obs(&obs),
    );
    let route = EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb))
        .trained(TrainingSet::new(inputs.training.clone()));
    for r in 0..REGIONS.len() {
        registry
            .get_or_train_backend(&key(r), &route.template, &route.training, &route.backend)
            .expect("every region resolves");
    }
    let config = FleetConfig { workers: WORKERS, queue_depth: WORKERS * 8, keep_results: false };
    let assessor = FleetAssessor::over_registry(Arc::clone(&registry), config)
        .with_route(route.clone())
        .with_obs(&obs);
    let mut sim = FleetScheduler::new(DriftMonitor::new(assessor), SimClock::starting(2022, 1))
        .with_provider(Arc::clone(&provider))
        .with_version_window(2);
    for c in &inputs.customers {
        sim.onboard_at(
            c.onboard,
            MonitoredCustomer::new(&c.name, DeploymentType::SqlDb, c.baseline.clone())
                .with_catalog_key(key_at(c.region, c.onboard)),
        );
        for m in telemetry_months(c) {
            let window = match &c.drifted {
                Some(drifted) if m >= c.onboard + DRIFT_AFTER => drifted.clone(),
                _ => c.baseline.clone(),
            };
            sim.telemetry_at(m, &c.name, window);
        }
    }
    for (m, r) in feeds() {
        sim.feed_at(m, region(r), PriceFeed::Multiplier(FEED_MULTIPLIER));
    }
    let setup_s = clock.lap_s();
    tracer.record("sched.setup", Some(life_id), 0, t_life, tracer.now());

    let mut month_ms = Vec::with_capacity(MONTHS);
    let (mut roll_month_ms, mut quiet_month_ms) = (Vec::new(), Vec::new());
    let mut inconclusive = 0;
    let (mut run_s, mut run_wall_s) = (0.0, 0.0);
    for m in 0..MONTHS {
        let t_span = tracer.now();
        clock.lap();
        let month = sim.step();
        let (share, wall_s) = clock.lap();
        let ms = share * wall_s * 1e3;
        run_s += share * wall_s;
        run_wall_s += wall_s;
        tracer.record("sched.month", Some(life_id), m as u64, t_span, tracer.now());
        month_ms.push(ms);
        if month.rolls.is_empty() {
            quiet_month_ms.push(ms);
        } else {
            roll_month_ms.push(ms);
        }
        inconclusive += month.pass.report.inconclusive;
    }
    tracer.record_as(life_id, "sched.life", None, 0, t_life, tracer.now());

    let summary = sim.summary().clone();
    let mismatches = [
        sim.monitor().roll_cursor() != provider.rolls(),
        summary.reprice_failures != 0,
        summary.customers_onboarded != inputs.customers.len(),
        summary.drift_checks != expected.probes,
        summary.drift_detected != expected.drifted,
        registry.stats().misses != expected.trainings,
    ]
    .into_iter()
    .filter(|&bad| bad)
    .count() as u64;
    let snapshot = sim.monitor().service().obs_snapshot();
    drop(sim.shutdown());
    Life {
        setup_s,
        run_s,
        run_wall_s,
        month_ms,
        roll_month_ms,
        quiet_month_ms,
        summary,
        inconclusive,
        mismatches,
        snapshot,
        registry,
        provider,
        route,
    }
}

/// Lives simulated until `seconds` have passed (at least `min_lives`).
fn lives(
    inputs: &Inputs,
    expected: &Expected,
    seconds: f64,
    min_lives: usize,
    traced: bool,
    tracer: &mut Tracer,
) -> Vec<Life> {
    let t = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_lives || t.elapsed().as_secs_f64() < seconds {
        out.push(life(inputs, expected, traced, tracer));
    }
    out
}

/// Customer-months probed per second of simulated run time, per life.
fn rates(lives: &[Life]) -> Vec<f64> {
    lives.iter().map(|l| l.summary.drift_checks as f64 / l.run_s).collect()
}

fn failures(lives: &[Life]) -> (u64, u64, u64) {
    let checks = lives.iter().map(|l| l.summary.drift_checks as u64).sum();
    let failed = lives
        .iter()
        .map(|l| (l.inconclusive + l.summary.reprice_failures) as u64 + l.mismatches)
        .sum();
    let mismatches = lives.iter().map(|l| l.mismatches).sum();
    (checks, failed, mismatches)
}

fn collect(lives: &[Life], pick: impl Fn(&Life) -> &Vec<f64>) -> Vec<f64> {
    lives.iter().flat_map(|l| pick(l).iter().copied()).collect()
}

pub fn run(args: &Args) -> Outcome {
    let t = Instant::now();
    let inputs = inputs(args.seed);
    let expected = expected(&inputs);
    let gen_s = t.elapsed().as_secs_f64();

    if !args.trace {
        let mut off = Tracer::new(false, Instant::now(), 0);
        let lives = lives(&inputs, &expected, args.seconds, MIN_LIVES, false, &mut off);
        let (checks, failed, mismatches) = failures(&lives);
        let mut setups: Vec<f64> = lives.iter().map(|l| l.setup_s).collect();
        return Outcome {
            correct: mismatches == 0,
            attempted: checks.max(1),
            failed,
            metrics: vec![
                Metric {
                    name: "latency_p50_ms",
                    value: median(&mut collect(&lives, |l| &l.month_ms)).unwrap_or(0.0),
                    unit: "ms",
                },
                Metric {
                    name: "throughput_per_s",
                    value: median(&mut rates(&lives)).unwrap_or(0.0),
                    unit: "1/s",
                },
                Metric {
                    name: "success_rate",
                    value: 1.0 - failed as f64 / checks.max(1) as f64,
                    unit: "ratio",
                },
                Metric { name: "peak_rss_mib", value: crate::vm_hwm_mib(), unit: "MiB" },
                Metric { name: "setup_s", value: median(&mut setups).unwrap_or(0.0), unit: "s" },
            ],
        };
    }

    let half = args.seconds / 2.0;
    let mut off = Tracer::new(false, Instant::now(), 0);
    let plain = lives(&inputs, &expected, half, 1, false, &mut off);
    let mut tracer = Tracer::new(true, Instant::now(), 0);
    let traced = lives(&inputs, &expected, half, 1, true, &mut tracer);
    let mut layers = Layers::default();
    layers.set("bench.gen_s", gen_s);
    let rate_plain = median(&mut rates(&plain)).unwrap_or(0.0);
    let rate_traced = median(&mut rates(&traced)).unwrap_or(0.0);
    layers.set("bench.trace_overhead_frac", rate_plain / rate_traced.max(1e-9) - 1.0);
    let mut months = collect(&traced, |l| &l.month_ms);
    months.sort_by(f64::total_cmp);
    if let Some((pct, at)) = tail_sorted(&months) {
        layers.set("bench.latency_p99_ms", at);
        layers.set("bench.latency_tail_pct", pct);
    }
    layers.set("bench.latency_samples", months.len() as f64);
    let (run_s, run_wall_s) =
        traced.iter().fold((0.0, 0.0), |(a, w), l| (a + l.run_s, w + l.run_wall_s));
    layers.set("bench.steal_frac", 1.0 - run_s / f64::max(run_wall_s, 1e-9));
    let last = traced.last().expect("at least one traced life");
    let run_ns = (last.run_wall_s * 1e9) as u64;
    layers::from_snapshot(&mut layers, &last.snapshot, WORKERS, run_ns);
    layers.set(
        "sched.roll_month_ms",
        median(&mut collect(&traced, |l| &l.roll_month_ms)).unwrap_or(0.0),
    );
    layers.set(
        "sched.quiet_month_ms",
        median(&mut collect(&traced, |l| &l.quiet_month_ms)).unwrap_or(0.0),
    );
    let pass = last.snapshot.histogram("drift.pass_latency");
    layers.set("drift.pass_mean_ms", pass.map_or(0.0, |h| h.mean_ns as f64 / 1e6));
    let probes = last.snapshot.histogram("fleet.stage.drift_probe").map_or(0, |h| h.count);
    layers.set("drift.probes", probes as f64);
    layers.set(
        "drift.reassessments",
        last.snapshot.counter("drift.reassessments").unwrap_or(0) as f64,
    );
    layers.set("drift.reprices", last.summary.customers_repriced as f64);
    layers.set(
        "drift.drifted_ratio",
        last.summary.drift_detected as f64 / last.summary.drift_checks.max(1) as f64,
    );
    layers.set("fleet.completed", (probes as usize + last.summary.customers_repriced) as f64);

    let items: Vec<Item> = inputs
        .customers
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let key = last
                .provider
                .latest(DeploymentType::SqlDb, &region(c.region))
                .expect("every region has a current version");
            let backend = last
                .registry
                .get_or_train_backend(
                    &key,
                    &last.route.template,
                    &last.route.training,
                    &last.route.backend,
                )
                .expect("the current version resolves");
            Item {
                backend,
                request: AssessmentRequest::from_history(
                    format!("cust-{i:04}"),
                    c.baseline.clone(),
                    Vec::new(),
                    None,
                ),
                fresh: c.drifted.clone(),
            }
        })
        .collect();
    let mut decomposition = Tracer::new(true, Instant::now(), 1 << 44);
    let replay_mismatches =
        layers::decompose(&mut layers, &mut decomposition, &items, expected.probes);
    let decomposed = decomposition.into_spans();
    layers::from_spans(&mut layers, &decomposed);
    let mut spans: Vec<Span> = tracer.into_spans();
    spans.extend(decomposed);
    if let Err(e) = crate::trace::write_jsonl(&crate::span_path("lifecycle", args.seed), &spans) {
        eprintln!("perfbench: writing spans failed: {e}");
    }

    let (plain_checks, plain_failed, plain_mismatches) = failures(&plain);
    let (traced_checks, traced_failed, traced_mismatches) = failures(&traced);
    let mismatches = plain_mismatches + traced_mismatches + replay_mismatches;
    Outcome {
        correct: mismatches == 0,
        attempted: (plain_checks + traced_checks).max(1),
        failed: plain_failed + traced_failed + replay_mismatches,
        metrics: layers.into_metrics(),
    }
}
