//! `dma_open`: the DMA user waiting on one assessment. An open loop sends
//! assessments at a fixed rate, whether or not earlier ones finished,
//! through a registry-backed service whose DB and MI routes are trained on
//! a separate migrated cohort. Latency counts from when each request was
//! due.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use doppler_catalog::{
    azure_paas_catalog, CatalogKey, CatalogSpec, DeploymentType, InMemoryCatalogProvider,
};
use doppler_core::{EngineRegistry, TrainingRecord, TrainingSet};
use doppler_dma::SkuRecommendationPipeline;
use doppler_fleet::{
    customer_request, EngineRoute, FleetAssessor, FleetConfig, FleetRequest, FleetResult,
    FleetService, ResultDigest,
};
use doppler_obs::{ObsRegistry, ObsSnapshot};
use doppler_workload::PopulationSpec;

use crate::check::{check, reference_digest};
use crate::host::StealClock;
use crate::layers::{self, Item, Layers};
use crate::stats::{median, tail_sorted, OpenLoop, SplitMix};
use crate::trace::{Span, Tracer};
use crate::{Args, Metric, Outcome, WORKERS};

/// Offered load: about half the rate at which two workers saturate.
const RATE_PER_S: f64 = 500.0;
const POOL_DB: usize = 384;
const POOL_MI: usize = 128;
const TRAIN_DB: usize = 256;
const TRAIN_MI: usize = 128;
/// Requests sent before measuring, so the first measured one meets a
/// steady service.
const WARMUP: usize = 250;
/// Deep enough that the generator never blocks on backpressure.
const QUEUE_DEPTH: usize = 1024;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Span ids of request spans: `REQUEST_IDS + index`, so the submitting
/// thread can parent its submit span on a request span the collecting
/// thread records later.
const REQUEST_IDS: u64 = 1 << 40;

struct Inputs {
    pool: Vec<FleetRequest>,
    training_db: Vec<TrainingRecord>,
    training_mi: Vec<TrainingRecord>,
}

fn training(spec: &PopulationSpec, catalog: &doppler_catalog::Catalog) -> Vec<TrainingRecord> {
    spec.stream_customers(catalog)
        .filter(|c| !c.over_provisioned)
        .map(|c| TrainingRecord {
            history: c.history,
            chosen_sku: c.chosen_sku,
            file_layout: c.file_layout,
        })
        .collect()
}

fn inputs(seed: u64) -> Inputs {
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let db = PopulationSpec::sql_db(POOL_DB, seed);
    let mi = PopulationSpec::sql_mi(POOL_MI, seed.wrapping_add(1));
    let mut pool: Vec<FleetRequest> = db
        .stream_customers(&catalog)
        .chain(mi.stream_customers(&catalog))
        .map(|c| customer_request(c, None))
        .collect();
    // Spread the MI requests evenly over the cycle.
    SplitMix::new(seed ^ 0x0D3A_0BE7).shuffle(&mut pool);
    let migrated = seed.wrapping_mul(31).wrapping_add(7);
    Inputs {
        pool,
        training_db: training(&PopulationSpec::sql_db(TRAIN_DB, migrated), &catalog),
        training_mi: training(
            &PopulationSpec::sql_mi(TRAIN_MI, migrated.wrapping_add(1)),
            &catalog,
        ),
    }
}

struct Served {
    service: FleetService,
    registry: Arc<EngineRegistry>,
    routes: Vec<EngineRoute>,
}

/// Provider, registry, trained routes (every route key trained cold), and
/// the worker pool. Returns the set-up time with the service.
fn setup(inputs: &Inputs, obs: &ObsRegistry) -> (Served, f64) {
    let mut clock = StealClock::start();
    let provider = Arc::new(InMemoryCatalogProvider::production());
    let registry = Arc::new(EngineRegistry::new(provider).with_obs(obs));
    let routes = vec![
        EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb))
            .trained(TrainingSet::new(inputs.training_db.clone())),
        EngineRoute::production(CatalogKey::production(DeploymentType::SqlMi))
            .trained(TrainingSet::new(inputs.training_mi.clone())),
    ];
    for route in &routes {
        registry
            .get_or_train_backend(
                &route.default_key,
                &route.template,
                &route.training,
                &route.backend,
            )
            .expect("production catalog resolves");
    }
    let config = FleetConfig { workers: WORKERS, queue_depth: QUEUE_DEPTH, keep_results: false };
    let assessor = routes
        .iter()
        .fold(FleetAssessor::over_registry(Arc::clone(&registry), config), |a, r| {
            a.with_route(r.clone())
        })
        .with_obs(obs);
    let service = assessor.into_service();
    (Served { service, registry, routes }, clock.lap_s())
}

/// What one open-loop phase measured.
struct Phase {
    setup_s: f64,
    /// Measured latencies from due time on the VM's available CPU time
    /// ([`StealClock`]), ascending, ms.
    latencies_ms: Vec<f64>,
    /// Median measured latency in plain wall time, ms.
    wall_p50_ms: f64,
    /// Mean share of CPU time stolen from the VM over the measured slices.
    steal_frac: f64,
    /// Generator lateness of measured sends, ascending, ms.
    late_ms: Vec<f64>,
    /// Measured requests per second of wall time, first due to last done.
    throughput: f64,
    sent: usize,
    failed: u64,
    mismatches: u64,
    submit_mean_us: f64,
    wall_ns: u64,
    snapshot: ObsSnapshot,
    spans: Vec<Span>,
    registry: Arc<EngineRegistry>,
    routes: Vec<EngineRoute>,
}

fn phase(inputs: &Inputs, seconds: f64, traced: bool, setups: usize) -> Phase {
    let obs = if traced { ObsRegistry::enabled() } else { ObsRegistry::disabled() };
    let (served, setup_s) = crate::median_setup(setups, || setup(inputs, &obs));
    let measured = ((RATE_PER_S * seconds).round() as usize).max(1);
    let total = WARMUP + measured;
    let schedule = OpenLoop::at_rate(RATE_PER_S);
    let epoch = Instant::now();
    let (tx, rx) = mpsc::channel::<FleetResult>();
    let pool = &inputs.pool;

    let (sender, collector) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut tracer = Tracer::new(traced, epoch, 0);
            let mut latencies_ms: Vec<(u64, f64)> = Vec::with_capacity(measured);
            let mut failed = 0u64;
            let mut last_done = 0u64;
            for _ in 0..total {
                let Ok(result) = rx.recv() else { break };
                let done = epoch.elapsed().as_nanos() as u64;
                let i = result.index as u64;
                failed += u64::from(result.outcome.is_err());
                if result.index >= WARMUP {
                    latencies_ms.push((i, schedule.latency_ns(i, done) as f64 / 1e6));
                    last_done = last_done.max(done);
                }
                tracer.record_as(REQUEST_IDS + i, "dma.request", None, i, schedule.due_ns(i), done);
            }
            (latencies_ms, failed, last_done, tracer.into_spans())
        });

        let mut tracer = Tracer::new(traced, epoch, 1 << 20);
        let mut late_ms = Vec::with_capacity(measured);
        let mut submit_ns = 0u64;
        let mut clock = StealClock::start();
        let mut shares = Vec::new();
        for i in 0..total as u64 {
            let due = Duration::from_nanos(schedule.due_ns(i));
            // Close every one-second slice of due times this request has
            // moved past: the CPU share the VM had over it.
            while (due.as_secs() as usize) > shares.len() {
                shares.push(clock.lap().0);
            }
            if let Some(wait) = due.checked_sub(epoch.elapsed()) {
                std::thread::sleep(wait);
            }
            let sent = epoch.elapsed().as_nanos() as u64;
            let request = pool[i as usize % pool.len()].clone();
            let index = served
                .service
                .submit_with_reply(request, tx.clone())
                .unwrap_or_else(|_| panic!("service closed mid-run"));
            let end = epoch.elapsed().as_nanos() as u64;
            assert_eq!(index as u64, i, "one submitter: indices follow send order");
            if index >= WARMUP {
                late_ms.push(schedule.lateness_ns(i, sent) as f64 / 1e6);
                submit_ns += end - sent;
            }
            tracer.record("fleet.submit", Some(REQUEST_IDS + i), i, sent, end);
        }
        drop(tx);
        let collected = collector.join().expect("collector thread");
        shares.push(clock.lap().0);
        ((late_ms, submit_ns, shares, tracer.into_spans()), collected)
    });
    let (mut late_ms, submit_ns, shares, mut spans) = sender;
    let (timed, failed, last_done, collector_spans) = collector;
    // Each latency on the CPU share of the slice it was due in.
    let share_of = |i: u64| shares[(schedule.due_ns(i) / 1_000_000_000) as usize];
    let mut latencies_ms: Vec<f64> = timed.iter().map(|&(i, ms)| ms * share_of(i)).collect();
    let mut wall_ms: Vec<f64> = timed.iter().map(|&(_, ms)| ms).collect();
    let steal_frac =
        1.0 - timed.iter().map(|&(i, _)| share_of(i)).sum::<f64>() / timed.len().max(1) as f64;
    spans.extend(collector_spans);
    let first_due = schedule.due_ns(WARMUP as u64);
    let wall_ns = epoch.elapsed().as_nanos() as u64;
    let snapshot = served.service.obs_snapshot();
    latencies_ms.sort_by(f64::total_cmp);
    late_ms.sort_by(f64::total_cmp);

    let Served { service, registry, routes } = served;
    let report = service.shutdown();
    let mismatches = check(&report, &reference_digests(&registry, &routes, pool), total);
    Phase {
        setup_s,
        throughput: measured as f64 / ((last_done.saturating_sub(first_due)) as f64 / 1e9),
        sent: total,
        latencies_ms,
        wall_p50_ms: median(&mut wall_ms).unwrap_or(0.0),
        steal_frac,
        late_ms,
        failed,
        mismatches,
        submit_mean_us: submit_ns as f64 / measured as f64 / 1e3,
        wall_ns,
        snapshot,
        spans,
        registry,
        routes,
    }
}

/// The reference: every pool entry assessed once on the calling thread
/// through the same trained engines.
fn reference_digests(
    registry: &EngineRegistry,
    routes: &[EngineRoute],
    pool: &[FleetRequest],
) -> Vec<ResultDigest> {
    pool.iter()
        .map(|request| {
            let route = routes
                .iter()
                .find(|r| r.default_key.deployment == request.deployment)
                .expect("a route per deployment");
            let pipeline = SkuRecommendationPipeline::from_registry_backend(
                registry,
                &route.default_key,
                &route.template,
                &route.training,
                &route.backend,
            )
            .expect("trained route resolves");
            reference_digest(&pipeline, request)
        })
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let t = Instant::now();
    let inputs = inputs(args.seed);
    let gen_s = t.elapsed().as_secs_f64();

    if !args.trace {
        let mut p = phase(&inputs, args.seconds, false, SETUPS);
        let failed = p.failed + p.mismatches;
        return Outcome {
            correct: p.mismatches == 0,
            attempted: p.latencies_ms.len().max(1) as u64,
            failed,
            metrics: vec![
                Metric {
                    name: "latency_p50_ms",
                    value: median(&mut p.latencies_ms).unwrap_or(0.0),
                    unit: "ms",
                },
                Metric { name: "throughput_per_s", value: p.throughput, unit: "1/s" },
                Metric {
                    name: "success_rate",
                    value: 1.0 - failed as f64 / p.sent as f64,
                    unit: "ratio",
                },
                Metric { name: "peak_rss_mib", value: crate::vm_hwm_mib(), unit: "MiB" },
                Metric { name: "setup_s", value: p.setup_s, unit: "s" },
            ],
        };
    }

    let half = args.seconds / 2.0;
    let mut plain = phase(&inputs, half, false, 1);
    let mut traced = phase(&inputs, half, true, 1);
    let mut layers = Layers::default();
    layers.set("bench.gen_s", gen_s);
    let p50_plain = median(&mut plain.latencies_ms).unwrap_or(0.0);
    let p50_traced = median(&mut traced.latencies_ms).unwrap_or(0.0);
    layers.set("bench.trace_overhead_frac", p50_traced / p50_plain.max(1e-9) - 1.0);
    if let Some((_, late)) = tail_sorted(&traced.late_ms) {
        layers.set("bench.late_p99_ms", late);
    }
    if let Some((pct, at)) = tail_sorted(&traced.latencies_ms) {
        layers.set("bench.latency_p99_ms", at);
        layers.set("bench.latency_tail_pct", pct);
    }
    layers.set("bench.latency_samples", traced.latencies_ms.len() as f64);
    layers.set("bench.wall_latency_p50_ms", traced.wall_p50_ms);
    layers.set("bench.steal_frac", traced.steal_frac);
    layers.set("fleet.submit_mean_us", traced.submit_mean_us);
    layers.set("fleet.completed", traced.sent as f64);
    layers::from_snapshot(&mut layers, &traced.snapshot, WORKERS, traced.wall_ns);

    let items: Vec<Item> = inputs
        .pool
        .iter()
        .map(|request| {
            let route = traced
                .routes
                .iter()
                .find(|r| r.default_key.deployment == request.deployment)
                .expect("a route per deployment");
            let backend = traced
                .registry
                .get_or_train_backend(
                    &route.default_key,
                    &route.template,
                    &route.training,
                    &route.backend,
                )
                .expect("trained route resolves");
            Item { backend, request: request.request.clone(), fresh: None }
        })
        .collect();
    let mut tracer = Tracer::new(true, Instant::now(), 1 << 44);
    let replay_mismatches = layers::decompose(&mut layers, &mut tracer, &items, traced.sent);
    let mut spans = traced.spans;
    let decomposed = tracer.into_spans();
    layers::from_spans(&mut layers, &decomposed);
    spans.extend(decomposed);
    if let Err(e) = crate::trace::write_jsonl(&crate::span_path("dma_open", args.seed), &spans) {
        eprintln!("perfbench: writing spans failed: {e}");
    }

    let mismatches = plain.mismatches + traced.mismatches + replay_mismatches;
    Outcome {
        correct: mismatches == 0,
        attempted: (plain.latencies_ms.len() + traced.latencies_ms.len()).max(1) as u64,
        failed: plain.failed + traced.failed + mismatches,
        metrics: layers.into_metrics(),
    }
}
