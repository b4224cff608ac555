//! `fleet_stream`: the operator's estate sweep. One closed, backpressured
//! stream of customers through a single shard with two workers; engine
//! work is tiny, so submission, queue hand-off, warm registry reads,
//! digesting and aggregation dominate. Inputs are the 144-sample
//! CPU + IO-latency windows of the 1M-customer stream row, with seeded
//! levels.

use std::sync::{mpsc, Arc};
use std::time::Instant;

use doppler_catalog::{
    CatalogKey, CatalogSpec, CatalogVersion, DeploymentType, InMemoryCatalogProvider, Region,
};
use doppler_core::EngineRegistry;
use doppler_dma::preprocess::PreprocessedInstance;
use doppler_dma::{AssessmentRequest, SkuRecommendationPipeline};
use doppler_fleet::{
    EngineRoute, FleetAssessor, FleetConfig, FleetRequest, FleetResult, FleetService, ResultDigest,
};
use doppler_obs::{ObsRegistry, ObsSnapshot};
use doppler_telemetry::{PerfDimension, PerfHistory, TimeSeries};

use crate::check::{check, reference_digest};
use crate::host::StealClock;
use crate::layers::{self, Item, Layers};
use crate::stats::{median, MicrosHistogram, SplitMix};
use crate::trace::{Span, Tracer};
use crate::{Args, Metric, Outcome, WORKERS};

const REGIONS: usize = 8;
const WINDOW_POOL: usize = 64;
const SAMPLES: usize = 144;
/// Per-shard queue depth of the stream row: eight tasks per worker.
const QUEUE_DEPTH: usize = WORKERS * 8;
/// Set-ups per untraced run; `setup_s` is their median. Each takes well
/// under a millisecond, so many are needed for a steady median.
const SETUPS: usize = 15;
const WARMUP_S: f64 = 0.5;
/// Throughput is the median of per-slice rates over slices this long, so
/// a burst of host noise moves only the slices it lands in.
const SLICE_S: f64 = 0.5;
/// Latencies past this land in the histogram's last bucket.
const MAX_LATENCY_US: usize = 1_000_000;
/// Submit instants are kept in a ring this long, indexed by submission
/// index; in flight never exceeds the queue depth plus the batches the
/// workers hold.
const RING: usize = 4096;
/// Requests per traced phase that get spans; the rest are only counted.
const TRACED_REQUESTS: u64 = 20_000;
const REQUEST_IDS: u64 = 1 << 40;

struct Inputs {
    regions: Vec<Region>,
    windows: Vec<PerfHistory>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = SplitMix::new(seed);
    let windows = (0..WINDOW_POOL)
        .map(|i| {
            let cpu = 0.3 + (i % 9) as f64 * 0.7 + (i / 9) as f64 * 0.05 + rng.unit() * 0.04;
            let latency = 5.5 + rng.unit();
            PerfHistory::new()
                .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![cpu; SAMPLES]))
                .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![latency; SAMPLES]))
        })
        .collect();
    Inputs { regions: (0..REGIONS).map(|i| Region::new(format!("region-{i}"))).collect(), windows }
}

fn key(region: &Region) -> CatalogKey {
    CatalogKey::new(DeploymentType::SqlDb, region.clone(), CatalogVersion::INITIAL)
}

/// Customer `i`: window `i % 64` in region `i % 8` (so each window always
/// lands in the same region), Arc-shared rather than copied.
fn request(i: usize, inputs: &Inputs) -> FleetRequest {
    let history = inputs.windows[i % WINDOW_POOL].clone();
    FleetRequest::new(
        DeploymentType::SqlDb,
        AssessmentRequest {
            instance_name: format!("cust-{i}"),
            input: PreprocessedInstance {
                instance: history.clone(),
                databases: vec![(format!("cust-{i}/db0"), history)],
                file_sizes_gib: vec![],
            },
            confidence: None,
        },
    )
    .with_month(["Oct-21", "Nov-21", "Dec-21"][i % 3])
    .with_catalog_key(key(&inputs.regions[i % REGIONS]))
}

fn route() -> EngineRoute {
    EngineRoute::production(CatalogKey::production(DeploymentType::SqlDb))
}

/// Provider over eight regions, registry with every regional key trained
/// cold, and one shard of two workers.
fn setup(inputs: &Inputs, obs: &ObsRegistry) -> ((FleetService, Arc<EngineRegistry>), f64) {
    let mut clock = StealClock::start();
    let provider = inputs.regions.iter().fold(InMemoryCatalogProvider::production(), |p, r| {
        p.with_region(r.clone(), CatalogVersion::INITIAL, &CatalogSpec::default(), 1.0)
    });
    let registry = Arc::new(EngineRegistry::new(Arc::new(provider)).with_obs(obs));
    let route = route();
    for region in &inputs.regions {
        registry
            .get_or_train_backend(&key(region), &route.template, &route.training, &route.backend)
            .expect("every region resolves");
    }
    let config = FleetConfig { workers: WORKERS, queue_depth: QUEUE_DEPTH, keep_results: false };
    let service = FleetAssessor::over_registry(Arc::clone(&registry), config)
        .with_route(route)
        .with_obs(obs)
        .into_service();
    ((service, registry), clock.lap_s())
}

/// Where results land: latency from each customer's submit instant.
struct Sink {
    /// Submit instants, indexed by submission index modulo [`RING`].
    submitted_at: Vec<u64>,
    /// First submission index of the measured window.
    first_measured: Option<usize>,
    latencies: MicrosHistogram,
    /// Measured results in the current throughput slice.
    slice_done: u64,
    failed: u64,
}

impl Default for Sink {
    fn default() -> Sink {
        Sink {
            submitted_at: vec![0; RING],
            first_measured: None,
            latencies: MicrosHistogram::new(MAX_LATENCY_US),
            slice_done: 0,
            failed: 0,
        }
    }
}

impl Sink {
    fn take(&mut self, result: FleetResult, now: u64, tracer: &mut Tracer) {
        self.failed += u64::from(result.outcome.is_err());
        let i = result.index;
        let Some(first) = self.first_measured.filter(|&first| i >= first) else { return };
        let at = self.submitted_at[i % RING];
        self.latencies.record_ns(now - at);
        self.slice_done += 1;
        if ((i - first) as u64) < TRACED_REQUESTS {
            tracer.record_as(REQUEST_IDS + i as u64, "fleet.request", None, i as u64, at, now);
        }
    }
}

struct Phase {
    setup_s: f64,
    /// Customers per second of the VM's available CPU time
    /// ([`StealClock`]), the median over slices of the measured window.
    throughput: f64,
    /// Share of the window's CPU time the VM had; wall latencies times
    /// this are on the same time base as the throughput.
    cpu_share: f64,
    /// Measured submit-to-result latencies.
    latencies: MicrosHistogram,
    measured: u64,
    sent: usize,
    failed: u64,
    mismatches: u64,
    submit_mean_us: f64,
    wall_ns: u64,
    snapshot: ObsSnapshot,
    spans: Vec<Span>,
    registry: Arc<EngineRegistry>,
}

fn phase(inputs: &Inputs, seconds: f64, traced: bool, setups: usize) -> Phase {
    let obs = if traced { ObsRegistry::enabled() } else { ObsRegistry::disabled() };
    let ((service, registry), setup_s) = crate::median_setup(setups, || setup(inputs, &obs));

    let epoch = Instant::now();
    let mut tracer = Tracer::new(traced, epoch, 0);
    let (tx, rx) = mpsc::channel::<FleetResult>();
    let mut sink = Sink::default();
    let (mut submit_ns, mut measured) = (0u64, 0u64);
    let warmup_end = (WARMUP_S * 1e9) as u64;
    let end = warmup_end + (seconds * 1e9) as u64;
    let slice_ns = (SLICE_S * 1e9) as u64;
    let mut sent = 0usize;
    let mut slice_start = warmup_end;
    let mut slice_rates = Vec::new();
    let mut clock = StealClock::start();
    let (mut available_s, mut window_s) = (0.0, 0.0);
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        if now >= end {
            break;
        }
        if now >= warmup_end && sink.first_measured.is_none() {
            sink.first_measured = Some(sent);
            slice_start = now;
            clock = StealClock::start();
        }
        let request = request(sent, inputs);
        let t0 = epoch.elapsed().as_nanos() as u64;
        let index = service
            .submit_with_reply(request, tx.clone())
            .unwrap_or_else(|_| panic!("service closed mid-run"));
        let t1 = epoch.elapsed().as_nanos() as u64;
        debug_assert_eq!(index, sent);
        sink.submitted_at[sent % RING] = t0;
        if let Some(first) = sink.first_measured {
            submit_ns += t1 - t0;
            measured += 1;
            if ((sent - first) as u64) < TRACED_REQUESTS {
                let i = sent as u64;
                tracer.record("fleet.submit", Some(REQUEST_IDS + i), i, t0, t1);
            }
        }
        sent += 1;
        // Drain as we go, in completion order: what is in flight stays
        // bounded by the queue depth plus what the workers hold.
        while let Ok(result) = rx.try_recv() {
            sink.take(result, epoch.elapsed().as_nanos() as u64, &mut tracer);
        }
        let now = epoch.elapsed().as_nanos() as u64;
        if sink.first_measured.is_some() && now >= slice_start + slice_ns {
            let (share, wall_s) = clock.lap();
            slice_rates.push(sink.slice_done as f64 / (share * wall_s));
            available_s += share * wall_s;
            window_s += wall_s;
            slice_start = now;
            sink.slice_done = 0;
        }
    }
    drop(tx);
    for result in rx {
        sink.take(result, epoch.elapsed().as_nanos() as u64, &mut tracer);
    }
    let Sink { latencies, failed, .. } = sink;
    let wall_ns = epoch.elapsed().as_nanos() as u64;
    let snapshot = service.obs_snapshot();
    let report = service.shutdown();
    Phase {
        setup_s,
        throughput: median(&mut slice_rates).unwrap_or(0.0),
        cpu_share: available_s / f64::max(window_s, 1e-9),
        latencies,
        measured,
        sent,
        failed,
        mismatches: check(&report, &reference_digests(&registry, inputs), sent),
        submit_mean_us: submit_ns as f64 / measured.max(1) as f64 / 1e3,
        wall_ns,
        snapshot,
        spans: tracer.into_spans(),
        registry,
    }
}

fn backend(
    registry: &EngineRegistry,
    region: &Region,
) -> Arc<dyn doppler_core::RecommendationBackend> {
    let route = route();
    registry
        .get_or_train_backend(&key(region), &route.template, &route.training, &route.backend)
        .expect("every region resolves")
}

/// Each of the 64 distinct customers assessed once on the calling thread.
fn reference_digests(registry: &EngineRegistry, inputs: &Inputs) -> Vec<ResultDigest> {
    (0..WINDOW_POOL)
        .map(|i| {
            let pipeline = SkuRecommendationPipeline::from_shared(backend(
                registry,
                &inputs.regions[i % REGIONS],
            ));
            reference_digest(&pipeline, &request(i, inputs))
        })
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let t = Instant::now();
    let inputs = inputs(args.seed);
    let gen_s = t.elapsed().as_secs_f64();

    if !args.trace {
        let p = phase(&inputs, args.seconds, false, SETUPS);
        let failed = p.failed + p.mismatches;
        return Outcome {
            correct: p.mismatches == 0,
            attempted: p.measured.max(1),
            failed,
            metrics: vec![
                Metric {
                    name: "latency_p50_ms",
                    value: p.latencies.percentile_ms(50.0).unwrap_or(0.0) * p.cpu_share,
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
    let plain = phase(&inputs, half, false, 1);
    let traced = phase(&inputs, half, true, 1);
    let mut layers = Layers::default();
    layers.set("bench.gen_s", gen_s);
    layers.set("bench.trace_overhead_frac", plain.throughput / traced.throughput.max(1e-9) - 1.0);
    if let Some((pct, at)) = traced.latencies.tail_ms() {
        layers.set("bench.latency_p99_ms", at);
        layers.set("bench.latency_tail_pct", pct);
    }
    layers.set("bench.latency_samples", traced.latencies.count() as f64);
    layers.set("bench.wall_latency_p50_ms", traced.latencies.percentile_ms(50.0).unwrap_or(0.0));
    layers.set("bench.steal_frac", 1.0 - traced.cpu_share);
    layers.set("fleet.submit_mean_us", traced.submit_mean_us);
    layers.set("fleet.completed", traced.sent as f64);
    layers::from_snapshot(&mut layers, &traced.snapshot, WORKERS, traced.wall_ns);

    let items: Vec<Item> = (0..WINDOW_POOL)
        .map(|i| Item {
            backend: backend(&traced.registry, &inputs.regions[i % REGIONS]),
            request: request(i, &inputs).request,
            fresh: None,
        })
        .collect();
    let mut tracer = Tracer::new(true, Instant::now(), 1 << 44);
    let replay_mismatches = layers::decompose(&mut layers, &mut tracer, &items, traced.sent);
    let decomposed = tracer.into_spans();
    layers::from_spans(&mut layers, &decomposed);
    let mut spans = traced.spans;
    spans.extend(decomposed);
    if let Err(e) = crate::trace::write_jsonl(&crate::span_path("fleet_stream", args.seed), &spans)
    {
        eprintln!("perfbench: writing spans failed: {e}");
    }

    let mismatches = plain.mismatches + traced.mismatches + replay_mismatches;
    Outcome {
        correct: mismatches == 0,
        attempted: (plain.measured + traced.measured).max(1),
        failed: plain.failed + traced.failed + mismatches,
        metrics: layers.into_metrics(),
    }
}
