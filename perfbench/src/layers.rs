//! Per-layer metrics: the fixed list every traced run reports, the fleet
//! and registry numbers read from the service's observability snapshot,
//! and a decomposition of one assessment into its engine stages through
//! direct public calls.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use doppler_catalog::{DeploymentType, FileLayout, ServiceTier, SkuId};
use doppler_core::explain::explain;
use doppler_core::{
    detect_drift, mi_curve, DopplerEngine, FittedGrouping, PricePerformanceCurve,
    RecommendationBackend, ThrottleBreakdown,
};
use doppler_dma::{AssessmentRequest, ResourceUseReport, SkuRecommendationPipeline};
use doppler_fleet::{FleetAggregator, FleetResult, ResultDigest};
use doppler_obs::ObsSnapshot;
use doppler_telemetry::PerfHistory;

use crate::trace::{mean_self_us, self_times, Span, Tracer};
use crate::Metric;

/// Every per-layer metric, in output order, with its unit. A traced run
/// reports all of them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("bench.gen_s", "s"),
    ("bench.steal_frac", "ratio"),
    ("bench.wall_latency_p50_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.late_p99_ms", "ms"),
    ("bench.latency_p99_ms", "ms"),
    ("bench.latency_tail_pct", "%"),
    ("bench.latency_samples", "count"),
    ("fleet.queue_wait_mean_us", "us"),
    ("fleet.queue_wait_p99_us", "us"),
    ("fleet.resolve_mean_us", "us"),
    ("fleet.aggregate_mean_us", "us"),
    ("fleet.assess_mean_us", "us"),
    ("fleet.worker_busy_frac", "ratio"),
    ("fleet.submit_mean_us", "us"),
    ("fleet.digest_us", "us"),
    ("fleet.accept_us", "us"),
    ("fleet.finish_ms", "ms"),
    ("registry.hits", "count"),
    ("registry.misses", "count"),
    ("registry.hit_ratio", "ratio"),
    ("registry.train_ms", "ms"),
    ("core.profile_us", "us"),
    ("core.curve_us", "us"),
    ("core.select_us", "us"),
    ("core.explain_us", "us"),
    ("core.request_self_us", "us"),
    ("core.recommend_us", "us"),
    ("core.curve_calls", "count"),
    ("core.samples_per_request", "count"),
    ("dma.assess_us", "us"),
    ("dma.report_us", "us"),
    ("telemetry.concat_us", "us"),
    ("core.drift_detect_us", "us"),
    ("sched.roll_month_ms", "ms"),
    ("sched.quiet_month_ms", "ms"),
    ("drift.pass_mean_ms", "ms"),
    ("drift.probes", "count"),
    ("drift.reassessments", "count"),
    ("drift.reprices", "count"),
    ("drift.drifted_ratio", "ratio"),
    ("fleet.completed", "count"),
];

/// Per-layer values gathered over a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unlisted layer metric {name}");
        self.values.insert(name, value);
    }

    /// Every [`PER_LAYER`] metric, in list order.
    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.values.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

fn hist_mean_us(snapshot: &ObsSnapshot, name: &str) -> (u64, f64) {
    snapshot.histogram(name).map_or((0, 0.0), |h| (h.count, h.mean_ns as f64 / 1e3))
}

/// Fleet-service and registry numbers from a traced service's snapshot.
/// `wall_ns` is the span the workers were available for.
pub fn from_snapshot(layers: &mut Layers, snapshot: &ObsSnapshot, workers: usize, wall_ns: u64) {
    let queue = snapshot.histogram("fleet.stage.queue_wait");
    layers.set("fleet.queue_wait_mean_us", queue.map_or(0.0, |h| h.mean_ns as f64 / 1e3));
    layers.set("fleet.queue_wait_p99_us", queue.map_or(0.0, |h| h.p99_ns as f64 / 1e3));
    let mut busy_ns = 0.0;
    for (stage, metric) in [
        ("fleet.stage.resolve", "fleet.resolve_mean_us"),
        ("fleet.stage.assess", "fleet.assess_mean_us"),
        ("fleet.stage.aggregate", "fleet.aggregate_mean_us"),
        ("fleet.stage.drift_probe", ""),
    ] {
        let (count, mean_us) = hist_mean_us(snapshot, stage);
        busy_ns += count as f64 * mean_us * 1e3;
        if !metric.is_empty() {
            layers.set(metric, mean_us);
        }
    }
    layers.set("fleet.worker_busy_frac", busy_ns / (workers as f64 * wall_ns.max(1) as f64));
    let hits = snapshot.counter("registry.hits").unwrap_or(0) as f64;
    let misses = snapshot.counter("registry.misses").unwrap_or(0) as f64;
    let coalesced = snapshot.counter("registry.coalesced").unwrap_or(0) as f64;
    layers.set("registry.hits", hits);
    layers.set("registry.misses", misses);
    layers.set("registry.hit_ratio", hits / (hits + misses + coalesced).max(1.0));
    layers.set("registry.train_ms", hist_mean_us(snapshot, "registry.train_latency").1 / 1e3);
}

/// One assessment input for the decomposition: the engine that serves it,
/// the request, and a later window of the same customer (the request's own
/// window again when there is none) for the stitch and drift layers.
pub struct Item {
    pub backend: Arc<dyn RecommendationBackend>,
    pub request: AssessmentRequest,
    pub fresh: Option<PerfHistory>,
}

/// The root span of one replayed recommendation.
const REQUEST: &str = "core.request";

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Decompose each item's assessment into the engine's stages — profile,
/// curve, select, explain — replaying `DopplerEngine::recommend` through
/// public calls, then span the whole recommend, the DMA pipeline and
/// report, the fleet digest, and the stitch and drift kernels over the
/// same inputs ([`from_spans`] turns the spans into metrics). The fleet
/// fold and finish are timed here: `accepts` results are folded (the pool
/// repeated) so they match the workload's volume. Returns how many items
/// the replay disagreed with the engine on.
pub fn decompose(layers: &mut Layers, tracer: &mut Tracer, items: &[Item], accepts: usize) -> u64 {
    let mut mismatches = 0;
    let mut samples = 0usize;
    let mut results = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let request = i as u64;
        let engine = item
            .backend
            .as_any()
            .downcast_ref::<DopplerEngine>()
            .expect("benchmark routes serve the heuristic engine");
        let history = &item.request.input.instance;
        samples += history.len();
        let config = engine.config();
        let layout = (config.deployment == DeploymentType::SqlMi
            && !item.request.input.file_sizes_gib.is_empty())
        .then(|| FileLayout::from_sizes(&item.request.input.file_sizes_gib));
        let dims = engine.dims();

        let root = tracer.fresh_id();
        let t_root = tracer.now();
        let t = tracer.now();
        let weights = config.negotiability.weights(history, dims);
        let bits = config.negotiability.bits(history, dims);
        tracer.record("core.profile", Some(root), request, t, tracer.now());

        let t = tracer.now();
        let (curve, mi) = match (config.deployment, layout.as_ref()) {
            (DeploymentType::SqlMi, Some(layout)) => {
                match mi_curve(history, layout, engine.catalog(), &config.rates) {
                    Some(a) => (a.curve.clone(), Some(a)),
                    None => (PricePerformanceCurve::from_scored(vec![]), None),
                }
            }
            _ => {
                let skus = engine.catalog().for_deployment(config.deployment);
                (PricePerformanceCurve::generate(history, &skus), None)
            }
        };
        let shape = curve.classify();
        tracer.record("core.curve", Some(root), request, t, tracer.now());

        let t = tracer.now();
        let group = FittedGrouping::Enumeration { n_dims: dims.len() }.assign(&weights, &bits);
        let preferred_p = engine.group_model().preferred_p(group);
        let point = engine.group_model().select(group, &curve).cloned();
        tracer.record("core.select", Some(root), request, t, tracer.now());

        let t = tracer.now();
        let breakdown = point.as_ref().and_then(|p| {
            let sku = engine.catalog().get(&SkuId(p.sku_id.clone()))?;
            let mut caps = sku.caps;
            if let Some(a) = &mi {
                if sku.tier == ServiceTier::GeneralPurpose {
                    caps.iops = a.gp_iops_limit;
                    caps.throughput_mbps = a.storage.total_throughput_mibps();
                }
            }
            Some(ThrottleBreakdown::compute(history, &caps))
        });
        let explanation = explain(
            point.as_ref().map(|p| p.sku_id.as_str()),
            &curve,
            shape,
            dims,
            &bits,
            group,
            preferred_p,
            breakdown.as_ref(),
        );
        tracer.record("core.explain", Some(root), request, t, tracer.now());
        tracer.record_as(root, REQUEST, None, request, t_root, tracer.now());

        let t = tracer.now();
        let recommendation = engine.recommend(history, layout.as_ref());
        tracer.record("core.recommend", None, request, t, tracer.now());
        if recommendation.sku_id != point.map(|p| p.sku_id)
            || recommendation.group != group
            || recommendation.explanation != explanation
        {
            mismatches += 1;
        }

        let pipeline = SkuRecommendationPipeline::from_shared(Arc::clone(&item.backend));
        let t = tracer.now();
        let assessed = pipeline.assess(&item.request);
        tracer.record("dma.assess", None, request, t, tracer.now());
        let t = tracer.now();
        let report = ResourceUseReport::build(history, &assessed.recommendation);
        tracer.record("dma.report", None, request, t, tracer.now());
        std::hint::black_box(report);

        let fresh = item.fresh.as_ref().unwrap_or(history);
        let t = tracer.now();
        let stitched = doppler_telemetry::concat(history, fresh);
        tracer.record("telemetry.concat", None, request, t, tracer.now());
        let skus = engine.catalog().for_deployment(config.deployment);
        let t = tracer.now();
        let drift = detect_drift(&stitched, history.len(), &skus, 0.0);
        tracer.record("core.drift_detect", None, request, t, tracer.now());
        std::hint::black_box(drift);

        let result = FleetResult {
            index: i,
            instance_name: Arc::from(item.request.instance_name.as_str()),
            deployment: config.deployment,
            month: None,
            outcome: Ok(assessed),
        };
        let t = tracer.now();
        std::hint::black_box(ResultDigest::of(&result));
        tracer.record("fleet.digest", None, request, t, tracer.now());
        results.push(result);
    }

    let mut aggregator = FleetAggregator::new();
    let t = Instant::now();
    for result in results.iter().cycle().take(accepts.max(results.len())) {
        aggregator.accept(result);
    }
    let accept_ns = elapsed_ns(t) as f64 / accepts.max(results.len()).max(1) as f64;
    let t = Instant::now();
    std::hint::black_box(aggregator.finish());
    layers.set("fleet.finish_ms", elapsed_ns(t) as f64 / 1e6);
    layers.set("fleet.accept_us", accept_ns / 1e3);

    layers.set("core.curve_calls", items.len() as f64);
    layers.set("core.samples_per_request", samples as f64 / items.len().max(1) as f64);
    mismatches
}

/// Per-call self times from the decomposition's spans.
pub fn from_spans(layers: &mut Layers, spans: &[Span]) {
    let times = self_times(spans);
    for (name, metric) in [
        ("core.profile", "core.profile_us"),
        ("core.curve", "core.curve_us"),
        ("core.select", "core.select_us"),
        ("core.explain", "core.explain_us"),
        (REQUEST, "core.request_self_us"),
        ("core.recommend", "core.recommend_us"),
        ("dma.assess", "dma.assess_us"),
        ("dma.report", "dma.report_us"),
        ("telemetry.concat", "telemetry.concat_us"),
        ("core.drift_detect", "core.drift_detect_us"),
        ("fleet.digest", "fleet.digest_us"),
    ] {
        layers.set(metric, mean_self_us(&times, name));
    }
}
