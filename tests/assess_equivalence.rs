//! `SkuRecommendationPipeline::assess` against a frozen copy of the paths
//! the one-pass Eq. 1 kernel and the sort-once report replaced.
//!
//! The reference below scores every SKU with its own
//! `throttling_probability` scan (the DB curve, the MI layout flow, and
//! training), profiles with separate weight and bit passes that each
//! measure a dimension's spike dwell in four passes, and builds the
//! Resource Use Report with two sorts per series: a `total_cmp` sort for
//! the summary and a stable `partial_cmp` sort for the ECDF grid. Over a
//! seeded 14-day SQL DB + SQL MI cohort, with extra customers whose series
//! carry ties, mixed ±0.0 and all-zero dimensions, the pipeline must return
//! the same `Recommendation` (down to float bit patterns) and a
//! byte-identical rendered `ResourceUseReport` JSON
//! (`to_json().render_pretty()`: comparing rendered text, not `Json`
//! values, keeps `-0.0` distinct from `0.0`).

use doppler::catalog::{
    azure_paas_catalog, BillingRates, Catalog, CatalogSpec, DeploymentType, FileLayout,
    ServiceTier, SkuId,
};
use doppler::dma::json::JsonCodec;
use doppler::dma::report::DimensionReport;
use doppler::dma::{AssessmentRequest, ResourceUseReport, SkuRecommendationPipeline};
use doppler::engine::engine::{profiled_dimensions, MiSummary};
use doppler::engine::explain::explain;
use doppler::engine::mi::IOPS_SATISFACTION_FRACTION;
use doppler::engine::{
    throttling_probability, DopplerEngine, EngineConfig, FittedGrouping, GroupModel, MiAssessment,
    NegotiabilityStrategy, PricePerformanceCurve, Recommendation, ThrottleBreakdown,
    TrainingRecord,
};
use doppler::stats::descriptive::max;
use doppler::stats::{mean, quantile_sorted, stddev, Summary};
use doppler::telemetry::{PerfDimension, PerfHistory, TimeSeries};
use doppler::workload::{CloudCustomer, PopulationSpec};

const SEED: u64 = 42;
const COHORT_DB: usize = 24;
const COHORT_MI: usize = 12;
const TRAIN_DB: usize = 48;
const TRAIN_MI: usize = 24;

/// The reference engine: the fitted grouping and group model, trained
/// through the per-SKU curve.
struct Reference {
    catalog: Catalog,
    config: EngineConfig,
    grouping: FittedGrouping,
    model: GroupModel,
}

impl Reference {
    fn train(catalog: Catalog, config: EngineConfig, records: &[TrainingRecord]) -> Reference {
        let dims = profiled_dimensions(config.deployment);
        let weights: Vec<Vec<f64>> = records
            .iter()
            .map(|r| reference_weights(config.negotiability, &r.history, dims))
            .collect();
        let bits: Vec<Vec<bool>> = records
            .iter()
            .map(|r| reference_bits(config.negotiability, &r.history, dims))
            .collect();
        let (grouping, labels) = config.grouping.fit(&weights, &bits);
        let mut reference = Reference {
            catalog,
            config,
            grouping,
            model: GroupModel::learn(0, std::iter::empty()),
        };
        let curves: Vec<PricePerformanceCurve> = records
            .iter()
            .map(|r| reference.curve_for(&r.history, r.file_layout.as_ref()).0)
            .collect();
        reference.model = GroupModel::learn(
            reference.grouping.group_count(),
            labels
                .iter()
                .zip(&curves)
                .zip(records)
                .map(|((&g, c), r)| (g, c, r.chosen_sku.0.as_str())),
        );
        reference
    }

    fn curve_for(
        &self,
        history: &PerfHistory,
        layout: Option<&FileLayout>,
    ) -> (PricePerformanceCurve, Option<MiAssessment>) {
        match (self.config.deployment, layout) {
            (DeploymentType::SqlMi, Some(layout)) => {
                match reference_mi_curve(history, layout, &self.catalog, &self.config.rates) {
                    Some(a) => (a.curve.clone(), Some(a)),
                    None => (PricePerformanceCurve::from_scored(vec![]), None),
                }
            }
            _ => {
                let scored = self
                    .catalog
                    .for_deployment(self.config.deployment)
                    .into_iter()
                    .map(|sku| {
                        let p = throttling_probability(history, &sku.caps);
                        (sku.id.to_string(), sku.monthly_cost(), 1.0 - p)
                    })
                    .collect();
                (reference_from_scored(scored), None)
            }
        }
    }

    fn recommend(&self, history: &PerfHistory, layout: Option<&FileLayout>) -> Recommendation {
        let dims = profiled_dimensions(self.config.deployment);
        let weights = reference_weights(self.config.negotiability, history, dims);
        let bits = reference_bits(self.config.negotiability, history, dims);
        let group = self.grouping.assign(&weights, &bits);
        let preferred_p = self.model.preferred_p(group);

        let (curve, mi) = self.curve_for(history, layout);
        let shape = curve.classify();
        let point = self.model.select(group, &curve).cloned();
        let breakdown = point.as_ref().and_then(|p| {
            let sku = self.catalog.get(&SkuId(p.sku_id.clone()))?;
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
        Recommendation {
            sku_id: point.as_ref().map(|p| p.sku_id.clone()),
            monthly_cost: point.as_ref().map(|p| p.monthly_cost),
            score: point.as_ref().map(|p| p.score),
            curve,
            shape,
            group,
            preferred_p,
            bits,
            confidence: None,
            explanation,
            mi: mi.map(|a| MiSummary {
                restricted_to_bc: a.restricted_to_bc,
                gp_iops_limit: a.gp_iops_limit,
                storage_tiers: a.storage.tiers,
            }),
        }
    }
}

/// The production thresholding weights as they were: `1 - dwell` per
/// dimension, 0 for a missing one.
fn reference_weights(
    strategy: NegotiabilityStrategy,
    history: &PerfHistory,
    dims: &[PerfDimension],
) -> Vec<f64> {
    assert!(matches!(strategy, NegotiabilityStrategy::Thresholding { .. }));
    dims.iter()
        .map(|&dim| history.values(dim).map(|v| 1.0 - reference_dwell(v)).unwrap_or(0.0))
        .collect()
}

/// The production thresholding bits as they were, from a second dwell
/// measurement: `dwell < rho`, false for a missing dimension.
fn reference_bits(
    strategy: NegotiabilityStrategy,
    history: &PerfHistory,
    dims: &[PerfDimension],
) -> Vec<bool> {
    let NegotiabilityStrategy::Thresholding { rho } = strategy else {
        panic!("the reference covers the production strategy only")
    };
    dims.iter().map(|&dim| history.values(dim).is_some_and(|v| reference_dwell(v) < rho)).collect()
}

/// The spike dwell fraction as four passes measured it: the peak, the
/// mean and the variance (inside `stddev`), then the dwell count; 1 for an
/// empty series.
fn reference_dwell(xs: &[f64]) -> f64 {
    let Some(peak) = max(xs) else { return 1.0 };
    let lo = peak - stddev(xs);
    xs.iter().filter(|&&x| x >= lo).count() as f64 / xs.len() as f64
}

/// The curve builder's cost sort as it was: `partial_cmp`, SKU id on ties.
fn reference_from_scored(mut scored: Vec<(String, f64, f64)>) -> PricePerformanceCurve {
    scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs").then_with(|| a.0.cmp(&b.0)));
    PricePerformanceCurve::from_scored(scored)
}

/// The MI two-step flow with one `throttling_probability` scan per SKU.
fn reference_mi_curve(
    history: &PerfHistory,
    layout: &FileLayout,
    catalog: &Catalog,
    rates: &BillingRates,
) -> Option<MiAssessment> {
    let iops_demand = history.values(PerfDimension::Iops).and_then(max);
    let iops_demand = iops_demand.unwrap_or(0.0);
    let (storage, satisfied) = layout.assign_tiers_for_demand(
        iops_demand,
        iops_demand / 128.0,
        IOPS_SATISFACTION_FRACTION,
    )?;
    let restricted_to_bc = !satisfied;
    let gp_iops_limit = storage.total_iops();
    let mut scored = Vec::new();
    for sku in catalog.for_deployment(DeploymentType::SqlMi) {
        if restricted_to_bc && sku.tier == ServiceTier::GeneralPurpose {
            continue;
        }
        if sku.caps.max_data_gb < layout.total_gib() {
            continue;
        }
        let mut caps = sku.caps;
        let monthly = match sku.tier {
            ServiceTier::GeneralPurpose => {
                caps.iops = gp_iops_limit;
                caps.throughput_mbps = storage.total_throughput_mibps();
                rates.monthly_with_storage(sku, &storage)
            }
            ServiceTier::BusinessCritical => sku.monthly_cost(),
        };
        let p = throttling_probability(history, &caps);
        scored.push((sku.id.to_string(), monthly, 1.0 - p));
    }
    Some(MiAssessment {
        storage,
        restricted_to_bc,
        curve: reference_from_scored(scored),
        gp_iops_limit,
    })
}

/// The summary as it was built on its own sorted copy.
fn reference_summary(xs: &[f64]) -> Option<Summary> {
    if xs.is_empty() || !xs.iter().all(|x| x.is_finite()) {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        count: xs.len(),
        mean: mean(xs),
        stddev: stddev(xs),
        min: sorted[0],
        p25: quantile_sorted(&sorted, 0.25),
        median: quantile_sorted(&sorted, 0.50),
        p75: quantile_sorted(&sorted, 0.75),
        p95: quantile_sorted(&sorted, 0.95),
        max: sorted[sorted.len() - 1],
    })
}

/// The 16-point ECDF grid as it was built on a second, stable
/// `partial_cmp`-sorted copy.
fn reference_ecdf_grid(xs: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let (lo, hi) = (sorted[0], sorted[sorted.len() - 1]);
    let span = hi - lo;
    (0..16)
        .map(|i| {
            let x = if span == 0.0 { lo } else { lo + span * i as f64 / 15.0 };
            (x, sorted.partition_point(|&v| v <= x) as f64 / sorted.len() as f64)
        })
        .collect()
}

fn reference_report(history: &PerfHistory, rec: &Recommendation) -> ResourceUseReport {
    let mut dimension_summaries = Vec::new();
    for (dim, series) in history.iter() {
        let Some(summary) = reference_summary(series.values()) else { continue };
        dimension_summaries.push(DimensionReport {
            dimension: dim,
            unit: dim.unit().to_string(),
            summary,
            ecdf: reference_ecdf_grid(series.values()),
        });
    }
    ResourceUseReport {
        dimension_summaries,
        curve_rows: rec
            .curve
            .points()
            .iter()
            .map(|p| (p.sku_id.clone(), p.monthly_cost, p.score))
            .collect(),
        recommended_sku: rec.sku_id.clone(),
        explanation: rec.explanation.render(),
        confidence: rec.confidence,
    }
}

fn training(spec: &PopulationSpec, catalog: &Catalog) -> Vec<TrainingRecord> {
    spec.stream_customers(catalog)
        .filter(|c| !c.over_provisioned)
        .map(|c| TrainingRecord {
            history: c.history,
            chosen_sku: c.chosen_sku,
            file_layout: c.file_layout,
        })
        .collect()
}

/// Rewrite a customer's series so the report sees ties and signed zeros:
/// log rate all zeros of mixed sign (a constant series), storage
/// quantized to whole GB with -0.0 for the idle samples, and CPU rounded
/// to half-vCore steps (heavy ties).
fn with_ties_and_signed_zeros(mut history: PerfHistory, seed: usize) -> PerfHistory {
    let n = history.len();
    let zeros = (0..n).map(|t| if (t + seed).is_multiple_of(3) { -0.0 } else { 0.0 }).collect();
    history.insert(PerfDimension::LogRate, TimeSeries::ten_minute(zeros));
    if let Some(storage) = history.values(PerfDimension::Storage) {
        let quantized = storage
            .iter()
            .enumerate()
            .map(|(t, &v)| if (t + seed).is_multiple_of(5) { -0.0 } else { v.round() })
            .collect();
        history.insert(PerfDimension::Storage, TimeSeries::ten_minute(quantized));
    }
    if let Some(cpu) = history.values(PerfDimension::Cpu) {
        let stepped = cpu.iter().map(|&v| (v * 2.0).round() / 2.0).collect();
        history.insert(PerfDimension::Cpu, TimeSeries::ten_minute(stepped));
    }
    history
}

fn requests(customers: Vec<CloudCustomer>) -> Vec<AssessmentRequest> {
    let mut out = Vec::new();
    for (i, c) in customers.into_iter().enumerate() {
        let sizes: Vec<f64> = c
            .file_layout
            .as_ref()
            .map(|l| l.files.iter().map(|f| f.size_gib).collect())
            .unwrap_or_default();
        if i.is_multiple_of(4) {
            let tied = with_ties_and_signed_zeros(c.history.clone(), i);
            out.push(AssessmentRequest::from_history(
                format!("tied-{}", c.id),
                tied,
                sizes.clone(),
                None,
            ));
        }
        out.push(AssessmentRequest::from_history(format!("c-{}", c.id), c.history, sizes, None));
    }
    out
}

fn assert_pipeline_matches_reference(deployment: DeploymentType, cohort: usize, train: usize) {
    let catalog = azure_paas_catalog(&CatalogSpec::default());
    let (population, migrated) = match deployment {
        DeploymentType::SqlDb => (
            PopulationSpec::sql_db(cohort, SEED),
            PopulationSpec::sql_db(train, SEED.wrapping_mul(31).wrapping_add(7)),
        ),
        DeploymentType::SqlMi => (
            PopulationSpec::sql_mi(cohort, SEED + 1),
            PopulationSpec::sql_mi(train, SEED.wrapping_mul(31).wrapping_add(8)),
        ),
    };
    let records = training(&migrated, &catalog);
    let config = EngineConfig::production(deployment);
    let engine = DopplerEngine::train(catalog.clone(), config, &records);
    let reference = Reference::train(catalog.clone(), config, &records);
    // Debug text, not `==`: empty groups carry NaN statistics.
    assert_eq!(
        format!("{:?}", engine.group_model()),
        format!("{:?}", reference.model),
        "{deployment} training diverged"
    );
    let pipeline = SkuRecommendationPipeline::new(engine);

    let requests = requests(population.customers(&catalog));
    let mut informative = 0;
    for request in &requests {
        let history = &request.input.instance;
        let layout = (deployment == DeploymentType::SqlMi)
            .then(|| FileLayout::from_sizes(&request.input.file_sizes_gib));
        let expected = reference.recommend(history, layout.as_ref());
        let result = pipeline.assess(request);
        let name = &request.instance_name;
        assert_eq!(result.recommendation, expected, "{name}: recommendation differs");
        assert_eq!(
            format!("{:?}", result.recommendation),
            format!("{expected:?}"),
            "{name}: recommendation differs in a float's bits"
        );
        assert_eq!(
            ResourceUseReport::build(history, &result.recommendation).to_json().render_pretty(),
            reference_report(history, &expected).to_json().render_pretty(),
            "{name}: report JSON differs"
        );
        informative += usize::from(expected.curve.is_informative());
    }
    // The cohort must exercise throttling SKUs, not only flat curves.
    assert!(informative > 0, "{deployment}: no informative curve in the cohort");
}

#[test]
fn sql_db_assessments_match_the_per_sku_reference() {
    assert_pipeline_matches_reference(DeploymentType::SqlDb, COHORT_DB, TRAIN_DB);
}

#[test]
fn sql_mi_assessments_match_the_per_sku_reference() {
    assert_pipeline_matches_reference(DeploymentType::SqlMi, COHORT_MI, TRAIN_MI);
}

#[test]
fn signed_zero_series_keep_their_first_sample_on_the_grid() {
    // A constant all-zero series whose first sample is +0.0 but which holds
    // a -0.0: the grid reads +0.0, as the stable sort left it.
    let history = PerfHistory::new()
        .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![0.0, -0.0, 0.0, -0.0]))
        .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![-0.0, 0.0, 0.0, 0.0]));
    let engine = DopplerEngine::untrained(
        azure_paas_catalog(&CatalogSpec::default()),
        EngineConfig::production(DeploymentType::SqlDb),
    );
    let rec = engine.recommend(&history, None);
    let report = ResourceUseReport::build(&history, &rec);
    assert_eq!(
        report.to_json().render_pretty(),
        reference_report(&history, &rec).to_json().render_pretty()
    );
    let grid_sign = |dim| {
        let d = report.dimension_summaries.iter().find(|d| d.dimension == dim).unwrap();
        d.ecdf[0].0.is_sign_negative()
    };
    assert!(!grid_sign(PerfDimension::Cpu));
    assert!(grid_sign(PerfDimension::IoLatency));
}
