//! The Resource Use Module (§4).
//!
//! "provides a visualization dashboard for customers to better understand
//! their workload resource needs. It outputs time series and distribution
//! plots of customer usage across various perf dimensions, as well as, the
//! price-performance curve, so that customers can understand why they
//! received a specific SKU recommendation."
//!
//! The terminal is our dashboard: summaries and ECDF grids render as text,
//! and the whole report serializes to JSON for machine consumers through
//! [`JsonCodec`].
//!
//! The dashboard is not part of an assessment: `SkuRecommendationPipeline::assess`
//! returns the recommendation only, and callers that show the dashboard
//! build it on demand with [`ResourceUseReport::build`] from the assessed
//! history and that recommendation.

use doppler_core::Recommendation;
use doppler_stats::Summary;
use doppler_telemetry::{PerfDimension, PerfHistory};

use crate::json::{Json, JsonCodec};
use crate::json_record;

/// Distribution data for one perf dimension.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DimensionReport {
    pub dimension: PerfDimension,
    pub unit: String,
    pub summary: Summary,
    /// `(x, F(x))` pairs of the ECDF on a 16-point grid.
    pub ecdf: Vec<(f64, f64)>,
}

/// The full dashboard payload for one assessment.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ResourceUseReport {
    pub dimension_summaries: Vec<DimensionReport>,
    /// `(sku, monthly cost, envelope score)` rows of the curve.
    pub curve_rows: Vec<(String, f64, f64)>,
    pub recommended_sku: Option<String>,
    pub explanation: String,
    pub confidence: Option<f64>,
}

impl ResourceUseReport {
    /// Assemble the report from the assessed history and recommendation.
    pub fn build(history: &PerfHistory, recommendation: &Recommendation) -> ResourceUseReport {
        let mut dimension_summaries = Vec::new();
        for (dim, series) in history.iter() {
            let values = series.values();
            let Some((summary, ecdf)) = Summary::with_ecdf(values) else { continue };
            let mut ecdf = ecdf.grid(16);
            if summary.min == summary.max {
                // A constant series puts its one value on every grid x.
                // Take it from the sample: a mixed ±0.0 series then reads
                // its first zero's sign, not the -0.0 that `total_cmp`
                // sorts first.
                ecdf.iter_mut().for_each(|point| point.0 = values[0]);
            }
            dimension_summaries.push(DimensionReport {
                dimension: dim,
                unit: dim.unit().to_string(),
                summary,
                ecdf,
            });
        }
        ResourceUseReport {
            dimension_summaries,
            curve_rows: recommendation
                .curve
                .points()
                .iter()
                .map(|p| (p.sku_id.clone(), p.monthly_cost, p.score))
                .collect(),
            recommended_sku: recommendation.sku_id.clone(),
            explanation: recommendation.explanation.render(),
            confidence: recommendation.confidence,
        }
    }
}

json_record!(Summary { count, mean, stddev, min, p25, median, p75, p95, max });
json_record!(DimensionReport { dimension, unit, summary, ecdf });
json_record!(ResourceUseReport {
    dimension_summaries,
    curve_rows,
    recommended_sku,
    explanation,
    confidence,
});

/// A dimension travels as its display name (`"Cpu"`, `"IoLatency"`, ...).
impl JsonCodec for PerfDimension {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }

    fn from_json(json: &Json) -> Option<PerfDimension> {
        let name = json.as_str()?;
        PerfDimension::ALL.into_iter().find(|dim| dim.to_string() == name)
    }
}

/// Render the dashboard as plain text.
pub fn render_text_report(report: &ResourceUseReport) -> String {
    let mut out = String::new();
    out.push_str("=== Resource Use Report ===\n");
    for d in &report.dimension_summaries {
        out.push_str(&format!(
            "{:<10} [{:>6}]  mean {:>10.2}  p95 {:>10.2}  max {:>10.2}\n",
            d.dimension.to_string(),
            d.unit,
            d.summary.mean,
            d.summary.p95,
            d.summary.max
        ));
    }
    out.push_str("\n--- Price-performance curve ---\n");
    for (sku, cost, score) in &report.curve_rows {
        let bar = (score * 32.0).round() as usize;
        out.push_str(&format!("{sku:>12} ${cost:>10.2}/mo |{:<32}| {score:.3}\n", "#".repeat(bar)));
    }
    match &report.recommended_sku {
        Some(sku) => out.push_str(&format!("\nRecommended SKU: {sku}\n")),
        None => out.push_str("\nNo SKU could be recommended.\n"),
    }
    if let Some(c) = report.confidence {
        out.push_str(&format!("Confidence: {:.0}%\n", c * 100.0));
    }
    out.push_str(&format!("\n{}\n", report.explanation));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppler_catalog::{azure_paas_catalog, CatalogSpec, DeploymentType};
    use doppler_core::engine::EngineConfig;
    use doppler_core::DopplerEngine;
    use doppler_telemetry::TimeSeries;

    fn fixture() -> (PerfHistory, Recommendation) {
        let history = PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![0.5; 64]))
            .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; 64]));
        let engine = DopplerEngine::untrained(
            azure_paas_catalog(&CatalogSpec::default()),
            EngineConfig::production(DeploymentType::SqlDb),
        );
        let rec = engine.recommend(&history, None);
        (history, rec)
    }

    #[test]
    fn report_covers_every_collected_dimension() {
        let (h, rec) = fixture();
        let r = ResourceUseReport::build(&h, &rec);
        assert_eq!(r.dimension_summaries.len(), 2);
        assert_eq!(r.curve_rows.len(), rec.curve.len());
    }

    #[test]
    fn text_rendering_mentions_the_recommendation() {
        let (h, rec) = fixture();
        let r = ResourceUseReport::build(&h, &rec);
        let text = render_text_report(&r);
        assert!(text.contains("DB_GP_2"), "{text}");
        assert!(text.contains("Price-performance curve"));
        assert!(text.contains("Cpu"));
    }

    #[test]
    fn json_round_trips() {
        let (h, rec) = fixture();
        let r = ResourceUseReport::build(&h, &rec);
        let text = r.to_json().render_pretty();
        let back = ResourceUseReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn malformed_rows_error_instead_of_panicking() {
        let decode = |text: &str| ResourceUseReport::from_json(&Json::parse(text).unwrap());
        let short_curve_row = r#"{"dimension_summaries": [], "curve_rows": [["sku"]],
            "recommended_sku": null, "explanation": "", "confidence": null}"#;
        assert!(decode(short_curve_row).is_none());
        let short_ecdf_pair = r#"{"dimension_summaries": [{"dimension": "Cpu", "unit": "vCores",
            "summary": {"count": 1.0, "mean": 0.0, "stddev": 0.0, "min": 0.0, "p25": 0.0,
                        "median": 0.0, "p75": 0.0, "p95": 0.0, "max": 0.0},
            "ecdf": [[1.0]]}],
            "curve_rows": [], "recommended_sku": null, "explanation": "", "confidence": null}"#;
        assert!(decode(short_ecdf_pair).is_none());
    }

    #[test]
    fn ecdf_grid_is_monotone() {
        let (h, rec) = fixture();
        let r = ResourceUseReport::build(&h, &rec);
        for d in &r.dimension_summaries {
            for w in d.ecdf.windows(2) {
                assert!(w[1].1 >= w[0].1);
            }
        }
    }
}
