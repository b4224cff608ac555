//! The Resource Use Module (§4).
//!
//! "provides a visualization dashboard for customers to better understand
//! their workload resource needs. It outputs time series and distribution
//! plots of customer usage across various perf dimensions, as well as, the
//! price-performance curve, so that customers can understand why they
//! received a specific SKU recommendation."
//!
//! The terminal is our dashboard: summaries and ECDF grids render as text,
//! and the whole report serializes to JSON for machine consumers.
//!
//! The dashboard is not part of an assessment: `SkuRecommendationPipeline::assess`
//! returns the recommendation only, and callers that show the dashboard
//! build it on demand with [`ResourceUseReport::build`] from the assessed
//! history and that recommendation.

use doppler_core::Recommendation;
use doppler_stats::Summary;
use doppler_telemetry::{PerfDimension, PerfHistory};

use crate::json::Json;

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

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        let dims = self
            .dimension_summaries
            .iter()
            .map(|d| {
                Json::Obj(vec![
                    ("dimension".into(), Json::Str(d.dimension.to_string())),
                    ("unit".into(), Json::Str(d.unit.clone())),
                    (
                        "summary".into(),
                        Json::Obj(vec![
                            ("count".into(), Json::Num(d.summary.count as f64)),
                            ("mean".into(), Json::Num(d.summary.mean)),
                            ("stddev".into(), Json::Num(d.summary.stddev)),
                            ("min".into(), Json::Num(d.summary.min)),
                            ("p25".into(), Json::Num(d.summary.p25)),
                            ("median".into(), Json::Num(d.summary.median)),
                            ("p75".into(), Json::Num(d.summary.p75)),
                            ("p95".into(), Json::Num(d.summary.p95)),
                            ("max".into(), Json::Num(d.summary.max)),
                        ]),
                    ),
                    (
                        "ecdf".into(),
                        Json::Arr(
                            d.ecdf
                                .iter()
                                .map(|&(x, f)| Json::Arr(vec![Json::Num(x), Json::Num(f)]))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let curve = self
            .curve_rows
            .iter()
            .map(|(sku, cost, score)| {
                Json::Arr(vec![Json::Str(sku.clone()), Json::Num(*cost), Json::Num(*score)])
            })
            .collect();
        Json::Obj(vec![
            ("dimension_summaries".into(), Json::Arr(dims)),
            ("curve_rows".into(), Json::Arr(curve)),
            (
                "recommended_sku".into(),
                self.recommended_sku.clone().map(Json::Str).unwrap_or(Json::Null),
            ),
            ("explanation".into(), Json::Str(self.explanation.clone())),
            ("confidence".into(), self.confidence.map(Json::Num).unwrap_or(Json::Null)),
        ])
        .render_pretty()
    }

    /// Reconstruct a report from [`ResourceUseReport::to_json`] output.
    pub fn from_json(text: &str) -> Result<ResourceUseReport, String> {
        let v = Json::parse(text)?;
        let field = |key: &str| v.get(key).ok_or_else(|| format!("missing field '{key}'"));
        let num =
            |j: &Json, what: &str| j.as_f64().ok_or_else(|| format!("'{what}' is not a number"));

        let mut dimension_summaries = Vec::new();
        for d in field("dimension_summaries")?.as_arr().ok_or("summaries not an array")? {
            let name = d.get("dimension").and_then(Json::as_str).ok_or("missing dimension")?;
            let dimension = PerfDimension::ALL
                .into_iter()
                .find(|dim| dim.to_string() == name)
                .ok_or_else(|| format!("unknown dimension '{name}'"))?;
            let s = d.get("summary").ok_or("missing summary")?;
            let sfield = |key: &str| {
                s.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("missing summary field '{key}'"))
            };
            let mut ecdf = Vec::new();
            for pair in d.get("ecdf").and_then(Json::as_arr).ok_or("missing ecdf")? {
                let pair =
                    pair.as_arr().filter(|p| p.len() == 2).ok_or("ecdf row is not a pair")?;
                ecdf.push((num(&pair[0], "ecdf x")?, num(&pair[1], "ecdf F")?));
            }
            dimension_summaries.push(DimensionReport {
                dimension,
                unit: d.get("unit").and_then(Json::as_str).ok_or("missing unit")?.to_string(),
                summary: Summary {
                    count: sfield("count")? as usize,
                    mean: sfield("mean")?,
                    stddev: sfield("stddev")?,
                    min: sfield("min")?,
                    p25: sfield("p25")?,
                    median: sfield("median")?,
                    p75: sfield("p75")?,
                    p95: sfield("p95")?,
                    max: sfield("max")?,
                },
                ecdf,
            });
        }

        let mut curve_rows = Vec::new();
        for row in field("curve_rows")?.as_arr().ok_or("curve_rows not an array")? {
            let row = row.as_arr().filter(|r| r.len() == 3).ok_or("curve row is not a triple")?;
            curve_rows.push((
                row[0].as_str().ok_or("curve row SKU not a string")?.to_string(),
                num(&row[1], "curve row cost")?,
                num(&row[2], "curve row score")?,
            ));
        }

        Ok(ResourceUseReport {
            dimension_summaries,
            curve_rows,
            recommended_sku: field("recommended_sku")?
                .non_null()
                .map(|j| j.as_str().map(str::to_string).ok_or("SKU not a string"))
                .transpose()?,
            explanation: field("explanation")?
                .as_str()
                .ok_or("explanation not a string")?
                .to_string(),
            confidence: field("confidence")?
                .non_null()
                .map(|j| num(j, "confidence"))
                .transpose()?,
        })
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
        let json = r.to_json();
        let back = ResourceUseReport::from_json(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn malformed_rows_error_instead_of_panicking() {
        let short_curve_row = r#"{"dimension_summaries": [], "curve_rows": [["sku"]],
            "recommended_sku": null, "explanation": "", "confidence": null}"#;
        assert!(ResourceUseReport::from_json(short_curve_row).is_err());
        let short_ecdf_pair = r#"{"dimension_summaries": [{"dimension": "Cpu", "unit": "vCores",
            "summary": {"count": 1.0, "mean": 0.0, "stddev": 0.0, "min": 0.0, "p25": 0.0,
                        "median": 0.0, "p75": 0.0, "p95": 0.0, "max": 0.0},
            "ecdf": [[1.0]]}],
            "curve_rows": [], "recommended_sku": null, "explanation": "", "confidence": null}"#;
        assert!(ResourceUseReport::from_json(short_ecdf_pair).is_err());
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
