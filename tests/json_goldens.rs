//! Byte-for-byte pins of the JSON wire format of every export: the
//! Resource Use Report, the obs snapshot, the A/B summary, the back-test
//! report and the schedule trace. Round-trip tests pass under any
//! self-consistent schema; these goldens fail when a field name, order,
//! type or number spelling changes. Each fixture is a literal that covers
//! `Some`/`None`, empty arrays, a `-0.0`, and a string with `"`, `\n` and
//! `\t`; every golden must also decode back to its fixture.
//!
//! A golden changes only when a change means to change the wire format;
//! regenerate it by writing the fixture's `render_pretty()` to the file.

use std::fmt::Debug;

use doppler::dma::json::{Json, JsonCodec};
use doppler::dma::report::DimensionReport;
use doppler::dma::ResourceUseReport;
use doppler::fleet::{
    AbAdoption, AbSideSummary, AbSummary, BacktestCaseRow, BacktestReport, ReplayScore,
    RolloutEvent, ScheduleMonthRow, ScheduleSummary,
};
use doppler::obs::{HistogramSummary, ObsEvent, ObsSnapshot};
use doppler::stats::Summary;
use doppler::telemetry::PerfDimension;

const AWKWARD: &str = "say \"hi\"\n\tthen stop";

fn resource_use_report() -> ResourceUseReport {
    ResourceUseReport {
        dimension_summaries: vec![
            DimensionReport {
                dimension: PerfDimension::Cpu,
                unit: "vCores".into(),
                summary: Summary {
                    count: 3,
                    mean: 0.5,
                    stddev: 0.25,
                    min: -0.0,
                    p25: 0.125,
                    median: 0.5,
                    p75: 0.75,
                    p95: 0.95,
                    max: 1.0,
                },
                ecdf: vec![(-0.0, 1.0 / 3.0), (0.5, 2.0 / 3.0), (1.0, 1.0)],
            },
            DimensionReport {
                dimension: PerfDimension::IoLatency,
                unit: "ms".into(),
                summary: Summary {
                    count: 1,
                    mean: 6.0,
                    stddev: 0.0,
                    min: 6.0,
                    p25: 6.0,
                    median: 6.0,
                    p75: 6.0,
                    p95: 6.0,
                    max: 6.0,
                },
                ecdf: vec![],
            },
        ],
        curve_rows: vec![("DB_GP_2".into(), 370.25, 0.875), (AWKWARD.into(), 1e300, 5e-324)],
        recommended_sku: Some("DB_GP_2".into()),
        explanation: AWKWARD.into(),
        confidence: None,
    }
}

fn obs_snapshot() -> ObsSnapshot {
    ObsSnapshot {
        enabled: true,
        uptime_ns: 123_456_789,
        counters: vec![("fleet.worker.0.tasks".into(), 250), ("registry.misses".into(), 0)],
        gauges: vec![("fleet.queue.depth.normal".into(), -3)],
        histograms: vec![HistogramSummary {
            name: "fleet.stage.assess".into(),
            count: 1000,
            mean_ns: 52_000,
            p50_ns: 49_152,
            p95_ns: 98_304,
            p99_ns: 98_304,
            max_ns: 812_345,
        }],
        events: vec![
            ObsEvent { seq: 0, at_ns: 1000, name: "catalog.roll".into(), detail: AWKWARD.into() },
            ObsEvent { seq: 1, at_ns: 2000, name: "drift.pass".into(), detail: String::new() },
        ],
    }
}

fn disabled_obs_snapshot() -> ObsSnapshot {
    ObsSnapshot {
        enabled: false,
        uptime_ns: 0,
        counters: vec![],
        gauges: vec![],
        histograms: vec![],
        events: vec![],
    }
}

fn ab_summary() -> AbSummary {
    AbSummary {
        champion: AbSideSummary {
            backend: "heuristic".into(),
            recommended: 10,
            unrecommended: 2,
            total_monthly_cost: 3702.5,
            mean_monthly_cost: Some(370.25),
            mean_confidence: None,
        },
        challenger: AbSideSummary {
            backend: AWKWARD.into(),
            recommended: 0,
            unrecommended: 12,
            total_monthly_cost: -0.0,
            mean_monthly_cost: None,
            mean_confidence: Some(0.875),
        },
        paired: 12,
        both_recommended: 0,
        sku_agreements: 0,
        adoption: AbAdoption { challenger_cheaper: 0, projected_monthly_savings: -0.0 },
    }
}

fn backtest_report() -> BacktestReport {
    let score = |sku_id: &str, monthly_cost: f64, fits: bool| ReplayScore {
        sku_id: sku_id.into(),
        monthly_cost,
        throttle_fraction: if fits { -0.0 } else { 0.125 },
        mean_latency_ms: 2.5,
        p95_latency_ms: if fits { 4.75 } else { 31.0 },
        fits,
    };
    BacktestReport {
        candidate_label: "learned".into(),
        reference_label: AWKWARD.into(),
        latency_limit_ms: 15.0,
        throttle_budget: 0.05,
        cases: vec![
            BacktestCaseRow {
                name: "customer-0".into(),
                candidate: Some(score("DB_GP_2", 370.25, true)),
                reference: Some(score("DB_GP_2", 370.25, true)),
                agreed: true,
            },
            BacktestCaseRow {
                name: "customer-1".into(),
                candidate: Some(score("DB_GP_4", 740.5, false)),
                reference: None,
                agreed: false,
            },
        ],
        scored_pairs: 1,
        sku_agreements: 1,
        candidate_fit: 1,
        reference_fit: 1,
        candidate_throttle_months: 0,
        reference_throttle_months: 0,
        candidate_monthly_cost: 370.25,
        reference_monthly_cost: 370.25,
    }
}

fn schedule_summary() -> ScheduleSummary {
    let row = |month: &str, ab: Option<f64>, rollout: RolloutEvent| ScheduleMonthRow {
        month: month.into(),
        onboarded: 4,
        telemetry: 3,
        feeds: 1,
        rolls: 1,
        repriced: 2,
        reprice_failures: 0,
        checked: 4,
        drifted: 1,
        reassessed: 1,
        retired_customers: 0,
        retired_engines: 0,
        watched: 4,
        ab_cohort: usize::from(ab.is_some()) * 4,
        ab_agreement: ab,
        ab_savings: ab.map(|_| -0.0),
        rollout,
    };
    ScheduleSummary {
        start: "Jan-22".into(),
        months: vec![
            row("Jan-22", None, RolloutEvent::None),
            row("Feb-22", Some(1.0), RolloutEvent::Promoted),
            row(AWKWARD, Some(0.25), RolloutEvent::Demoted),
        ],
        customers_onboarded: 12,
        telemetry_windows: 9,
        feeds_applied: 3,
        rolls_dispatched: 3,
        customers_repriced: 6,
        reprice_failures: 0,
        drift_checks: 12,
        drift_detected: 3,
        reassessments: 3,
        customers_retired: 0,
        engines_retired: 0,
        ab_months: 2,
        promotions: 1,
        demotions: 1,
        promoted_month: Some("Feb-22".into()),
    }
}

/// `value` renders byte for byte as `golden`, and `golden` decodes back
/// to `value`.
fn assert_golden<T: JsonCodec + PartialEq + Debug>(value: T, golden: &str) {
    assert_eq!(value.to_json().render_pretty(), golden);
    assert_eq!(T::from_json(&Json::parse(golden).expect("golden parses")), Some(value));
}

#[test]
fn resource_use_report_matches_its_golden() {
    assert_golden(resource_use_report(), include_str!("golden/json/resource_use_report.json"));
}

#[test]
fn obs_snapshot_matches_its_golden() {
    assert_golden(obs_snapshot(), include_str!("golden/json/obs_snapshot.json"));
    assert_golden(disabled_obs_snapshot(), include_str!("golden/json/obs_snapshot_disabled.json"));
}

#[test]
fn ab_summary_matches_its_golden() {
    assert_golden(ab_summary(), include_str!("golden/json/ab_summary.json"));
}

#[test]
fn backtest_report_matches_its_golden() {
    assert_golden(backtest_report(), include_str!("golden/json/backtest_report.json"));
}

#[test]
fn schedule_summary_matches_its_golden() {
    assert_golden(schedule_summary(), include_str!("golden/json/schedule_summary.json"));
}
