//! The correctness check shared by the service workloads: the service's
//! report against reference results computed on the calling thread.

use std::collections::BTreeMap;
use std::sync::Arc;

use doppler_dma::SkuRecommendationPipeline;
use doppler_fleet::{
    DigestOutcome, FleetAggregator, FleetReport, FleetRequest, FleetResult, ResultDigest,
};

/// Relative tolerance of the tally's plain floating-point cost sum against
/// the report's exactly rounded one.
const COST_TOLERANCE: f64 = 1e-9;

/// The reference result for one request: assessed on the calling thread
/// through `pipeline`, digested the way the service digests its results.
pub fn reference_digest(
    pipeline: &SkuRecommendationPipeline,
    request: &FleetRequest,
) -> ResultDigest {
    ResultDigest::of(&FleetResult {
        index: 0,
        instance_name: Arc::from(request.request.instance_name.as_str()),
        deployment: request.deployment,
        month: request.month.clone(),
        outcome: Ok(pipeline.assess(&request.request)),
    })
}

/// Check the report of `total` submissions cycling over the pool whose
/// reference results are `digests`. Returns the number of disagreements:
///
/// * against a single-threaded fold of the references through
///   `FleetAggregator`, in submission order — fleet size, SKU mix, and
///   bit-identical total monthly cost;
/// * against a tally that does not use the aggregator at all — fleet size,
///   per-SKU counts, and the total cost to [`COST_TOLERANCE`].
pub fn check(report: &FleetReport, digests: &[ResultDigest], total: usize) -> u64 {
    let folded = fold(digests, total);
    let mut mismatches = [
        report.fleet_size != folded.fleet_size,
        report.sku_mix != folded.sku_mix,
        report.total_monthly_cost.to_bits() != folded.total_monthly_cost.to_bits(),
    ]
    .into_iter()
    .filter(|&bad| bad)
    .count() as u64;

    let (counts, cost) = tally(digests, total);
    let reported: BTreeMap<&str, usize> =
        report.sku_mix.iter().map(|row| (row.sku_id.as_str(), row.count)).collect();
    let cost_error = (report.total_monthly_cost - cost).abs() / cost.abs().max(1.0);
    mismatches += [report.fleet_size != total, reported != counts, cost_error > COST_TOLERANCE]
        .into_iter()
        .filter(|&bad| bad)
        .count() as u64;
    mismatches
}

/// Fold `total` submissions cycling over `digests`, in submission order.
fn fold(digests: &[ResultDigest], total: usize) -> FleetReport {
    let mut aggregator = FleetAggregator::new();
    for i in 0..total {
        let mut digest = digests[i % digests.len()].clone();
        digest.index = i;
        aggregator.accept_digest(&digest);
    }
    aggregator.finish()
}

/// Per-SKU counts and the total monthly cost of `total` submissions
/// cycling over `digests`, counted directly.
fn tally(digests: &[ResultDigest], total: usize) -> (BTreeMap<&str, usize>, f64) {
    let mut counts = BTreeMap::new();
    let mut cost = 0.0;
    for (j, digest) in digests.iter().enumerate() {
        let times = total / digests.len() + usize::from(j < total % digests.len());
        if let DigestOutcome::Assessed { sku: Some((sku, monthly)), .. } = &digest.outcome {
            if times > 0 {
                *counts.entry(sku.as_ref()).or_insert(0) += times;
            }
            cost += monthly * times as f64;
        }
    }
    (counts, cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A digest of one placed assessment.
    fn placed(sku: &str, cost: f64) -> ResultDigest {
        use doppler_catalog::DeploymentType;
        use doppler_core::CurveShape;
        ResultDigest {
            index: 0,
            instance_name: Arc::from("c"),
            deployment: DeploymentType::SqlDb,
            month: None,
            outcome: DigestOutcome::Assessed {
                databases_assessed: 1,
                shape: CurveShape::Flat,
                confidence: None,
                sku: Some((Arc::from(sku), cost)),
                eligible_recommendations: 1,
            },
        }
    }

    #[test]
    fn a_faithful_report_passes() {
        let pool = [placed("A", 10.0), placed("B", 2.5)];
        let report = fold(&pool, 5);
        assert_eq!(report.fleet_size, 5);
        assert_eq!(report.total_monthly_cost, 3.0 * 10.0 + 2.0 * 2.5);
        assert_eq!(check(&report, &pool, 5), 0);
    }

    #[test]
    fn every_kind_of_difference_is_flagged() {
        let pool = [placed("A", 10.0), placed("B", 2.5)];
        // One submission short: size, A's count and the cost differ, both
        // against the fold and against the tally.
        assert_eq!(check(&fold(&pool, 4), &pool, 5), 6);
        // Same size and cost, one SKU renamed: only the mixes differ.
        let renamed = [placed("A", 10.0), placed("C", 2.5)];
        assert_eq!(check(&fold(&renamed, 5), &pool, 5), 2);
        // One SKU dearer: its mix row and the total differ; the tally
        // sees only the cost.
        let dearer = [placed("A", 10.0), placed("B", 2.75)];
        assert_eq!(check(&fold(&dearer, 5), &pool, 5), 3);
    }

    #[test]
    fn the_tally_counts_each_pool_entry_by_its_multiplicity() {
        let pool = [placed("A", 10.0), placed("B", 2.5)];
        let (counts, cost) = tally(&pool, 5);
        assert_eq!(counts, BTreeMap::from([("A", 3), ("B", 2)]));
        assert_eq!(cost, 35.0);
    }
}
