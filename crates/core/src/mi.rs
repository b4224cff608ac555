//! The SQL Managed Instance flow (§3.2, "Determining file storage tier for
//! MI").
//!
//! MI General Purpose stores every database file on its own premium disk,
//! so the instance IOPS limit is not a SKU constant — it is the sum of the
//! per-file storage-tier limits (Table 2). Recommendation therefore runs in
//! two steps:
//!
//! * **Step 1** — pick storage tiers: each file gets the smallest disk that
//!   fits it at 100 %; tiers are then upgraded until the summed IOPS and
//!   throughput cover at least 95 % of the workload's needs. If even P60
//!   disks cannot, the search is restricted to Business Critical (whose
//!   local-SSD IO is a SKU constant).
//! * **Step 2** — build the instance-level price-performance curve with the
//!   storage-derived IOPS limit substituted into every GP SKU, and the
//!   premium-disk rent added to GP monthly costs.

use doppler_catalog::{
    BillingRates, Catalog, DeploymentType, FileLayout, ServiceTier, TierAssignment,
};
use doppler_stats::descriptive::max;
use doppler_telemetry::{PerfDimension, PerfHistory};

use crate::curve::{CurveCounts, PricePerformanceCurve};

/// The §3.2 Step-1 satisfaction fraction ("chosen based on file layout
/// analysis of current on-cloud Azure SQL MI resources").
pub const IOPS_SATISFACTION_FRACTION: f64 = 0.95;

/// Outcome of the two-step MI assessment.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MiAssessment {
    /// Storage tier per data file after the demand-driven upgrade.
    pub storage: TierAssignment,
    /// Step 1 could not reach 95 % on GP premium disks: only BC SKUs are
    /// on the curve.
    pub restricted_to_bc: bool,
    /// The instance-level price-performance curve (Step 2).
    pub curve: PricePerformanceCurve,
    /// The effective GP IOPS limit (sum over files), for reporting.
    pub gp_iops_limit: f64,
}

/// Run the MI assessment. Returns `None` when a data file exceeds the
/// largest premium disk (no MI placement exists).
pub fn mi_curve(
    history: &PerfHistory,
    layout: &FileLayout,
    catalog: &Catalog,
    rates: &BillingRates,
) -> Option<MiAssessment> {
    mi_counted(history, layout, catalog, rates).map(|(assessment, _)| assessment)
}

/// [`mi_curve`] plus the kernel's counts behind its curve: GP SKUs are
/// counted with the layout's IOPS limit and throughput caps substituted.
pub(crate) fn mi_counted(
    history: &PerfHistory,
    layout: &FileLayout,
    catalog: &Catalog,
    rates: &BillingRates,
) -> Option<(MiAssessment, CurveCounts)> {
    // Step 1: storage tiers from size (100 %) and IO demand (95 %).
    let iops_demand = history.values(PerfDimension::Iops).and_then(max).unwrap_or(0.0);
    let throughput_demand = iops_demand / 128.0; // 8 KB pages
    let (storage, satisfied) = layout.assign_tiers_for_demand(
        iops_demand,
        throughput_demand,
        IOPS_SATISFACTION_FRACTION,
    )?;
    let restricted_to_bc = !satisfied;
    let gp_iops_limit = storage.total_iops();

    // Step 2: instance-level curve with layout-adjusted GP capacities.
    let total_data = layout.total_gib();
    let mut priced = Vec::new();
    let mut caps = Vec::new();
    for sku in catalog.for_deployment(DeploymentType::SqlMi) {
        if restricted_to_bc && sku.tier == ServiceTier::GeneralPurpose {
            continue;
        }
        if sku.caps.max_data_gb < total_data {
            continue; // the instance cannot hold the data at all
        }
        let mut sku_caps = sku.caps;
        let monthly = match sku.tier {
            ServiceTier::GeneralPurpose => {
                sku_caps.iops = gp_iops_limit;
                sku_caps.throughput_mbps = storage.total_throughput_mibps();
                rates.monthly_with_storage(sku, &storage)
            }
            // BC uses local SSD: SKU-constant IO, no premium-disk rent.
            ServiceTier::BusinessCritical => sku.monthly_cost(),
        };
        priced.push((sku.id.to_string(), monthly));
        caps.push(sku_caps);
    }
    let (curve, counts) = PricePerformanceCurve::score(history, priced, &caps);
    Some((MiAssessment { storage, restricted_to_bc, curve, gp_iops_limit }, counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppler_catalog::{azure_paas_catalog, CatalogSpec, StorageTier};
    use doppler_telemetry::TimeSeries;

    fn catalog() -> Catalog {
        azure_paas_catalog(&CatalogSpec::default())
    }

    fn history(iops: Vec<f64>) -> PerfHistory {
        let n = iops.len();
        PerfHistory::new()
            .with(PerfDimension::Cpu, TimeSeries::ten_minute(vec![2.0; n]))
            .with(PerfDimension::Memory, TimeSeries::ten_minute(vec![10.0; n]))
            .with(PerfDimension::Iops, TimeSeries::ten_minute(iops))
            .with(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![6.0; n]))
    }

    #[test]
    fn paper_example_three_small_files() {
        // Three files on 128 GB disks -> 3 x P10 -> 1500 IOPS limit.
        let layout = FileLayout::from_sizes(&[100.0, 100.0, 100.0]);
        let a = mi_curve(&history(vec![1000.0; 20]), &layout, &catalog(), &BillingRates::default())
            .unwrap();
        assert_eq!(a.storage.tiers, vec![StorageTier::P10; 3]);
        assert_eq!(a.gp_iops_limit, 1500.0);
        assert!(!a.restricted_to_bc);
    }

    #[test]
    fn io_demand_upgrades_storage_tiers() {
        let layout = FileLayout::from_sizes(&[100.0]);
        let a = mi_curve(&history(vec![4500.0; 20]), &layout, &catalog(), &BillingRates::default())
            .unwrap();
        // A single P10 (500 IOPS) cannot serve 4500: expect >= P30.
        assert!(a.storage.tiers[0] >= StorageTier::P30);
        assert!(a.gp_iops_limit >= 0.95 * 4500.0);
    }

    #[test]
    fn impossible_io_demand_restricts_to_bc() {
        let layout = FileLayout::from_sizes(&[100.0]);
        let a =
            mi_curve(&history(vec![60_000.0; 20]), &layout, &catalog(), &BillingRates::default())
                .unwrap();
        assert!(a.restricted_to_bc);
        assert!(a.curve.points().iter().all(|p| p.sku_id.contains("BC")));
    }

    #[test]
    fn oversized_file_yields_none() {
        let layout = FileLayout::from_sizes(&[9_000.0]);
        assert!(mi_curve(&history(vec![100.0; 5]), &layout, &catalog(), &BillingRates::default())
            .is_none());
    }

    #[test]
    fn gp_costs_include_premium_disk_rent() {
        let layout = FileLayout::from_sizes(&[100.0]);
        let cat = catalog();
        let rates = BillingRates::default();
        let a = mi_curve(&history(vec![200.0; 20]), &layout, &cat, &rates).unwrap();
        let gp4 = a.curve.point_for("MI_GP_4").expect("GP 4 on curve");
        let compute = cat.get(&"MI_GP_4".into()).unwrap().monthly_cost();
        assert!(
            (gp4.monthly_cost - (compute + StorageTier::P10.monthly_price())).abs() < 1e-6,
            "cost {}",
            gp4.monthly_cost
        );
    }

    #[test]
    fn bc_costs_exclude_premium_disk_rent() {
        let layout = FileLayout::from_sizes(&[100.0]);
        let cat = catalog();
        let a =
            mi_curve(&history(vec![200.0; 20]), &layout, &cat, &BillingRates::default()).unwrap();
        let bc4 = a.curve.point_for("MI_BC_4").expect("BC 4 on curve");
        let compute = cat.get(&"MI_BC_4".into()).unwrap().monthly_cost();
        assert!((bc4.monthly_cost - compute).abs() < 1e-6);
    }

    #[test]
    fn instances_too_small_for_the_data_are_excluded() {
        // 3 TB of data excludes SKUs whose max_data_gb is below it.
        let layout = FileLayout::from_sizes(&[1500.0, 1500.0]);
        let a = mi_curve(&history(vec![500.0; 10]), &layout, &catalog(), &BillingRates::default())
            .unwrap();
        let cat = catalog();
        for p in a.curve.points() {
            let sku = cat.get(&doppler_catalog::SkuId(p.sku_id.clone())).unwrap();
            assert!(sku.caps.max_data_gb >= 3000.0, "{} too small", p.sku_id);
        }
    }

    #[test]
    fn layout_limited_gp_throttles_where_bc_does_not() {
        // Demand 3000 IOPS against a single file upgraded to P30 (5000):
        // GP satisfies; but demand 6000 against P40 (7500) cap... use a
        // spiky series instead: baseline 1000 with spikes to 7000.
        let mut iops = vec![1000.0; 100];
        for i in (0..100).step_by(10) {
            iops[i] = 7_000.0;
        }
        let layout = FileLayout::from_sizes(&[100.0]);
        let a = mi_curve(&history(iops), &layout, &catalog(), &BillingRates::default()).unwrap();
        // Storage upgraded to satisfy >= 95% of the 7000 peak -> P40 (7500).
        assert!(a.gp_iops_limit >= 6650.0);
        // All GP SKUs share the same layout-derived IOPS cap.
        let gp_scores: Vec<f64> = a
            .curve
            .points()
            .iter()
            .filter(|p| p.sku_id.contains("GP"))
            .map(|p| p.raw_score)
            .collect();
        assert!(!gp_scores.is_empty());
    }
}
