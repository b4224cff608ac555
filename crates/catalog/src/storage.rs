//! Premium-disk storage tiers and database file layouts (Table 2, §3.2).
//!
//! "The data layer for SQL MI is implemented using Azure Premium Disk
//! storage, and every database file is placed on a separate disk. Each disk
//! has a fixed size, and bigger disks are associated with better throughput
//! and IOPs." The SKU choice for MI customers therefore *begins with fixing
//! the file layout*; the instance-level IOPS limit is "the summation of
//! IOPs limit on all the data files".

use std::fmt;

/// A premium-disk storage tier. The four tiers the paper prints in Table 2
/// (P10, P20, P50, P60) use the paper's numbers verbatim; P30/P40 fill the
/// elided ". . ." columns with Azure's published limits.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum StorageTier {
    P10,
    P20,
    P30,
    P40,
    P50,
    P60,
}

impl fmt::Display for StorageTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl StorageTier {
    /// All tiers, smallest first.
    pub const ALL: [StorageTier; 6] = [
        StorageTier::P10,
        StorageTier::P20,
        StorageTier::P30,
        StorageTier::P40,
        StorageTier::P50,
        StorageTier::P60,
    ];

    /// Upper bound of the file-size bracket, GiB (Table 2 row "File size").
    pub fn max_file_gib(&self) -> f64 {
        match self {
            StorageTier::P10 => 128.0,
            StorageTier::P20 => 512.0,
            StorageTier::P30 => 1024.0,
            StorageTier::P40 => 2048.0,
            StorageTier::P50 => 4096.0,
            StorageTier::P60 => 8192.0,
        }
    }

    /// IOPS limit of a disk in this tier (Table 2 row "IOPS").
    pub fn iops(&self) -> f64 {
        match self {
            StorageTier::P10 => 500.0,
            StorageTier::P20 => 2300.0,
            StorageTier::P30 => 5000.0,
            StorageTier::P40 => 7500.0,
            StorageTier::P50 => 7500.0,
            StorageTier::P60 => 12500.0,
        }
    }

    /// Throughput limit, MiB/s (Table 2 row "Throughput").
    pub fn throughput_mibps(&self) -> f64 {
        match self {
            StorageTier::P10 => 100.0,
            StorageTier::P20 => 150.0,
            StorageTier::P30 => 200.0,
            StorageTier::P40 => 250.0,
            StorageTier::P50 => 250.0,
            StorageTier::P60 => 480.0,
        }
    }

    /// Monthly price of one disk of this tier, dollars (Azure premium-disk
    /// list prices; feeds the MI cost model).
    pub fn monthly_price(&self) -> f64 {
        match self {
            StorageTier::P10 => 19.71,
            StorageTier::P20 => 73.22,
            StorageTier::P30 => 135.17,
            StorageTier::P40 => 259.05,
            StorageTier::P50 => 495.57,
            StorageTier::P60 => 962.98,
        }
    }

    /// Smallest tier whose disk fits a file of `size_gib`; `None` when the
    /// file exceeds the largest disk (8 TiB).
    pub fn for_file_size(size_gib: f64) -> Option<StorageTier> {
        StorageTier::ALL.iter().copied().find(|t| size_gib <= t.max_file_gib())
    }
}

/// One database file, to be placed on its own premium disk.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DataFile {
    /// Allocated size, GiB.
    pub size_gib: f64,
}

/// A database file layout: the set of files an MI instance hosts.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct FileLayout {
    pub files: Vec<DataFile>,
}

/// A file layout with every file assigned to a storage tier.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TierAssignment {
    pub tiers: Vec<StorageTier>,
}

impl FileLayout {
    /// Layout from raw file sizes in GiB.
    pub fn from_sizes(sizes_gib: &[f64]) -> FileLayout {
        FileLayout { files: sizes_gib.iter().map(|&s| DataFile { size_gib: s }).collect() }
    }

    /// Total data size across files, GiB.
    pub fn total_gib(&self) -> f64 {
        self.files.iter().map(|f| f.size_gib).sum()
    }

    /// Assign each file the smallest tier that fits it (§3.2 Step 1's
    /// "satisfy the storage requirement of the data file at a minimum of
    /// 100%"). `None` if any file exceeds the largest disk.
    pub fn assign_tiers(&self) -> Option<TierAssignment> {
        let tiers = self
            .files
            .iter()
            .map(|f| StorageTier::for_file_size(f.size_gib))
            .collect::<Option<Vec<_>>>()?;
        Some(TierAssignment { tiers })
    }

    /// Upgrade every file's tier until the summed IOPS/throughput satisfy
    /// the given demands at `fraction` (the paper's 95 % rule), or tiers run
    /// out. Returns the final assignment and whether the demands were met.
    pub fn assign_tiers_for_demand(
        &self,
        iops_demand: f64,
        throughput_demand_mibps: f64,
        fraction: f64,
    ) -> Option<(TierAssignment, bool)> {
        let mut assignment = self.assign_tiers()?;
        loop {
            let satisfied = assignment.total_iops() >= fraction * iops_demand
                && assignment.total_throughput_mibps() >= fraction * throughput_demand_mibps;
            if satisfied {
                return Some((assignment, true));
            }
            // Upgrade the cheapest upgradable file one tier.
            let upgradable: Vec<usize> = assignment
                .tiers
                .iter()
                .enumerate()
                .filter(|(_, &t)| t != StorageTier::P60)
                .map(|(i, _)| i)
                .collect();
            let Some(&pick) = upgradable.iter().min_by(|&&a, &&b| {
                let ca = assignment.tiers[a].monthly_price();
                let cb = assignment.tiers[b].monthly_price();
                ca.total_cmp(&cb)
            }) else {
                return Some((assignment, false));
            };
            let next = StorageTier::ALL[StorageTier::ALL
                .iter()
                .position(|&t| t == assignment.tiers[pick])
                .expect("tier in ALL")
                + 1];
            assignment.tiers[pick] = next;
        }
    }
}

impl TierAssignment {
    /// Instance-level IOPS limit: "the summation of IOPs limit on all the
    /// data files" (§3.2 Step 2).
    pub fn total_iops(&self) -> f64 {
        self.tiers.iter().map(|t| t.iops()).sum()
    }

    /// Summed throughput limit, MiB/s.
    pub fn total_throughput_mibps(&self) -> f64 {
        self.tiers.iter().map(|t| t.throughput_mibps()).sum()
    }

    /// Summed monthly storage price, dollars.
    pub fn monthly_storage_cost(&self) -> f64 {
        self.tiers.iter().map(|t| t.monthly_price()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values_are_pinned() {
        // The four tiers printed in Table 2 must match the paper exactly.
        assert_eq!(StorageTier::P10.max_file_gib(), 128.0);
        assert_eq!(StorageTier::P10.iops(), 500.0);
        assert_eq!(StorageTier::P10.throughput_mibps(), 100.0);
        assert_eq!(StorageTier::P20.max_file_gib(), 512.0);
        assert_eq!(StorageTier::P20.iops(), 2300.0);
        assert_eq!(StorageTier::P20.throughput_mibps(), 150.0);
        assert_eq!(StorageTier::P50.max_file_gib(), 4096.0);
        assert_eq!(StorageTier::P50.iops(), 7500.0);
        assert_eq!(StorageTier::P60.max_file_gib(), 8192.0);
        assert_eq!(StorageTier::P60.iops(), 12500.0);
        assert_eq!(StorageTier::P60.throughput_mibps(), 480.0);
    }

    #[test]
    fn tiers_scale_monotonically() {
        for w in StorageTier::ALL.windows(2) {
            assert!(w[1].max_file_gib() > w[0].max_file_gib());
            assert!(w[1].iops() >= w[0].iops());
            assert!(w[1].throughput_mibps() >= w[0].throughput_mibps());
            assert!(w[1].monthly_price() > w[0].monthly_price());
        }
    }

    #[test]
    fn file_size_picks_smallest_fitting_tier() {
        assert_eq!(StorageTier::for_file_size(100.0), Some(StorageTier::P10));
        assert_eq!(StorageTier::for_file_size(128.0), Some(StorageTier::P10));
        assert_eq!(StorageTier::for_file_size(129.0), Some(StorageTier::P20));
        assert_eq!(StorageTier::for_file_size(5000.0), Some(StorageTier::P60));
        assert_eq!(StorageTier::for_file_size(9000.0), None);
    }

    #[test]
    fn paper_example_three_128gb_files() {
        // §3.2: "a customer can choose an MI SKU that creates 3 files that
        // can each fit within a 128GB disk" — three P10 disks, 1500 IOPS.
        let layout = FileLayout::from_sizes(&[100.0, 120.0, 128.0]);
        let a = layout.assign_tiers().unwrap();
        assert_eq!(a.tiers, vec![StorageTier::P10; 3]);
        assert_eq!(a.total_iops(), 1500.0);
        assert_eq!(a.total_throughput_mibps(), 300.0);
    }

    #[test]
    fn oversized_file_fails_assignment() {
        let layout = FileLayout::from_sizes(&[10_000.0]);
        assert!(layout.assign_tiers().is_none());
    }

    #[test]
    fn demand_driven_assignment_upgrades_tiers() {
        // One small file would default to P10 (500 IOPS); a 2000-IOPS
        // demand must push it upward.
        let layout = FileLayout::from_sizes(&[50.0]);
        let (a, ok) = layout.assign_tiers_for_demand(2000.0, 0.0, 0.95).unwrap();
        assert!(ok);
        assert!(a.total_iops() >= 0.95 * 2000.0);
        assert!(a.tiers[0] > StorageTier::P10);
    }

    #[test]
    fn demand_beyond_p60_reports_unmet() {
        let layout = FileLayout::from_sizes(&[50.0]);
        let (a, ok) = layout.assign_tiers_for_demand(1e9, 0.0, 0.95).unwrap();
        assert!(!ok);
        assert_eq!(a.tiers[0], StorageTier::P60);
    }

    #[test]
    fn zero_demand_is_trivially_met_by_default_tiers() {
        let layout = FileLayout::from_sizes(&[50.0, 300.0]);
        let (a, ok) = layout.assign_tiers_for_demand(0.0, 0.0, 0.95).unwrap();
        assert!(ok);
        assert_eq!(a.tiers, vec![StorageTier::P10, StorageTier::P20]);
    }

    #[test]
    fn storage_cost_sums_disk_prices() {
        let layout = FileLayout::from_sizes(&[100.0, 400.0]);
        let a = layout.assign_tiers().unwrap();
        let want = StorageTier::P10.monthly_price() + StorageTier::P20.monthly_price();
        assert!((a.monthly_storage_cost() - want).abs() < 1e-9);
    }

    #[test]
    fn total_gib_sums_files() {
        let layout = FileLayout::from_sizes(&[1.5, 2.5]);
        assert_eq!(layout.total_gib(), 4.0);
    }
}
