//! Byte-for-byte pins of the paper reproductions at their default scale
//! (`cohort = 600`, `seed = 42`). A golden changes only when a change
//! means to change the reproduced numbers; regenerate it by writing the
//! experiment function's output at `ExperimentScale::default()` to the file.

use doppler_bench::experiments::{tables, ExperimentScale};

#[test]
fn table1_matches_its_golden() {
    assert_eq!(
        tables::table1(&ExperimentScale::default()),
        include_str!("golden/table1_seed42.txt")
    );
}
