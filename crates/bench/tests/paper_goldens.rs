//! Byte-for-byte pins of the paper reproductions at their default scale
//! (`cohort = 600`, `seed = 42`). A golden changes only when a change
//! means to change the reproduced numbers; regenerate it by writing the
//! experiment function's output at `ExperimentScale::default()` to the file.
//!
//! Every `reproduce` experiment is pinned except `table4`, whose k-means
//! sweep takes over a minute even in release.

use doppler_bench::experiments::{figures, sections, tables, ExperimentScale};

macro_rules! paper_goldens {
    ($($test:ident: $module:ident::$experiment:ident,)*) => {$(
        #[test]
        fn $test() {
            assert_eq!(
                $module::$experiment(&ExperimentScale::default()),
                include_str!(concat!("golden/", stringify!($experiment), "_seed42.txt"))
            );
        }
    )*};
}

paper_goldens! {
    table1_matches_its_golden: tables::table1,
    table2_matches_its_golden: tables::table2,
    table3_matches_its_golden: tables::table3,
    table5_matches_its_golden: tables::table5,
    table6_matches_its_golden: tables::table6,
    figure1_matches_its_golden: figures::figure1,
    figure4_matches_its_golden: figures::figure4,
    figure5_matches_its_golden: figures::figure5,
    figure6_matches_its_golden: figures::figure6,
    figure8_matches_its_golden: figures::figure8,
    figure9_matches_its_golden: figures::figure9,
    figure10_matches_its_golden: figures::figure10,
    figure11_matches_its_golden: figures::figure11,
    figure12_matches_its_golden: figures::figure12,
    figure13_matches_its_golden: figures::figure13,
    sec5_3_matches_its_golden: sections::sec5_3,
    survey_matches_its_golden: sections::survey,
}
