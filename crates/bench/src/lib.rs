//! Shared harness code for the Doppler reproduction benchmarks.
//!
//! The `reproduce` binary (one subcommand per paper table/figure) builds
//! on these helpers:
//!
//! * [`backtest`] — the §5.2 evaluation loop: train the engine on a
//!   synthetic migrated-customer cohort, recommend for every member, and
//!   score against the SKU each member actually fixed;
//! * [`ascii`] — terminal rendering of curves and series so every figure
//!   has a printable form;
//! * [`experiments`] — one reproduction function per paper table/figure,
//!   dispatched by the `reproduce` binary.

pub mod ascii;
pub mod backtest;
pub mod experiments;
