//! `busnet-bench` is a benchmark-only crate: see `benches/` for the
//! Criterion harness that regenerates and times every paper table and
//! figure plus the ablation and kernel benches, and the CI timing gates.
//!
//! * `benches/tables.rs` — Tables 1–4 (prints paper-vs-measured rows).
//! * `benches/figures.rs` — Figures 2, 3, 5, 6 (prints ASCII charts).
//! * `benches/ablations.rs` — priority × buffering, reduced-chain scan
//!   readings, approximation variants.
//! * `benches/kernels.rs` — simulator cycle rate and solver scaling.
//! * `benches/hotpath.rs` — timing wheel vs heap queue, geometric and
//!   categorical sampling, work stealing, the fluid solve.
//! * `benches/gates.rs` — CI's wall-clock ratio gates (MMPP event
//!   throughput, supervision overhead); not Criterion, exits non-zero
//!   when a gate fails.

#![forbid(unsafe_code)]
