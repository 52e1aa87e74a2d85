//! `busnet` — reproduction of *"Analysis and Simulation of Multiplexed
//! Single-Bus Networks With and Without Buffering"* (Llaberia, Valero,
//! Herrada, Labarta — ISCA 1985).
//!
//! This facade crate re-exports the full public API of the workspace:
//!
//! * [`core`] — the system under study: cycle-accurate simulators
//!   (single bus with/without buffering, crossbar, multiple-bus) and the
//!   paper's analytic models (exact occupancy chain, combinational
//!   approximation, reduced `(i,c,e,b)` chain, product-form model).
//! * [`markov`] — Markov-chain substrate (state spaces, solvers,
//!   combinatorics).
//! * [`sim`] — cycle-level simulation kernel (statistics, seed streams,
//!   parallel execution).
//! * [`queueing`] — closed product-form queueing networks (MVA, Buzen).
//! * [`report`] — experiment registry regenerating every table and
//!   figure of the paper, plus the paper's printed reference data.
//!
//! # Quickstart
//!
//! Effective bandwidth of an 8-processor, 16-module system with `r = 8`
//! and priority to processors, by simulation and by the reduced model:
//!
//! ```
//! use busnet::core::params::{BusPolicy, SystemParams};
//! use busnet::core::sim::bus::BusSimBuilder;
//! use busnet::core::analytic::reduced::ReducedChain;
//!
//! let params = SystemParams::new(8, 16, 8)?;
//!
//! // Simulation (short run for the doctest).
//! let measured = BusSimBuilder::new(params)
//!     .policy(BusPolicy::ProcessorPriority)
//!     .seed(42)
//!     .warmup_cycles(2_000)
//!     .measure_cycles(20_000)
//!     .build()
//!     .run()
//!     .metrics();
//!
//! // Analytic reduced chain.
//! let model = ReducedChain::new(params).ebw()?;
//!
//! assert!((measured.ebw - model).abs() / model < 0.10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use busnet_core as core;
pub use busnet_markov as markov;
pub use busnet_queueing as queueing;
pub use busnet_report as report;
pub use busnet_sim as sim;
