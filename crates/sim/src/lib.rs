//! # sim — the experiment engine
//!
//! Mounts the four discovery systems (LORM, Mercury, SWORD, MAAN) on a
//! shared synthetic grid population, drives the paper's workloads and
//! churn schedules against them, and collects exactly the metrics each
//! figure of the evaluation section reports:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`experiments::fig3`] | Fig. 3(a) outlinks vs size; Fig. 3(b–d) directory-size distributions |
//! | [`experiments::fig4`] | Fig. 4(a,b) logical hops of non-range multi-attribute queries |
//! | [`experiments::fig5`] | Fig. 5(a,b) visited nodes of range queries |
//! | [`experiments::fig6`] | Fig. 6(a,b) both metrics under Poisson churn |
//! | [`experiments::worstcase`] | Theorem 4.10's worst-case contacted-node bound |
//! | [`experiments::ablation`] | design-choice ablations (value skew, LPH vs modulo, leaf sets) |
//! | [`experiments::chaos`] | (extension) success rate / hop inflation under injected faults |
//!
//! Every experiment returns a plain result struct whose `report()` builds
//! a [`Report`] of the same rows/series the paper plots, alongside the
//! matching "Analysis-…" overlay derived from the `analysis` crate — the
//! repro binary in `crates/bench` just prints it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod experiments;
pub mod report;
pub mod setup;
pub mod table;

pub use cache::BedCache;
pub use report::Report;
pub use setup::{build_system, SimConfig, TestBed};
pub use table::Table;
