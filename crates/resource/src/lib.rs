//! # grid-resource — grid resource model, workloads and churn
//!
//! The vocabulary of the paper's evaluation (§V), shared by LORM and the
//! three baseline systems:
//!
//! * [`model`] — attributes with bounded value domains, resource
//!   information 3-tuples `⟨a, π_a, ip_addr⟩`, and multi-attribute
//!   point/range queries;
//! * [`workload`] — the synthetic workload of §V: `m = 200` attributes,
//!   `k = 500` values per attribute, values drawn Bounded-Pareto or
//!   uniformly, range queries whose expected walk covers a quarter of the
//!   value domain (the paper's average-case assumption in Theorem 4.9);
//! * [`churn`] — Poisson join/departure schedules with rate `R`
//!   (§V.C models churn "as in \[12\]", i.e. the Chord paper);
//! * [`discovery`] — the `ResourceDiscovery` trait: the narrow interface
//!   the experiment engine drives, implemented by `lorm` and by
//!   `baselines::{Mercury, Sword, Maan}`;
//! * [`host`] — the store path those systems share: one overlay with a
//!   directory and a replica store per node (`Host<O>`), and the
//!   physical-node map (`PhysMap`);
//! * [`planner`] — trait-level multi-attribute query plans
//!   (`Parallel | Sequential | Adaptive`) with candidate-set threading
//!   and a zero-allocation sorted-merge intersection;
//! * [`selectivity`] — deterministic per-attribute equi-width value
//!   histograms feeding the adaptive plan's most-selective-first order.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod churn;
pub mod directory;
pub mod discovery;
pub mod host;
pub mod model;
pub mod planner;
pub mod replication;
pub mod selectivity;
pub mod workload;

pub use churn::{ChurnEvent, ChurnKind, ChurnSchedule};
pub use directory::Directory;
pub use discovery::{FaultyOutcome, QueryMode, QueryOutcome, ResourceDiscovery, SubState};
pub use host::{Host, PhysMap};
pub use model::{AttrId, AttributeSpace, Query, ResourceInfo, SubQuery, ValueTarget};
pub use planner::{intersect_sorted, QueryPlan};
pub use replication::{canonicalize_pieces, count_surviving, PieceKey, ReplicaEntry, ReplicaStore};
pub use selectivity::SelectivityEstimator;
pub use workload::{AttrPopularity, QueryMix, ValueDist, Workload, WorkloadConfig};
