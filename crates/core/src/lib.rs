//! # lorm — Low-Overhead Range-query Multi-attribute resource discovery
//!
//! The paper's primary contribution (Shen & Apon & Xu, ICPADS 2007;
//! analyzed in the ICPP 2009 paper this workspace reproduces): a grid
//! resource discovery service built on a **single** hierarchical Cycloid
//! DHT that supports both multi-attribute and range queries with constant
//! per-node maintenance overhead.
//!
//! The idea in one paragraph: Cycloid identifiers are pairs
//! `(cyclic, cubical)`. LORM derives a resource identifier
//! `rescID = (ℋ(value), H(attribute))` — the consistent hash `H` selects
//! the **cluster** responsible for the attribute, and the
//! locality-preserving hash `ℋ` selects the **position inside the
//! cluster** by value. Every cluster is therefore a little ordered
//! directory for one attribute:
//!
//! * a **point query** is a single DHT lookup (`m` lookups for an
//!   `m`-attribute query, resolved in parallel and joined on `ip_addr`);
//! * a **range query** `[π1, π2]` is one lookup to `root(ℋ(π1))` followed
//!   by an intra-cluster successor walk to `root(ℋ(π2))` — at most `d`
//!   probes instead of the system-wide walks of Mercury/MAAN
//!   (Proposition 3.1 and Theorem 4.9);
//! * directory load spreads over the `d` nodes of the cluster instead of
//!   piling onto one node as in SWORD (Theorem 4.4).
//!
//! [`Lorm`] implements the [`grid_resource::ResourceDiscovery`] interface
//! used by the experiment harness; it can also be used directly as a
//! library, see the `quickstart` example at the workspace root.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod keys;
pub mod semantic;
mod system;

pub use grid_resource::QueryPlan;
pub use keys::{KeyDeriver, Placement};
pub use semantic::{SemanticCodec, SemanticDirectory};
pub use system::{Lorm, LormConfig};
