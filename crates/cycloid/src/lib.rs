//! # cycloid — a constant-degree hierarchical DHT overlay simulator
//!
//! Implements the Cycloid overlay of Shen, Xu & Chen (*Performance
//! Evaluation* 2006): `n = d·2^d` identifier slots arranged as `2^d`
//! **clusters** (small cycles of up to `d` nodes ordered by *cyclic index*)
//! that are themselves ordered by *cubical index* on one **large cycle** —
//! the cube-connected-cycles topology turned into a DHT.
//!
//! Each node keeps a constant number of links regardless of network size:
//!
//! * **inside leaf set** (2): predecessor and successor within its cluster,
//! * **outside leaf set** (2): the primary node of the preceding and the
//!   succeeding occupied cluster on the large cycle,
//! * **cubical neighbor** (1): the node nearest `(k-1, a XOR 2^k)` — one
//!   hypercube-bit repair per descending step,
//! * **cyclic neighbors** (2): the nodes nearest `(k-1, a ± 2^k)` —
//!   arithmetic jumps that halve large-cycle distance while descending,
//! * **primary link** (1): the current primary (largest cyclic index) of
//!   its own cluster, the entry point of the descending phase. (The
//!   original paper reaches the primary by walking the inside leaf set;
//!   caching it keeps the degree constant at 8 and matches the O(1)
//!   maintenance cost the paper assumes.)
//!
//! Routing is the protocol's three-phase scheme — *ascend* to the cluster
//! primary, *descend* resolving the cubical index with exponentially
//! shrinking jumps, then *traverse* inside the target cluster — with every
//! decision made from node-local state only and every hop traced.
//!
//! LORM (crate `lorm`) builds on the cluster structure: one cluster per
//! resource attribute, the intra-cluster ring partitioned into value
//! sectors by the locality-preserving hash.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod id;
mod network;
mod node;
mod routing;

pub use id::CycloidId;
pub use network::{ClusterMembers, Cycloid, CycloidConfig};
pub use node::CycloidNode;
