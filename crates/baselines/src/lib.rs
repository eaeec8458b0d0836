//! # baselines — the three comparator systems of the paper
//!
//! Faithful implementations of the representatives the paper compares
//! LORM against (§IV), all built on the `chord` overlay as the paper
//! prescribes ("we use Chord for attribute hubs in Mercury, and we replace
//! Bamboo DHT with Chord in SWORD"):
//!
//! * [`Mercury`] — **multi-DHT**: one Chord *hub* per attribute; every
//!   physical node joins every hub; within a hub, reports are placed by
//!   the locality-preserving hash of their value, so a range query walks
//!   successors system-wide. Routing state costs `m × O(log n)` links per
//!   physical node (Theorem 4.1) but information spreads most evenly
//!   (Theorem 4.5).
//! * [`Sword`] — **single-DHT centralized**: one Chord; a report is stored
//!   at `root(H(attribute))`, pooling *all* information of an attribute on
//!   one directory node. Range queries stop at the root (1 visited node)
//!   at the price of the worst load imbalance (Theorem 4.4).
//! * [`Maan`] — **single-DHT decentralized**: one Chord; every report is
//!   registered twice — under `H(attribute)` and under the global
//!   locality-preserving value hash — doubling stored information
//!   (Theorem 4.2) and requiring two lookups per sub-query
//!   (Theorems 4.7/4.8); range queries walk the value ring system-wide.
//!
//! Per §IV, the pointer-indirection optimization (store the record in one
//! hub, pointers elsewhere) is deliberately **not** applied to any system,
//! to keep the comparison like-for-like with the paper.
//!
//! A fifth system, [`CompositeFlat`], is **ours**, not the paper's: LORM's
//! composite index emulated on a flat Chord, used by the `flatlorm`
//! ablation to isolate what Cycloid's hierarchy actually buys.
//!
//! All four are one struct, [`ChordSystem`] — Chord ring(s) with a
//! directory on every node ([`ChordHost`]) and one `ResourceDiscovery`
//! body — under four [`KeyScheme`]s, each of which states only which
//! key(s) a piece is stored and looked up under.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod composite;
mod host;
mod maan;
mod mercury;
mod sword;
mod system;

pub use composite::{CompositeConfig, CompositeFlat, CompositeScheme};
pub use host::ChordHost;
pub use maan::{Maan, MaanConfig, MaanScheme};
pub use mercury::{Mercury, MercuryConfig, MercuryScheme};
pub use sword::{Sword, SwordConfig, SwordScheme};
pub use system::{ChordSystem, KeyScheme};
