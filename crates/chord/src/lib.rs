//! # chord — a Chord DHT overlay simulator
//!
//! A faithful, message-level implementation of the Chord protocol
//! (Stoica et al., *IEEE/ACM ToN* 2003) over the 64-bit identifier ring of
//! `dht_core`. The paper under reproduction uses Chord as the substrate
//! for all three baseline systems: Mercury's per-attribute hubs, SWORD's
//! single flat DHT, and MAAN's single flat DHT.
//!
//! What is implemented:
//!
//! * successor/predecessor pointers, successor lists, and a full 64-entry
//!   finger table per node (distinct live fingers collapse, so the
//!   *distinct outlink* count is `O(log n)` — the quantity Figure 3(a)
//!   plots), stored as each row's top window of levels: the levels below
//!   repeat the window's first entry;
//! * greedy iterative routing via `closest_preceding_node`, tracing every
//!   hop, with dead-node skipping through the successor list;
//! * node join, graceful leave, and abrupt failure;
//! * `stabilize` / `fix_fingers` repair, run either per-node or
//!   network-wide (the simulator's clock tick);
//! * clockwise/counter-clockwise ring walks (used by Mercury and MAAN for
//!   range probing).
//!
//! Routing decisions use **only node-local state**. Global knowledge (the
//! live ring in id order) answers `owner_of`, whose readers are every
//! route's `exact` flag and every placement, leave handoff and replica
//! promotion, and serves fast network construction and repair.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod network;
mod node;
mod routing;

pub use network::{Chord, ChordConfig, SuccessorStaleness};
pub use node::ChordNode;
