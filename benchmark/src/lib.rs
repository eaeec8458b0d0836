//! `lormbench`: the repository's benchmark. Five workloads over the four
//! discovery systems, eight end-to-end metrics measured untraced, and a
//! from-outside layer trace that yields 86 per-layer metrics. See
//! `README.md` in this directory.

pub mod api;
pub mod compare;
pub mod heap;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod oracle;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
