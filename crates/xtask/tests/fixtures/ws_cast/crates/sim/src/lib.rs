//! Entry crate for the cast-truncation fixture workspace.

pub fn run_batch(n: usize) -> u64 {
    widened(n) + u64::from(reachable_cast(n)) + u64::from(suppressed_cast(n))
}
