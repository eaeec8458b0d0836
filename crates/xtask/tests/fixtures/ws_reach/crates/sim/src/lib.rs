//! Entry crate for the reachability-retirement fixture workspace.

pub fn run_batch(o: &Overlay) -> usize {
    hot(o)
}
