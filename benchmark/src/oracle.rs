//! Brute-force ground truth: a per-attribute value-sorted index over the
//! report list, built by the benchmark and consulted outside every timed
//! span. It knows nothing of overlays, keys or directories.

use crate::api::{Query, ResourceInfo, SubQuery, ValueTarget};

/// `(value, position in the report list, owner)` per attribute, sorted.
pub struct Oracle {
    by_attr: Vec<Vec<(f64, usize, usize)>>,
}

impl Oracle {
    /// Index `reports` over `num_attrs` attributes.
    pub fn new(num_attrs: usize, reports: &[ResourceInfo]) -> Self {
        let mut by_attr = vec![Vec::new(); num_attrs];
        for (pos, r) in reports.iter().enumerate() {
            by_attr[r.attr.0 as usize].push((r.value, pos, r.owner));
        }
        for column in &mut by_attr {
            column.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
        Self { by_attr }
    }

    /// Reports among the first `prefix` that satisfy `sub`.
    fn matching(&self, sub: &SubQuery, prefix: usize) -> impl Iterator<Item = usize> + '_ {
        let (low, high) = match sub.target {
            ValueTarget::Point(v) => (v, v),
            ValueTarget::Range { low, high } => (low, high),
        };
        let column = &self.by_attr[sub.attr.0 as usize];
        let start = column.partition_point(|e| e.0 < low);
        column[start..]
            .iter()
            .take_while(move |e| e.0 <= high)
            .filter(move |e| e.1 < prefix)
            .map(|e| e.2)
    }

    /// Pieces a complete answer to `sub` ships.
    pub fn pieces_of_sub(&self, sub: &SubQuery, prefix: usize) -> usize {
        self.matching(sub, prefix).count()
    }

    /// Pieces a complete parallel answer to `q` ships.
    pub fn pieces(&self, q: &Query, prefix: usize) -> usize {
        q.subs.iter().map(|s| self.pieces_of_sub(s, prefix)).sum()
    }

    /// Owners satisfying `sub`, sorted and distinct.
    pub fn owners_of_sub(&self, sub: &SubQuery, prefix: usize) -> Vec<usize> {
        let mut owners: Vec<usize> = self.matching(sub, prefix).collect();
        owners.sort_unstable();
        owners.dedup();
        owners
    }

    /// Owners satisfying every sub-query of `q`, sorted and distinct.
    pub fn owners(&self, q: &Query, prefix: usize) -> Vec<usize> {
        let mut subs = q.subs.iter();
        let Some(first) = subs.next() else { return Vec::new() };
        let mut acc = self.owners_of_sub(first, prefix);
        for sub in subs {
            let other = self.owners_of_sub(sub, prefix);
            acc.retain(|o| other.binary_search(o).is_ok());
        }
        acc
    }

    /// Is `answer` (in any order) exactly the owner set of `q`?
    pub fn check(&self, q: &Query, prefix: usize, answer: &[usize]) -> bool {
        let mut got = answer.to_vec();
        got.sort_unstable();
        got == self.owners(q, prefix)
    }
}
