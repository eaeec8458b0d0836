//! Per-node directory storage, indexed by attribute and ordered by value.
//!
//! Every discovery system keeps a directory on each node: the resource
//! information pieces the node is root of. Directory checks during range
//! probes filter by attribute first and by value second, so the store
//! buckets pieces per attribute and keeps each bucket in value order — a
//! probed node answers a sub-query with a binary search for the target's
//! lower bound and a copy that stops at its upper bound, in time
//! proportional to its *matching* pieces, not its bucket or its total
//! load (exactly like the inverted index a real directory node would
//! keep). SWORD pools a whole attribute on one root (Theorem 4.4), so its
//! point queries are where a scan of the bucket and a search of it differ
//! most.
//!
//! # Order
//!
//! A bucket is ordered by the total key `(value, owner)`: numbers
//! ascending (`-0.0` just before `0.0`), then every NaN of either sign —
//! a NaN never matches a target, and a leading negative NaN would break
//! the monotone predicate the binary search relies on. What a directory
//! iterates, drains and answers is therefore a pure function of the
//! multiset it holds, whatever sequence of [`Directory::push`] and
//! [`Directory::bulk_load`] calls built it.
//!
//! # Registration
//!
//! Keeping one sorted `Vec` would make every routed registration shift
//! half a fat bucket. A bucket is instead two ascending runs: a sealed
//! run, and a tail of at most `TAIL_MAX` (256) pieces that `push`
//! binary-inserts into. When the tail outgrows the bound the two runs are
//! merged by one stable sort (linear on two runs); reads search both.

use crate::model::{AttrId, ResourceInfo, ValueTarget};

/// Most pieces a bucket's tail holds before it is merged into the sealed
/// run: a `push` moves at most this many pieces (6 KB), a read searches
/// one extra run this long, and a fat bucket pays its linear merge once
/// per this many registrations. Chosen from the measurements in
/// EXPERIMENTS.md § "Value-ordered directories (PR 24)".
const TAIL_MAX: u32 = 256;

/// Order-preserving integer image of a value: `-∞` is 0, numbers ascend
/// (`-0.0` just before `0.0`), and every NaN of either sign lies above
/// `+∞`. Injective, so no two distinct bit patterns tie.
fn value_key(value: f64) -> u64 {
    let bits = value.to_bits();
    // `f64::total_cmp`'s order as an unsigned integer ...
    let ordered = if bits >> 63 == 0 { bits | 1 << 63 } else { !bits };
    // ... rotated so the negative NaNs, which it puts below `-∞`, wrap
    // around past the positive ones.
    ordered.wrapping_sub(!f64::NEG_INFINITY.to_bits())
}

/// The key a directory's pieces are stored by: attribute bucket first,
/// then the bucket's total order `(value, owner)`.
pub(crate) fn sort_key(r: &ResourceInfo) -> (u32, u64, usize) {
    (r.attr.0, value_key(r.value), r.owner)
}

/// One attribute's pieces, as two runs each ascending under [`sort_key`].
#[derive(Debug, Clone)]
struct Bucket {
    attr: u32,
    /// Length of the tail run: `pieces[..len - tail]` is the sealed run,
    /// `pieces[len - tail..]` the tail registrations insert into.
    tail: u32,
    pieces: Vec<ResourceInfo>,
}

impl Bucket {
    /// The sealed run and the tail.
    fn runs(&self) -> [&[ResourceInfo]; 2] {
        let (sealed, tail) = self.pieces.split_at(self.pieces.len() - self.tail as usize);
        [sealed, tail]
    }

    fn push(&mut self, info: ResourceInfo) {
        let [sealed, tail] = self.runs();
        let key = sort_key(&info);
        let at = sealed.len() + tail.partition_point(|r| sort_key(r) <= key);
        self.pieces.insert(at, info);
        self.tail += 1;
        if self.tail > TAIL_MAX {
            self.seal();
        }
    }

    /// Merge the tail into the sealed run (the stable sort recognises the
    /// two runs and merges them in linear time).
    fn seal(&mut self) {
        self.pieces.sort_by_key(sort_key);
        self.tail = 0;
    }

    /// Both runs merged into the bucket's one order.
    fn iter(&self) -> impl Iterator<Item = &ResourceInfo> {
        let [mut sealed, mut tail] = self.runs();
        std::iter::from_fn(move || {
            let from_tail = match (sealed.first(), tail.first()) {
                (Some(s), Some(t)) => sort_key(t) < sort_key(s),
                (None, _) => true,
                (Some(_), None) => false,
            };
            let run = if from_tail { &mut tail } else { &mut sealed };
            let (head, rest) = run.split_first()?;
            *run = rest;
            Some(head)
        })
    }
}

/// One node's directory: resource information bucketed by attribute and
/// ordered by value within a bucket (see the module docs for the order
/// and the two-run layout).
///
/// Buckets live in a flat table sorted by attribute id, so that
/// [`Directory::drain`] and [`Directory::iter`] walk attributes in a
/// fixed order — departure handoffs and inspection must not depend on
/// per-process hasher state. The flat layout also makes cloning a
/// directory (the bed-snapshot hot path) a handful of contiguous
/// `memcpy`s instead of a node-by-node tree rebuild; lookups are a
/// binary search over at most `m` attribute buckets.
///
/// The table is a boxed slice holding exactly its buckets: a 16 B header
/// on every node of every ring (most of which store nothing), and no
/// spare bucket behind it. [`Directory::push`] grows it by one bucket;
/// [`Directory::bulk_load`] grows it once per call, by the batch's new
/// attributes.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    /// Buckets in strictly ascending attribute order, none empty.
    by_attr: Box<[Bucket]>,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket(&self, attr: u32) -> Option<&Bucket> {
        self.by_attr.binary_search_by_key(&attr, |b| b.attr).ok().map(|i| &self.by_attr[i])
    }

    /// The bucket of `attr`, created empty if absent — the caller fills
    /// it. Creating one reallocates the table to hold exactly one more.
    fn bucket_mut(&mut self, attr: u32) -> &mut Bucket {
        let i = self.by_attr.binary_search_by_key(&attr, |b| b.attr).unwrap_or_else(|i| {
            self.add_buckets(std::iter::once(attr));
            i
        });
        &mut self.by_attr[i]
    }

    /// Add an empty bucket for each of `attrs` not yet present, counting
    /// them first so the table is reallocated once, to exactly its new
    /// size.
    fn add_buckets(&mut self, attrs: impl Iterator<Item = u32> + Clone) {
        let new = attrs.clone().filter(|&attr| self.bucket(attr).is_none()).count();
        if new == 0 {
            return;
        }
        let mut table = std::mem::take(&mut self.by_attr).into_vec();
        table.reserve_exact(new);
        for attr in attrs {
            if let Err(i) = table.binary_search_by_key(&attr, |b| b.attr) {
                table.insert(i, Bucket { attr, tail: 0, pieces: Vec::new() });
            }
        }
        self.by_attr = table.into_boxed_slice();
    }

    /// Store one piece (the runtime path of an individual registration).
    pub fn push(&mut self, info: ResourceInfo) {
        self.bucket_mut(info.attr.0).push(info);
    }

    /// Store a batch of pieces in one pass.
    ///
    /// Observationally identical to pushing the pieces one by one in any
    /// order, but built with one sort of the batch and one merge per
    /// attribute it touches. Bed construction hands each node its whole
    /// placement batch through this path.
    pub fn bulk_load(&mut self, mut batch: Vec<ResourceInfo>) {
        batch.sort_unstable_by_key(sort_key);
        self.load_sorted(&batch);
    }

    /// Store a batch already ascending under [`sort_key`]. The bucket
    /// table grows once per call, by the batch's new attributes.
    pub(crate) fn load_sorted(&mut self, batch: &[ResourceInfo]) {
        debug_assert!(batch.is_sorted_by_key(sort_key));
        let runs = || batch.chunk_by(|a, b| a.attr == b.attr);
        self.add_buckets(runs().map(|run| run[0].attr.0));
        for run in runs() {
            let bucket = self.bucket_mut(run[0].attr.0);
            // Grow to the capacity the same pieces would have reached
            // arriving one by one, so the registrations that follow a
            // placement round do not each start with a reallocation.
            let held = bucket.pieces.len();
            bucket.pieces.reserve_exact((held + run.len()).next_power_of_two() - held);
            bucket.pieces.extend_from_slice(run);
            bucket.seal();
        }
    }

    /// Total stored pieces: the sum of the bucket lengths, O(m).
    pub fn len(&self) -> usize {
        self.by_attr.iter().map(|b| b.pieces.len()).sum()
    }

    /// True when nothing is stored (no bucket is ever empty).
    pub fn is_empty(&self) -> bool {
        self.by_attr.is_empty()
    }

    /// Remove and return everything (departure handoff), in the order
    /// [`Directory::iter`] yields.
    pub fn drain(&mut self) -> Vec<ResourceInfo> {
        let mut out = Vec::with_capacity(self.len());
        for mut bucket in std::mem::take(&mut self.by_attr) {
            bucket.seal();
            out.append(&mut bucket.pieces);
        }
        out
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.by_attr = Box::default();
    }

    /// Owners of pieces matching `(attr, target)` — the directory check a
    /// probed node performs.
    pub fn matching_owners(&self, attr: AttrId, target: &ValueTarget) -> Vec<usize> {
        let mut out = Vec::new();
        self.matching_owners_into(attr, target, &mut out);
        out
    }

    /// Append matching owners into `out` — the allocation-free variant the
    /// query hot loops use, so one scratch buffer serves every probed node
    /// of a sub-query. The same multiset as filtering the bucket with
    /// [`ValueTarget::matches`]: per run, a lower-bound search and a copy
    /// that stops past the upper bound (a second search would cost a
    /// point query more than the few matches it skips). Owners arrive in
    /// no order callers may rely on.
    pub fn matching_owners_into(&self, attr: AttrId, target: &ValueTarget, out: &mut Vec<usize>) {
        let (low, high) = match *target {
            ValueTarget::Point(p) => (p, p),
            ValueTarget::Range { low, high } => (low, high),
        };
        // A NaN bound matches nothing, and `<` against one would not
        // partition the run.
        if low.is_nan() {
            return;
        }
        let Some(bucket) = self.bucket(attr.0) else {
            return;
        };
        for run in bucket.runs() {
            let from = run.partition_point(|r| r.value < low);
            out.extend(run[from..].iter().take_while(|r| r.value <= high).map(|r| r.owner));
        }
    }

    /// Iterate over all stored pieces (inspection, replication, tests):
    /// ascending attribute, and the bucket's `(value, owner)` order within
    /// one.
    pub fn iter(&self) -> impl Iterator<Item = &ResourceInfo> {
        self.by_attr.iter().flat_map(Bucket::iter)
    }

    /// Does the directory hold any piece of this attribute?
    pub fn has_attr(&self, attr: AttrId) -> bool {
        self.bucket(attr.0).is_some()
    }

    /// Is an identical piece already stored? Used by replica promotion to
    /// avoid double-storing a piece the new owner already received via a
    /// graceful handoff. Binary searches to the pieces of equal value in
    /// each run, then compares those (`==` on pieces equates `-0.0` with
    /// `0.0`, which the stored order tells apart).
    pub fn contains(&self, info: &ResourceInfo) -> bool {
        self.bucket(info.attr.0).is_some_and(|bucket| {
            bucket.runs().iter().any(|run| {
                let from = run.partition_point(|r| r.value < info.value);
                run[from..].iter().take_while(|r| r.value == info.value).any(|r| r == info)
            })
        })
    }

    /// What must hold after every mutating operation: buckets strictly
    /// ascending by attribute and none empty, and both runs of every bucket
    /// ascending under the total key. O(len).
    pub fn check_invariants(&self) -> Result<(), String> {
        if !self.by_attr.is_sorted_by(|a, b| a.attr < b.attr) {
            return Err("attribute buckets out of order".into());
        }
        for b in &self.by_attr {
            if b.pieces.is_empty() {
                return Err(format!("empty bucket for attribute {}", b.attr));
            }
            if b.runs().iter().any(|run| !run.is_sorted_by_key(sort_key)) {
                return Err(format!("attribute {} bucket out of value order", b.attr));
            }
            if b.pieces.iter().any(|r| r.attr.0 != b.attr) {
                return Err(format!("attribute {} bucket holds a foreign piece", b.attr));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(attr: u32, value: f64, owner: usize) -> ResourceInfo {
        ResourceInfo { attr: AttrId(attr), value, owner }
    }

    #[test]
    fn push_and_len() {
        let mut d = Directory::new();
        assert!(d.is_empty());
        d.push(info(1, 2.0, 3));
        d.push(info(1, 4.0, 5));
        d.push(info(2, 2.0, 6));
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn matching_filters_by_attr_and_value() {
        let mut d = Directory::new();
        d.push(info(1, 10.0, 3));
        d.push(info(1, 20.0, 4));
        d.push(info(2, 10.0, 5));
        let m = d.matching_owners(AttrId(1), &ValueTarget::Range { low: 5.0, high: 15.0 });
        assert_eq!(m, vec![3]);
        let none = d.matching_owners(AttrId(9), &ValueTarget::Point(10.0));
        assert!(none.is_empty());
    }

    #[test]
    fn drain_returns_everything_and_empties() {
        let mut d = Directory::new();
        d.push(info(1, 1.0, 1));
        d.push(info(2, 2.0, 2));
        let mut out = d.drain();
        out.sort_by_key(|r| r.attr);
        assert_eq!(out.len(), 2);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn clear_resets() {
        let mut d = Directory::new();
        d.push(info(1, 1.0, 1));
        d.clear();
        assert!(d.is_empty());
        assert!(!d.has_attr(AttrId(1)));
    }

    #[test]
    fn iter_sees_all_pieces() {
        let mut d = Directory::new();
        d.push(info(1, 1.0, 1));
        d.push(info(2, 2.0, 2));
        assert_eq!(d.iter().count(), 2);
    }

    #[test]
    fn order_is_a_function_of_the_multiset() {
        // Ascending attribute, then (value, owner) — however the pieces
        // arrived. This is also what rules out a hash-seeded bucket map.
        let pieces = [
            (7, 2.0, 1),
            (2, 5.0, 2),
            (9, 1.0, 3),
            (2, 5.0, 0),
            (7, 1.0, 5),
            (0, 3.0, 6),
            (2, 4.0, 9),
        ]
        .map(|(attr, value, owner)| info(attr, value, owner));
        let want = vec![6, 9, 0, 2, 5, 1, 3];
        let owners = |d: &Directory| d.iter().map(|r| r.owner).collect::<Vec<_>>();
        let mut pushed = Directory::new();
        pieces.iter().for_each(|&p| pushed.push(p));
        let mut reversed = Directory::new();
        pieces.iter().rev().for_each(|&p| reversed.push(p));
        let mut bulk = Directory::new();
        bulk.bulk_load(pieces.to_vec());
        for d in [&pushed, &reversed, &bulk] {
            assert_eq!(owners(d), want);
            assert_eq!(d.check_invariants(), Ok(()));
        }
        let drained: Vec<usize> = bulk.drain().into_iter().map(|r| r.owner).collect();
        assert_eq!(drained, want);
    }

    #[test]
    fn bulk_load_merges_into_existing_buckets() {
        let first = [(7, 1), (2, 2), (9, 3), (2, 4), (7, 5), (0, 6)];
        let more = [(5, 7), (2, 8), (11, 9), (0, 10)];
        let piece = |(attr, owner): (u32, usize)| info(attr, (owner % 3) as f64, owner);
        let mut seq = Directory::new();
        let mut bulk = Directory::new();
        first.iter().chain(&more).for_each(|&p| seq.push(piece(p)));
        bulk.bulk_load(first.map(piece).to_vec());
        bulk.bulk_load(more.map(piece).to_vec());
        bulk.bulk_load(Vec::new());
        assert_eq!(seq.len(), bulk.len());
        assert_eq!(seq.iter().collect::<Vec<_>>(), bulk.iter().collect::<Vec<_>>());
        assert_eq!(bulk.check_invariants(), Ok(()));
    }

    #[test]
    fn len_is_empty_and_iter_agree_over_random_sequences() {
        // `len` is summed from the buckets, so nothing cross-checks it but
        // this: seeded push / bulk_load / drain / clear sequences against a
        // plain count of the pieces held.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut merges = 0;
        for seed in 0..20 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut d = Directory::new();
            let mut held = 0;
            for step in 0..200 {
                let piece = |rng: &mut SmallRng| {
                    info(rng.gen_range(0..12), f64::from(rng.gen_range(0..9u8)), step)
                };
                match rng.gen_range(0..10) {
                    0..=4 => {
                        d.push(piece(&mut rng));
                        held += 1;
                    }
                    5..=7 => {
                        let len = rng.gen_range(0..8);
                        let batch: Vec<ResourceInfo> = (0..len).map(|_| piece(&mut rng)).collect();
                        let new = batch.iter().filter(|r| !d.has_attr(r.attr)).count();
                        merges += usize::from(new > 0 && !d.is_empty());
                        held += batch.len();
                        d.bulk_load(batch);
                    }
                    8 => assert_eq!(std::mem::take(&mut held), d.drain().len(), "seed {seed}"),
                    _ => {
                        d.clear();
                        held = 0;
                    }
                }
                assert_eq!(d.len(), held, "seed {seed} step {step}");
                assert_eq!(d.is_empty(), held == 0, "seed {seed} step {step}");
                assert_eq!(d.iter().count(), held, "seed {seed} step {step}");
                assert_eq!(d.check_invariants(), Ok(()), "seed {seed} step {step}");
            }
        }
        assert!(merges > 100, "only {merges} bulk loads added attributes to a non-empty directory");
    }

    #[test]
    fn reads_see_the_sealed_run_and_the_tail() {
        // Three times the tail bound, pushed in descending value order:
        // every read must combine a sealed run with a non-empty tail.
        let n = 3 * TAIL_MAX as usize + 7;
        let mut d = Directory::new();
        for i in (0..n).rev() {
            d.push(info(1, (i / 2) as f64, i));
            assert_eq!(d.check_invariants(), Ok(()));
        }
        assert_eq!(d.iter().map(|r| r.owner).collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
        let mut hit = d.matching_owners(AttrId(1), &ValueTarget::Range { low: 3.0, high: 40.0 });
        hit.sort_unstable();
        assert_eq!(hit, (6..82).collect::<Vec<_>>());
        assert_eq!(d.matching_owners(AttrId(1), &ValueTarget::Point(0.0)).len(), 2);
        assert!(d.contains(&info(1, 0.0, 1)) && !d.contains(&info(1, 0.0, 2)));
    }

    #[test]
    fn nan_and_signed_zero_follow_value_target() {
        let mut d = Directory::new();
        for (value, owner) in [(-f64::NAN, 1), (0.0, 2), (f64::NAN, 3), (-0.0, 4), (-1.0, 5)] {
            d.push(info(1, value, owner));
        }
        assert_eq!(d.check_invariants(), Ok(()));
        assert_eq!(d.iter().map(|r| r.owner).collect::<Vec<_>>(), vec![5, 4, 2, 3, 1]);
        let owners = |t| d.matching_owners(AttrId(1), &t);
        assert_eq!(owners(ValueTarget::Point(0.0)), vec![4, 2]);
        assert_eq!(owners(ValueTarget::Point(f64::NAN)), vec![]);
        assert_eq!(owners(ValueTarget::Range { low: f64::NAN, high: 9.0 }), vec![]);
        assert_eq!(owners(ValueTarget::Range { low: -9.0, high: f64::NAN }), vec![]);
        assert_eq!(owners(ValueTarget::Range { low: 9.0, high: -9.0 }), vec![]);
        assert_eq!(owners(ValueTarget::Range { low: -9.0, high: 9.0 }), vec![5, 4, 2]);
        assert!(d.contains(&info(1, -0.0, 2)), "`==` on pieces equates the zeros");
        assert!(!d.contains(&info(1, f64::NAN, 3)), "NaN equals nothing");
    }

    #[test]
    fn contains_checks_exact_piece() {
        let mut d = Directory::new();
        d.push(info(7, 1.0, 1));
        assert!(d.contains(&info(7, 1.0, 1)));
        assert!(!d.contains(&info(7, 1.0, 2)), "different owner");
        assert!(!d.contains(&info(7, 2.0, 1)), "different value");
        assert!(!d.contains(&info(8, 1.0, 1)), "different attribute");
    }

    #[test]
    fn has_attr() {
        let mut d = Directory::new();
        d.push(info(7, 1.0, 1));
        assert!(d.has_attr(AttrId(7)));
        assert!(!d.has_attr(AttrId(8)));
    }
}
