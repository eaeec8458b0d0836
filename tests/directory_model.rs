//! Model test of the value-ordered [`Directory`] (PR 24): random
//! interleavings of `push` / `bulk_load` / `drain` / `clear` against a
//! plain `Vec<ResourceInfo>` that answers by filtering with
//! [`ValueTarget::matches`].
//!
//! The directory keeps each attribute bucket as two ascending runs and
//! answers with binary searches; the model keeps arrival order and scans.
//! They must agree on `matching_owners` (as multisets) for every point and
//! range target over a value pool with duplicates, `-0.0` / `0.0`, the
//! infinities and NaN of both signs — bounds on, between and outside the
//! stored values, `low == high`, inverted and NaN bounds — and on
//! `contains`, `len`, `is_empty` and `has_attr`; and `iter()` must be the
//! model sorted by the bucket's total key, whatever order the pieces
//! arrived in and whichever of `push` and `bulk_load` carried them.
//! Batch sizes straddle the bucket's tail bound (`TAIL_MAX` = 256 in
//! `crates/resource/src/directory.rs`): fewer, exactly, one more, and
//! several times as many.
//!
//! Runs in tier-1 (`cargo test -q`, facade package).

use lorm_repro::grid_resource::Directory;
use lorm_repro::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The directory's tail bound; sizes below are chosen around it.
const TAIL: usize = 256;
const ATTRS: u32 = 3;
const OWNERS: usize = 4;

/// Stored and queried values: a short grid (so values, and whole pieces,
/// repeat), both zeros, both infinities, NaN of both signs.
fn pool() -> [f64; 11] {
    let inf = f64::INFINITY;
    [-inf, -2.0, -0.0, 0.0, 1.0, 1.5, 2.0, 3.0, inf, f64::NAN, -f64::NAN]
}

/// Bounds that fall between and outside the stored values.
const OFF_GRID: [f64; 4] = [-5.0, 0.5, 2.5, 9.0];

fn piece((attr, value, owner): (u32, usize, usize)) -> ResourceInfo {
    ResourceInfo { attr: AttrId(attr), value: pool()[value], owner }
}

fn any_piece() -> impl Strategy<Value = ResourceInfo> {
    (0..ATTRS, 0..pool().len(), 0..OWNERS).prop_map(piece)
}

/// The order `Directory::iter` promises: ascending attribute; numbers in
/// `total_cmp` order (`-0.0` before `0.0`), then every NaN, positive sign
/// first; ties broken by owner.
fn total_key(r: &ResourceInfo) -> (u32, bool, bool, i64, usize) {
    let nan = r.value.is_nan();
    let bits = r.value.to_bits() as i64;
    // `f64::total_cmp`'s integer image
    let ordered = bits ^ (((bits >> 63) as u64) >> 1) as i64;
    (r.attr.0, nan, nan && r.value.is_sign_negative(), ordered, r.owner)
}

/// Pieces as comparable bit patterns (`==` on `f64` cannot tell the zeros
/// apart and never equates a NaN).
fn bits<'a>(pieces: impl IntoIterator<Item = &'a ResourceInfo>) -> Vec<(u32, u64, usize)> {
    pieces.into_iter().map(|r| (r.attr.0, r.value.to_bits(), r.owner)).collect()
}

fn sorted_model(model: &[ResourceInfo]) -> Vec<(u32, u64, usize)> {
    let mut sorted = model.to_vec();
    sorted.sort_by_key(total_key);
    bits(&sorted)
}

/// Every observation of `dir` equals the same observation of `model`.
fn agree(dir: &Directory, model: &[ResourceInfo]) -> Result<(), TestCaseError> {
    prop_assert_eq!(dir.check_invariants(), Ok(()));
    prop_assert_eq!(dir.len(), model.len());
    prop_assert_eq!(dir.is_empty(), model.is_empty());
    prop_assert_eq!(bits(dir.iter()), sorted_model(model));
    let bounds: Vec<f64> = pool().into_iter().chain(OFF_GRID).collect();
    for attr in (0..=ATTRS).map(AttrId) {
        prop_assert_eq!(dir.has_attr(attr), model.iter().any(|r| r.attr == attr));
        let targets = bounds.iter().map(|&p| ValueTarget::Point(p)).chain(
            bounds
                .iter()
                .flat_map(|&low| bounds.iter().map(move |&high| ValueTarget::Range { low, high })),
        );
        for target in targets {
            let mut got = dir.matching_owners(attr, &target);
            let mut want: Vec<usize> = model
                .iter()
                .filter(|r| r.attr == attr && target.matches(r.value))
                .map(|r| r.owner)
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want, "attribute {} target {:?}", attr, target);
        }
        for value in pool() {
            for owner in 0..=OWNERS {
                let probe = ResourceInfo { attr, value, owner };
                prop_assert_eq!(dir.contains(&probe), model.contains(&probe), "{:?}", probe);
            }
        }
    }
    Ok(())
}

#[derive(Debug, Clone)]
enum Op {
    Push(ResourceInfo),
    Bulk(Vec<ResourceInfo>),
    Drain,
    Clear,
}

fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        12 => any_piece().prop_map(Op::Push),
        // short batches, and batches that outgrow the tail on their own
        3 => prop::collection::vec(any_piece(), 0..8).prop_map(Op::Bulk),
        1 => prop::collection::vec(any_piece(), TAIL..2 * TAIL).prop_map(Op::Bulk),
        1 => Just(Op::Drain),
        1 => Just(Op::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn directory_agrees_with_a_filtered_vec(ops in prop::collection::vec(any_op(), 1..64)) {
        let mut dir = Directory::new();
        let mut model: Vec<ResourceInfo> = Vec::new();
        for op in ops {
            match op {
                Op::Push(r) => {
                    dir.push(r);
                    model.push(r);
                }
                Op::Bulk(batch) => {
                    model.extend(&batch);
                    dir.bulk_load(batch);
                }
                Op::Drain => {
                    prop_assert_eq!(bits(&dir.drain()), sorted_model(&model));
                    model.clear();
                }
                Op::Clear => {
                    dir.clear();
                    model.clear();
                }
            }
            agree(&dir, &model)?;
        }
    }

    /// Few enough pieces to try *every* arrival order.
    #[test]
    fn every_permutation_of_a_small_batch_yields_one_directory(
        batch in prop::collection::vec(any_piece(), 0..6),
    ) {
        let want = sorted_model(&batch);
        let mut order = batch.clone();
        // Heap's algorithm, iterative
        let mut c = vec![0usize; order.len()];
        let mut i = 0;
        loop {
            let mut dir = Directory::new();
            order.iter().for_each(|&r| dir.push(r));
            prop_assert_eq!(bits(dir.iter()), want.clone(), "arrival order {:?}", order);
            while i < order.len() && c[i] >= i {
                c[i] = 0;
                i += 1;
            }
            if i >= order.len() {
                break;
            }
            order.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
            c[i] += 1;
            i = 0;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One attribute, so the whole batch shares a bucket and its size is
    /// the bucket's: below, at, just past and several times the tail bound.
    #[test]
    fn order_and_answers_ignore_arrival_order_across_the_tail_bound(
        size in prop_oneof![
            2 => 0..TAIL,
            1 => Just(TAIL),
            1 => Just(TAIL + 1),
            2 => 2 * TAIL..4 * TAIL
        ],
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut batch: Vec<ResourceInfo> = (0..size)
            .map(|_| piece((0, rng.gen_range(0..pool().len()), rng.gen_range(0..OWNERS))))
            .collect();
        let want = sorted_model(&batch);
        let mut bulk = Directory::new();
        bulk.bulk_load(batch.clone());
        agree(&bulk, &batch)?;
        // ascending, descending, and three shuffles; each also split
        // between the two write paths at a random point
        let mut orders = vec![batch.clone()];
        orders[0].sort_by_key(total_key);
        orders.push(orders[0].iter().rev().copied().collect());
        for _ in 0..3 {
            for i in (1..batch.len()).rev() {
                batch.swap(i, rng.gen_range(0..=i));
            }
            orders.push(batch.clone());
        }
        for (i, order) in orders.iter().enumerate() {
            let mut pushed = Directory::new();
            order.iter().for_each(|&r| pushed.push(r));
            prop_assert_eq!(bits(pushed.iter()), want.clone());
            // the full comparison once per shape of arrival: sorted, shuffled
            if i % 2 == 0 {
                agree(&pushed, order)?;
            }
            let cut = rng.gen_range(0..=order.len());
            let mut mixed = Directory::new();
            order[..cut].iter().for_each(|&r| mixed.push(r));
            mixed.bulk_load(order[cut..].to_vec());
            prop_assert_eq!(mixed.check_invariants(), Ok(()));
            prop_assert_eq!(bits(mixed.iter()), want.clone());
            prop_assert_eq!(bits(&mixed.drain()), want.clone());
        }
    }
}
