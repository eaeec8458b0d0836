//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes a fault regime — per-message drop
//! probability and an ungraceful node-failure fraction — as a *pure
//! function of a seed*; every plan shares the retry and hop limits
//! [`MAX_ATTEMPTS`] and [`HOP_BUDGET`]. No RNG stream is consumed:
//! every coin is a [`splitmix64`] hash of the plan seed and the message's
//! identity (id, attempt, hop) or the node's arena index. Two
//! consequences the test suite pins down:
//!
//! * **Shard invariance.** Whether a query batch runs on 1 shard or 16,
//!   each message hashes the same coins, so degraded results are
//!   bit-identical across shard counts.
//! * **Monotonicity.** The coin value is independent of the configured
//!   rate; a message dropped at 5% loss is necessarily dropped at 20%
//!   (the firing set `{hash < bar}` grows with the bar), so success
//!   rates degrade monotonically in the loss rate.
//!
//! Failed nodes model *stale routing state*: the overlay still lists
//! them in fingers and leaf sets (they "linger" until repair), but any
//! attempt to forward a message to one yields [`Forward::DeadHop`]. The
//! plan is consulted through a [`FaultSink`] wrapped around the normal
//! routing sink, so the fault-free path is untouched — and an inert plan
//! ([`FaultPlan::none`], or any plan with both rates zero) short-circuits
//! to the plain code path, keeping zero-fault runs byte-identical to
//! fault-free runs.

use crate::error::DhtError;
use crate::hashing::splitmix64;
use crate::overlay::{NodeIdx, Overlay};
use crate::trace::{Forward, HopCount, RouteSink, RouteStats};

/// Attempts allowed per logical lookup under a fault plan (first try +
/// retries).
pub const MAX_ATTEMPTS: u32 = 3;

/// Total hops (successful and wasted) one query may spend under a fault
/// plan before its remaining sub-queries are abandoned as degraded.
pub const HOP_BUDGET: usize = 4096;

/// Domain-separation salts for the coin hashes: message drops, node
/// failures, and alternate-origin selection draw from disjoint streams.
const SALT_DROP: u64 = 0x9E6C_62C5_D0B6_57A1;
const SALT_NODE: u64 = 0x517C_C1B7_2722_0A95;
const SALT_ORIGIN: u64 = 0x2545_F491_4F6C_DD1D;
const SALT_WALK: u64 = 0x6A09_E667_F3BC_C909;

/// Identity of one lookup message under a [`FaultPlan`].
///
/// The `id` is assigned by the query layer (derived from the batch seed
/// and the query's position, never from shared mutable state); `attempt`
/// distinguishes retries of the same logical lookup so each retry draws
/// fresh drop coins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgId {
    /// Stable identifier of the logical message.
    pub id: u64,
    /// Retry attempt number, starting at 0.
    pub attempt: u32,
}

impl MsgId {
    /// The first attempt of message `id`.
    pub fn first(id: u64) -> Self {
        Self { id, attempt: 0 }
    }
}

/// A seeded, deterministic fault regime.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_rate: f64,
    fail_frac: f64,
    /// `drop_rate` mapped onto the hash range: a message coin fires when
    /// its hash is below this bar.
    drop_bar: u64,
    /// `fail_frac` mapped onto the hash range, likewise for node coins.
    fail_bar: u64,
}

/// Map a probability in `[0, 1]` onto the `u64` hash range.
fn bar(p: f64) -> u64 {
    if p >= 1.0 {
        u64::MAX
    } else if p <= 0.0 {
        0
    } else {
        // u64::MAX as f64 rounds to 2^64, so the bar is `p` of the range.
        (p * u64::MAX as f64) as u64
    }
}

impl FaultPlan {
    /// A plan with the given per-message drop probability and ungraceful
    /// node-failure fraction.
    ///
    /// # Errors
    /// [`DhtError::InvalidParameter`] unless both rates are finite and in
    /// `[0, 1]`.
    pub fn new(seed: u64, drop_rate: f64, fail_frac: f64) -> Result<Self, DhtError> {
        if !(0.0..=1.0).contains(&drop_rate) {
            return Err(DhtError::InvalidParameter { what: "drop_rate must be in [0, 1]" });
        }
        if !(0.0..=1.0).contains(&fail_frac) {
            return Err(DhtError::InvalidParameter { what: "fail_frac must be in [0, 1]" });
        }
        Ok(Self { seed, drop_rate, fail_frac, drop_bar: bar(drop_rate), fail_bar: bar(fail_frac) })
    }

    /// The inert plan: nothing drops, nothing fails. No coin can fire
    /// under it, and [`route_with_retry`] and the `query` driver send it
    /// down the fault-free code path, so results are
    /// byte-identical to not injecting faults at all (the determinism
    /// suite asserts this).
    pub fn none() -> Self {
        Self { seed: 0, drop_rate: 0.0, fail_frac: 0.0, drop_bar: 0, fail_bar: 0 }
    }

    /// True when no fault can ever fire under this plan.
    pub fn is_inert(&self) -> bool {
        self.drop_bar == 0 && self.fail_bar == 0
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-message drop probability.
    pub fn drop_rate(&self) -> f64 {
        self.drop_rate
    }

    /// Fraction of nodes failed ungracefully (lingering in routing state).
    pub fn fail_frac(&self) -> f64 {
        self.fail_frac
    }

    fn coin(&self, salt: u64, x: u64) -> u64 {
        splitmix64(self.seed ^ salt ^ x)
    }

    /// Does the fault plan drop `msg` on its `hop`-th forwarding?
    pub fn drops_message(&self, msg: MsgId, hop: usize) -> bool {
        if self.drop_bar == 0 {
            return false;
        }
        let x = msg
            .id
            .wrapping_add(u64::from(msg.attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((hop as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        self.coin(SALT_DROP, x) < self.drop_bar
    }

    /// Is `node` in the plan's ungracefully-failed set? Failed nodes stay
    /// in the overlay (stale fingers and leaf sets still point at them)
    /// but forwarding to one yields [`Forward::DeadHop`].
    pub fn node_is_failed(&self, node: NodeIdx) -> bool {
        self.fail_bar != 0 && self.coin(SALT_NODE, node.0 as u64) < self.fail_bar
    }

    /// Deterministic alternate origin for retry `attempt` of `msg_id`:
    /// a hash picks a live node, skipping plan-failed nodes (a failed
    /// requester could not re-issue the lookup). `None` on an empty
    /// overlay.
    pub fn alternate_origin<O: Overlay + ?Sized>(
        &self,
        overlay: &O,
        msg_id: u64,
        attempt: u32,
    ) -> Option<NodeIdx> {
        let live = overlay.live_nodes();
        if live.is_empty() {
            return None;
        }
        let len = live.len();
        let start =
            (self.coin(SALT_ORIGIN, msg_id.wrapping_add(u64::from(attempt))) % len as u64) as usize;
        for off in 0..len {
            let cand = live.at((start + off) % len);
            if !self.node_is_failed(cand) {
                return Some(cand);
            }
        }
        // Every live node is plan-failed; fall back to the hashed pick so
        // degraded routing still has a deterministic origin.
        Some(live.at(start))
    }
}

/// A [`RouteSink`] wrapper that consults a [`FaultPlan`] before every
/// forwarding: the routing loops call [`check_forward`] ahead of
/// `visit`, so a plain sink (default `forward` = deliver) is untouched
/// while this wrapper injects [`Forward::Dropped`] / [`Forward::DeadHop`].
#[derive(Debug)]
pub struct FaultSink<'a, S: RouteSink> {
    inner: &'a mut S,
    plan: &'a FaultPlan,
    msg: MsgId,
}

impl<'a, S: RouteSink> FaultSink<'a, S> {
    /// Wrap `inner`, injecting faults from `plan` for message `msg`.
    pub fn new(inner: &'a mut S, plan: &'a FaultPlan, msg: MsgId) -> Self {
        Self { inner, plan, msg }
    }
}

impl<S: RouteSink> RouteSink for FaultSink<'_, S> {
    fn visit(&mut self, hop: NodeIdx) {
        self.inner.visit(hop);
    }

    fn hops(&self) -> usize {
        self.inner.hops()
    }

    fn forward(&mut self, next: NodeIdx) -> Forward {
        // Drop-in-transit is checked first: a message lost on the wire
        // never discovers whether its target was alive.
        if self.plan.drops_message(self.msg, self.inner.hops()) {
            Forward::Dropped
        } else if self.plan.node_is_failed(next) {
            Forward::DeadHop
        } else {
            Forward::Deliver
        }
    }
}

/// Ask the sink to forward to `next`, mapping a fault verdict onto the
/// matching [`DhtError`]. The routing loops call this immediately before
/// `sink.visit(next)`; for plain sinks the default verdict is
/// [`Forward::Deliver`] and this compiles down to `Ok(())`.
pub fn check_forward<S: RouteSink + ?Sized>(sink: &mut S, next: NodeIdx) -> Result<(), DhtError> {
    match sink.forward(next) {
        Forward::Deliver => Ok(()),
        Forward::Dropped => Err(DhtError::MessageDropped { hops: sink.hops() }),
        Forward::DeadHop => Err(DhtError::DeadHop { hops: sink.hops() }),
    }
}

/// Degradation accounting for one query: how many retries were spent and
/// how many messages the plan dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultAccount {
    /// Retry attempts issued after a failed first try.
    pub retries: u64,
    /// Messages dropped in transit (lookup forwards and walk probes).
    pub dropped_msgs: u64,
}

/// Route a lookup under a fault plan with bounded retry and
/// alternate-probe fallback.
///
/// Each attempt is the overlay's one routing loop
/// ([`Overlay::route_with`]) under a [`FaultSink`], so the plan's drop
/// coins and failed-node set can cut it short with
/// [`DhtError::MessageDropped`] / [`DhtError::DeadHop`]. Attempt 0 routes
/// from `from`; each retry re-issues the lookup from a deterministic
/// alternate origin (so a retry can route *around* the stale state that
/// killed the previous attempt) with fresh drop coins. On success the
/// returned `hops` include the hops wasted by failed attempts — the
/// hop-inflation cost of the fault regime — and `acct` absorbs the
/// retry/drop counts. After [`MAX_ATTEMPTS`] failures the last error is
/// returned with the total wasted hops.
///
/// An inert plan takes the plain [`Overlay::route_stats`] path: its coins
/// could not fire anyway, and skipping them keeps zero-fault runs as fast
/// as fault-free ones.
pub fn route_with_retry<O: Overlay + ?Sized>(
    overlay: &O,
    from: NodeIdx,
    key: O::Key,
    plan: &FaultPlan,
    msg_id: u64,
    acct: &mut FaultAccount,
) -> Result<RouteStats, DhtError> {
    if plan.is_inert() {
        return overlay.route_stats(from, key);
    }
    let mut wasted = 0usize;
    let mut attempt = 0u32;
    loop {
        let origin = if attempt == 0 {
            from
        } else {
            plan.alternate_origin(overlay, msg_id, attempt).unwrap_or(from)
        };
        let mut count = HopCount::default();
        let mut sink = FaultSink::new(&mut count, plan, MsgId { id: msg_id, attempt });
        let mut e = match overlay.route_with(origin, key, &mut sink) {
            Ok((terminal, exact)) => {
                return Ok(RouteStats { hops: wasted + sink.hops(), terminal, exact });
            }
            Err(e) => e,
        };
        let dropped = matches!(e, DhtError::MessageDropped { .. });
        let (DhtError::MessageDropped { hops } | DhtError::DeadHop { hops }) = &mut e else {
            return Err(e);
        };
        acct.dropped_msgs += u64::from(dropped);
        // The error carries every hop this lookup has wasted so far.
        wasted += *hops;
        *hops = wasted;
        attempt += 1;
        if attempt >= MAX_ATTEMPTS {
            return Err(e);
        }
        acct.retries += 1;
    }
}

/// Derive the message id of sub-query `sub` from a query's `msg_seed`.
///
/// Every system uses this same convention, so a query's fault draws are
/// a pure function of `(plan seed, query identity, sub index)` — never
/// of sharding or evaluation order.
pub fn sub_msg_id(msg_seed: u64, sub: usize) -> u64 {
    splitmix64(msg_seed ^ (sub as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Derive the id stream for the directory-walk probes that follow the
/// lookup of `sub_msg` (domain-separated so walk coins never collide
/// with lookup coins).
pub fn walk_msg_id(sub_msg: u64) -> u64 {
    splitmix64(sub_msg ^ SALT_WALK)
}

/// Decide whether a directory walk may advance to `next` at `step`
/// (1-based). A probe message gets one retry; an ungracefully failed
/// member is unreachable regardless. Returns `false` when the walk must
/// truncate, with drops/retries recorded in `acct`.
pub fn probe_step(
    plan: &FaultPlan,
    walk_msg: u64,
    step: usize,
    next: NodeIdx,
    acct: &mut FaultAccount,
) -> bool {
    if plan.node_is_failed(next) {
        return false;
    }
    if !plan.drops_message(MsgId { id: walk_msg, attempt: 0 }, step) {
        return true;
    }
    acct.dropped_msgs += 1;
    acct.retries += 1;
    if !plan.drops_message(MsgId { id: walk_msg, attempt: 1 }, step) {
        return true;
    }
    acct.dropped_msgs += 1;
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::HopCount;

    #[test]
    fn rates_are_validated() {
        assert!(FaultPlan::new(1, 0.0, 0.0).is_ok());
        assert!(FaultPlan::new(1, 1.0, 1.0).is_ok());
        assert!(FaultPlan::new(1, -0.1, 0.0).is_err());
        assert!(FaultPlan::new(1, 0.0, 1.5).is_err());
        assert!(FaultPlan::new(1, f64::NAN, 0.0).is_err());
    }

    #[test]
    fn none_is_inert_and_zero_rate_plan_is_inert() {
        assert!(FaultPlan::none().is_inert());
        assert!(FaultPlan::new(99, 0.0, 0.0).unwrap().is_inert());
        assert!(!FaultPlan::new(99, 0.1, 0.0).unwrap().is_inert());
        assert!(!FaultPlan::new(99, 0.0, 0.1).unwrap().is_inert());
    }

    #[test]
    fn inert_plan_never_fires() {
        let p = FaultPlan::none();
        for id in 0..200u64 {
            assert!(!p.drops_message(MsgId::first(id), id as usize));
            assert!(!p.node_is_failed(NodeIdx(id as usize)));
        }
    }

    #[test]
    fn coins_are_deterministic() {
        let a = FaultPlan::new(42, 0.3, 0.2).unwrap();
        let b = FaultPlan::new(42, 0.3, 0.2).unwrap();
        for id in 0..500u64 {
            let msg = MsgId { id, attempt: (id % 3) as u32 };
            assert_eq!(
                a.drops_message(msg, id as usize % 7),
                b.drops_message(msg, id as usize % 7)
            );
            assert_eq!(
                a.node_is_failed(NodeIdx(id as usize)),
                b.node_is_failed(NodeIdx(id as usize))
            );
        }
    }

    #[test]
    fn drop_rate_is_roughly_calibrated() {
        let p = FaultPlan::new(7, 0.2, 0.0).unwrap();
        let fired = (0..10_000u64).filter(|&id| p.drops_message(MsgId::first(id), 0)).count();
        assert!((1_700..=2_300).contains(&fired), "20% of 10k, got {fired}");
    }

    #[test]
    fn drops_are_monotone_in_rate() {
        let lo = FaultPlan::new(7, 0.05, 0.0).unwrap();
        let hi = FaultPlan::new(7, 0.20, 0.0).unwrap();
        for id in 0..5_000u64 {
            let msg = MsgId::first(id);
            if lo.drops_message(msg, 3) {
                assert!(hi.drops_message(msg, 3), "drop sets must nest");
            }
        }
    }

    #[test]
    fn failed_nodes_are_monotone_in_fraction() {
        let lo = FaultPlan::new(9, 0.0, 0.1).unwrap();
        let hi = FaultPlan::new(9, 0.0, 0.4).unwrap();
        let mut lo_n = 0;
        for i in 0..2_000usize {
            if lo.node_is_failed(NodeIdx(i)) {
                lo_n += 1;
                assert!(hi.node_is_failed(NodeIdx(i)), "failed sets must nest");
            }
        }
        assert!((120..=280).contains(&lo_n), "10% of 2k, got {lo_n}");
    }

    #[test]
    fn retries_draw_fresh_coins() {
        let p = FaultPlan::new(3, 0.5, 0.0).unwrap();
        let outcomes: Vec<bool> =
            (0..4).map(|a| p.drops_message(MsgId { id: 1, attempt: a }, 0)).collect();
        assert!(outcomes.iter().any(|&b| b) && outcomes.iter().any(|&b| !b), "{outcomes:?}");
    }

    #[test]
    fn fault_sink_delegates_and_judges() {
        let plan = FaultPlan::new(5, 1.0, 0.0).unwrap();
        let mut hops = HopCount::default();
        let mut sink = FaultSink::new(&mut hops, &plan, MsgId::first(8));
        assert_eq!(sink.forward(NodeIdx(1)), Forward::Dropped);
        sink.visit(NodeIdx(1));
        assert_eq!(sink.hops(), 1);
        assert!(check_forward(&mut sink, NodeIdx(2)).is_err());
    }

    #[test]
    fn dead_hop_verdict_on_failed_target() {
        let plan = FaultPlan::new(5, 0.0, 1.0).unwrap();
        let mut hops = HopCount::default();
        let mut sink = FaultSink::new(&mut hops, &plan, MsgId::first(8));
        assert_eq!(sink.forward(NodeIdx(3)), Forward::DeadHop);
        assert_eq!(check_forward(&mut sink, NodeIdx(3)), Err(DhtError::DeadHop { hops: 0 }));
    }

    #[test]
    fn plain_sinks_always_deliver() {
        let mut hops = HopCount::default();
        assert!(check_forward(&mut hops, NodeIdx(7)).is_ok());
        let mut path: Vec<NodeIdx> = Vec::new();
        assert!(check_forward(&mut path, NodeIdx(7)).is_ok());
        assert!(path.is_empty(), "check_forward must not record a hop");
    }

    #[test]
    fn msg_id_derivations_are_stable_and_distinct() {
        assert_eq!(sub_msg_id(42, 0), sub_msg_id(42, 0));
        assert_ne!(sub_msg_id(42, 0), sub_msg_id(42, 1));
        assert_ne!(sub_msg_id(42, 0), sub_msg_id(43, 0));
        // Walk coins are domain-separated from lookup coins.
        assert_ne!(walk_msg_id(sub_msg_id(42, 0)), sub_msg_id(42, 0));
    }

    #[test]
    fn probe_step_never_truncates_under_inert_plan() {
        let plan = FaultPlan::none();
        let mut acct = FaultAccount::default();
        for step in 1..=64 {
            assert!(probe_step(&plan, 7, step, NodeIdx(step), &mut acct));
        }
        assert_eq!(acct, FaultAccount::default());
    }

    #[test]
    fn probe_step_truncates_at_failed_member_without_coins() {
        let plan = FaultPlan::new(5, 0.0, 1.0).unwrap();
        let mut acct = FaultAccount::default();
        assert!(!probe_step(&plan, 7, 1, NodeIdx(3), &mut acct));
        assert_eq!(acct, FaultAccount::default(), "dead member draws no drop coins");
    }

    #[test]
    fn probe_step_retries_once_then_gives_up() {
        let plan = FaultPlan::new(5, 1.0, 0.0).unwrap();
        let mut acct = FaultAccount::default();
        assert!(!probe_step(&plan, 7, 1, NodeIdx(3), &mut acct));
        assert_eq!(acct, FaultAccount { retries: 1, dropped_msgs: 2 });
    }

    #[test]
    fn probe_step_survival_is_monotone_in_loss() {
        let low = FaultPlan::new(9, 0.05, 0.0).unwrap();
        let high = FaultPlan::new(9, 0.4, 0.0).unwrap();
        for msg in 0..300u64 {
            let mut a = FaultAccount::default();
            let mut b = FaultAccount::default();
            let survive_high = probe_step(&high, msg, 1, NodeIdx(1), &mut b);
            if survive_high {
                assert!(probe_step(&low, msg, 1, NodeIdx(1), &mut a));
            }
        }
    }
}
