//! Epoch-invalidated walk cache — memoized range walks over a static bed.
//!
//! Every range sub-query walks a run of successor (or cluster) links on an
//! overlay that is *static between churn events*: the walk is a pure
//! function of `(overlay state, start, lo, span)`, so a second walk over
//! the same segment can replay from memory. D1HT makes the general point
//! that trading memory for lookups pays when lookups repeat; range walks
//! anchored at the same segment head do repeat (≈ 60–80 % of walks on the
//! range workloads), point lookups do not (≈ 2–3 %), so this cache holds
//! walks only — point routes always route for real (EXPERIMENTS.md,
//! "Earn-its-keep audit").
//!
//! Correctness is *by construction*, not by probabilistic tagging:
//!
//! * Heads store the **full** `(salt, start, lo)` triple and compare it
//!   exactly on lookup — a slot-index collision evicts, it can never
//!   produce a false hit.
//! * Heads are stamped with the overlay [`epoch`](crate::Overlay::epoch)
//!   at insert time. Every mutating overlay operation strictly increases
//!   the epoch (enforced by the `epoch-bump` lint and proptests), so a
//!   head whose stamp differs from the current epoch is a miss. Between
//!   equal epoch observations the overlay is bit-identical, hence so is
//!   the walk the cache replays.
//!
//! Storage is a flat, direct-mapped head array (power-of-two length,
//! SplitMix64 slot hash) over one step arena — no hash maps, so the
//! `hash-collections` lint stays clean and a lookup is one predictable
//! probe. Heads are packed into `u64` words so construction takes the
//! `alloc_zeroed` fast path: a fresh cache maps lazy zero pages and the
//! executor can afford one cache per worker thread.
//!
//! A cached **walk segment** is the `(node, distance)` sequence a range
//! walk emits from a given start node for a `[lo, lo+span)` segment. Walk
//! admission is monotone in the distance from `lo`, so a narrower query
//! replays as a take-while prefix of a cached wider walk under the one
//! stop rule every walk runs by, `dist < span` ([`Via::walk`], the only
//! caller). A walk ended for a span-independent reason (a broken pointer,
//! a full circle, the probe budget, which is one) emitted everything
//! reachable and is stored with an unbounded span; only a walk stopped by
//! the rule is bounded to the span it ran for. Faulty walks never reach
//! the cache.
//!
//! [`Via::walk`]: crate::Via::walk

use crate::hashing::splitmix64;
use crate::overlay::NodeIdx;

/// Direct-mapped walk headers (power of two).
const WALK_HEADS: usize = 1 << 12;

/// Walk-step arena capacity. Crossing it resets the cache wholesale —
/// deterministic, since the reset point depends only on the insert
/// sequence, never on wall-clock or addresses.
const WALK_ARENA_CAP: usize = 1 << 20;

/// One emitted step of a range walk: the visited node and its (monotone)
/// walk distance from the segment's `lo` anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WalkStep {
    /// The node the walk visited.
    pub node: NodeIdx,
    /// Clockwise (or cyclic) distance of `node` from the walk's `lo`
    /// anchor — the quantity the walker's stop rule tests.
    pub dist: u64,
}

/// Words per packed walk head: `[salt, start, lo, epoch, span, off, len]`.
/// An all-zero head is empty — overlay epochs start at 1 (construction
/// itself mutates state), so a zero stamp never matches. `span` is the
/// span the cached walk was run for — a query with `span <= this` replays
/// as a prefix; a wider query is a miss (and re-inserts).
const WALK_WORDS: usize = 7;

/// Deterministic, epoch-invalidated cache of range-walk segments.
///
/// One cache serves one system's query stream (multiple overlays are
/// namespaced by the `salt` argument — e.g. the hub index for Mercury's
/// per-attribute rings). Sharing is by `&mut`; the batched executor owns
/// one per worker, which is what keeps sharded results byte-identical.
#[derive(Debug, Clone)]
pub struct RouteCache {
    /// Packed walk heads ([`WALK_WORDS`] words each). A flat `u64` array
    /// takes the `alloc_zeroed` fast path, so a fresh cache maps lazy zero
    /// pages instead of writing empty heads — constructing per-worker
    /// caches is O(1) actual memory traffic.
    heads: Vec<u64>,
    arena: Vec<WalkStep>,
    /// Two-touch admission fingerprints (see [`Self::admit_walk`]): a walk
    /// is only *recorded* once its key has been seen before, so streams
    /// whose keys never repeat skip the recording copy entirely.
    cand: Vec<u64>,
    walk_hits: u64,
    walk_misses: u64,
    walk_resets: u64,
    /// Reusable recording buffer for walk misses (see [`Self::begin_walk`]):
    /// keeps the steady-state miss path allocation-free.
    scratch: Vec<WalkStep>,
}

impl Default for RouteCache {
    fn default() -> Self {
        Self::new()
    }
}

impl RouteCache {
    /// An empty cache with the default slot geometry.
    pub fn new() -> Self {
        Self {
            heads: vec![0; WALK_WORDS * WALK_HEADS],
            arena: Vec::new(),
            cand: vec![0; WALK_HEADS],
            walk_hits: 0,
            walk_misses: 0,
            walk_resets: 0,
            scratch: Vec::new(),
        }
    }

    /// Take the cleared walk-recording scratch buffer. Walkers fill it on
    /// a miss and hand it back through [`Self::commit_walk`], so repeated
    /// misses reuse one allocation.
    pub(crate) fn begin_walk(&mut self) -> Vec<WalkStep> {
        let mut buf = core::mem::take(&mut self.scratch);
        buf.clear();
        buf
    }

    /// Insert a recorded walk (see [`Self::walk_insert`] for the caching
    /// contract) and return the recording buffer to the scratch pool.
    pub(crate) fn commit_walk(
        &mut self,
        salt: u64,
        start: NodeIdx,
        lo: u64,
        span: u64,
        epoch: u64,
        steps: Vec<WalkStep>,
    ) {
        self.walk_insert(salt, start, lo, span, epoch, &steps);
        self.scratch = steps;
    }

    #[inline]
    fn walk_slot(salt: u64, start: u64, lo: u64) -> usize {
        let h = splitmix64(salt.rotate_left(17) ^ splitmix64(start ^ splitmix64(lo)));
        (h & (WALK_HEADS as u64 - 1)) as usize
    }

    /// Look up a cached walk segment from `start` anchored at `lo`. Hits
    /// require an exact `(salt, start, lo)` and epoch match and a cached
    /// span at least as wide as `span`; the caller replays the returned
    /// steps through its own stop rule (take-while on `dist`), which
    /// truncates a wider cached walk to exactly the uncached emission.
    pub(crate) fn walk_lookup(
        &mut self,
        salt: u64,
        start: NodeIdx,
        lo: u64,
        span: u64,
        epoch: u64,
    ) -> Option<&[WalkStep]> {
        let start = start.index() as u64;
        let b = Self::walk_slot(salt, start, lo) * WALK_WORDS;
        let h = &self.heads[b..b + WALK_WORDS];
        if h[3] == epoch && h[0] == salt && h[1] == start && h[2] == lo && h[4] >= span {
            self.walk_hits += 1;
            let (off, len) = (h[5] as usize, h[6] as usize);
            Some(&self.arena[off..off + len])
        } else {
            self.walk_misses += 1;
            None
        }
    }

    /// Two-touch walk admission: should a missed walk be *recorded*?
    ///
    /// Recording a walk costs a per-step copy on top of the walk itself —
    /// pure overhead when the key never repeats (e.g. range bounds drawn
    /// from a continuous distribution). So a walk is only recorded the
    /// *second* time its `(salt, start, lo, epoch)` fingerprint lands in
    /// its slot: the first sighting stamps a candidate fingerprint and
    /// runs the walk plain. Fingerprints are full 64-bit (forced nonzero),
    /// so an accidental match merely records one extra walk — it can never
    /// corrupt a result. The policy is a pure function of the lookup
    /// sequence, so admission (and therefore the hit-rate telemetry) is
    /// deterministic.
    pub(crate) fn admit_walk(&mut self, salt: u64, start: NodeIdx, lo: u64, epoch: u64) -> bool {
        let start = start.index() as u64;
        let fp = splitmix64(salt ^ splitmix64(start ^ splitmix64(lo ^ splitmix64(epoch)))) | 1;
        let slot = &mut self.cand[Self::walk_slot(salt, start, lo)];
        if *slot == fp {
            true
        } else {
            *slot = fp;
            false
        }
    }

    /// Cache a walk's emission under the span it is valid for (`u64::MAX`
    /// for a walk that emitted everything reachable). Crossing the arena
    /// capacity resets the cache wholesale (deterministically).
    pub(crate) fn walk_insert(
        &mut self,
        salt: u64,
        start: NodeIdx,
        lo: u64,
        span: u64,
        epoch: u64,
        steps: &[WalkStep],
    ) {
        if steps.len() > WALK_ARENA_CAP {
            return; // never cacheable; don't thrash the arena
        }
        if self.arena.len() + steps.len() > WALK_ARENA_CAP {
            self.arena.clear();
            self.heads.fill(0);
            self.walk_resets += 1;
        }
        let off = self.arena.len();
        self.arena.extend_from_slice(steps);
        let start = start.index() as u64;
        let b = Self::walk_slot(salt, start, lo) * WALK_WORDS;
        self.heads[b..b + WALK_WORDS].copy_from_slice(&[
            salt,
            start,
            lo,
            epoch,
            span,
            off as u64,
            steps.len() as u64,
        ]);
    }

    /// Always 0: point routes are not memoized. Kept, with
    /// [`Self::misses`], only because `benchmark/src/api.rs` names both;
    /// they go with the `query_from*` shims (ROADMAP 3).
    pub fn hits(&self) -> u64 {
        0
    }

    /// Always 0 (see [`Self::hits`]).
    pub fn misses(&self) -> u64 {
        0
    }

    /// Walk lookups answered from cache since the last counter reset.
    pub fn walk_hits(&self) -> u64 {
        self.walk_hits
    }

    /// Walk lookups that had to walk for real since the last reset.
    pub fn walk_misses(&self) -> u64 {
        self.walk_misses
    }

    /// Walk hit fraction, `None` before any walk lookup. Counters observe
    /// the cache without influencing any result, so the rate is
    /// deterministic for a deterministic query stream.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.walk_hits + self.walk_misses;
        (total != 0).then(|| self.walk_hits as f64 / total as f64)
    }

    /// Zero the hit/miss counters, keeping every cached entry. The perf
    /// harness warms the cache, resets, then measures exactly one pass so
    /// the reported hit rate is machine-independent.
    pub fn reset_counters(&mut self) {
        self.walk_hits = 0;
        self.walk_misses = 0;
        self.walk_resets = 0;
    }

    /// Drop every cached entry and zero the counters.
    pub fn clear(&mut self) {
        self.heads.fill(0);
        self.cand.fill(0);
        self.arena.clear();
        self.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_prefix_replay() {
        let mut c = RouteCache::new();
        let steps: Vec<WalkStep> =
            (0..6).map(|i| WalkStep { node: NodeIdx(i), dist: 10 * i as u64 }).collect();
        c.walk_insert(0, NodeIdx(9), 1000, 50, 3, &steps);
        // narrower query replays as a prefix under the caller's rule
        let cached = c.walk_lookup(0, NodeIdx(9), 1000, 25, 3).unwrap();
        let narrow: Vec<_> = cached.iter().take_while(|s| s.dist < 25).collect();
        assert_eq!(narrow.len(), 3);
        // wider query must miss (cached span too small)
        assert!(c.walk_lookup(0, NodeIdx(9), 1000, 51, 3).is_none());
        // stale epoch must miss
        assert!(c.walk_lookup(0, NodeIdx(9), 1000, 25, 4).is_none());
    }

    #[test]
    fn walk_arena_reset_is_deterministic() {
        let big: Vec<WalkStep> =
            (0..(WALK_ARENA_CAP / 2 + 1)).map(|i| WalkStep { node: NodeIdx(i), dist: 0 }).collect();
        let run = || {
            let mut c = RouteCache::new();
            c.walk_insert(0, NodeIdx(0), 0, 9, 1, &big);
            c.walk_insert(0, NodeIdx(1), 1, 9, 1, &big); // crosses cap → reset
            let first_gone = c.walk_lookup(0, NodeIdx(0), 0, 9, 1).is_none();
            let second_lives = c.walk_lookup(0, NodeIdx(1), 1, 9, 1).is_some();
            (first_gone, second_lives, c.walk_resets)
        };
        assert_eq!(run(), (true, true, 1));
        assert_eq!(run(), run(), "reset point is a pure function of inserts");
    }

    #[test]
    fn oversized_walk_is_never_cached() {
        let huge: Vec<WalkStep> =
            (0..WALK_ARENA_CAP + 1).map(|i| WalkStep { node: NodeIdx(i), dist: 0 }).collect();
        let mut c = RouteCache::new();
        c.walk_insert(0, NodeIdx(0), 0, 9, 1, &huge);
        assert!(c.walk_lookup(0, NodeIdx(0), 0, 9, 1).is_none());
    }

    #[test]
    fn scratch_buffer_is_reused_across_misses() {
        let mut c = RouteCache::new();
        let mut buf = c.begin_walk();
        buf.push(WalkStep { node: NodeIdx(1), dist: 0 });
        buf.reserve(64);
        let cap = buf.capacity();
        c.commit_walk(0, NodeIdx(0), 0, 9, 1, buf);
        assert_eq!(c.walk_lookup(0, NodeIdx(0), 0, 9, 1).unwrap().len(), 1);
        let again = c.begin_walk();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap, "the same buffer comes back cleared");
    }

    #[test]
    fn admit_walk_requires_a_second_touch() {
        let mut c = RouteCache::new();
        assert!(!c.admit_walk(3, NodeIdx(7), 100, 2), "first sighting: run plain");
        assert!(c.admit_walk(3, NodeIdx(7), 100, 2), "second sighting: record");
        assert!(c.admit_walk(3, NodeIdx(7), 100, 2), "stays admitted");
        // A different key in the same state starts from scratch.
        assert!(!c.admit_walk(3, NodeIdx(7), 101, 2));
        // An epoch bump restarts the count (new fingerprint).
        assert!(!c.admit_walk(3, NodeIdx(7), 100, 3));
        // clear() forgets candidates.
        c.clear();
        assert!(!c.admit_walk(3, NodeIdx(7), 100, 2));
    }

    #[test]
    fn hit_rate_counts_walks() {
        let mut c = RouteCache::new();
        assert_eq!(c.hit_rate(), None);
        c.walk_insert(0, NodeIdx(1), 5, 9, 2, &[WalkStep { node: NodeIdx(1), dist: 0 }]);
        let _ = c.walk_lookup(0, NodeIdx(1), 5, 9, 2); // hit
        let _ = c.walk_lookup(0, NodeIdx(1), 6, 9, 2); // miss
        assert_eq!(c.hit_rate(), Some(0.5));
        c.reset_counters();
        assert_eq!(c.hit_rate(), None);
        let _ = c.walk_lookup(0, NodeIdx(1), 5, 9, 2); // entries survive a counter reset
        assert_eq!(c.hit_rate(), Some(1.0));
        c.clear();
        assert!(c.walk_lookup(0, NodeIdx(1), 5, 9, 2).is_none(), "clear drops entries");
    }
}
