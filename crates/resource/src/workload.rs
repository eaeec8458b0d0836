//! Synthetic workload generation — the paper's §V setup.
//!
//! The evaluation populates the system with `m = 200` attributes, each
//! carrying `k = 500` pieces of resource information whose values come
//! from a Bounded Pareto distribution, owned by uniformly random nodes.
//! Queries pick their attributes uniformly at random; range queries span
//! up to half the value domain so the expected range walk covers a quarter
//! of it, matching the average-case assumption of Theorem 4.9.
//!
//! **Reproduction note.** The paper names Bounded Pareto as its value
//! generator, yet its Figure 3 percentile measurements track the
//! *uniform-values* analysis closely ("values are randomly chosen … not
//! completely uniformly distributed"). A heavily skewed Pareto
//! (`α ≳ 0.5`) would pile nearly all information onto one LPH sector and
//! contradict those figures, so the default [`ValueDist`] here is
//! `Uniform` over the `k`-value grid; `BoundedPareto` is available and is
//! exercised by the `ablate_value_skew` bench. See DESIGN.md.

use crate::model::{AttrId, AttributeSpace, Query, ResourceInfo, SubQuery, ValueTarget};
use dht_core::{BoundedPareto, DhtError, Zipf};
use rand::Rng;

/// Distribution of attribute values in reports and queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueDist {
    /// Uniform over the `k`-value grid (default; see module docs).
    Uniform,
    /// Bounded Pareto with the given shape over the value domain, snapped
    /// to the grid (the paper's stated generator).
    BoundedPareto {
        /// Shape parameter `α > 0`; larger is more skewed towards the low
        /// end of the domain.
        alpha: f64,
    },
}

/// How queries pick their attributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrPopularity {
    /// Uniformly random distinct attributes (the paper's §V setting).
    Uniform,
    /// Zipf-distributed popularity with the given exponent — real grid
    /// requests concentrate on a few hot attributes (CPU, memory); the
    /// `ablate_attr_popularity` study measures what that does to each
    /// system's query-load balance.
    Zipf {
        /// Zipf exponent `s ≥ 0` (0 degenerates to uniform).
        exponent: f64,
    },
}

/// Workload parameters (defaults are the paper's §V numbers).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Number of resource attributes `m`.
    pub num_attrs: usize,
    /// Pieces of resource information per attribute `k` (one per value
    /// grid point on average).
    pub values_per_attr: usize,
    /// Number of physical nodes owning resources.
    pub num_nodes: usize,
    /// Distribution of reported/queried values.
    pub value_dist: ValueDist,
    /// Attribute-selection distribution for queries.
    pub attr_popularity: AttrPopularity,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            num_attrs: 200,
            values_per_attr: 500,
            num_nodes: 2048,
            value_dist: ValueDist::Uniform,
            attr_popularity: AttrPopularity::Uniform,
        }
    }
}

/// Query shape for a generated batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMix {
    /// Exact-value queries only (Figures 4 and 6(a)).
    NonRange,
    /// Range queries with span uniform in `[0, domain/2]`
    /// (Figures 5 and 6(b): average walk = a quarter of the domain).
    Range,
}

/// A generated workload: the attribute space plus every resource report.
///
/// ```
/// use grid_resource::{QueryMix, Workload, WorkloadConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let cfg = WorkloadConfig { num_attrs: 5, values_per_attr: 20, num_nodes: 50,
///                            ..WorkloadConfig::default() };
/// let w = Workload::generate(cfg, &mut rng).unwrap();
/// assert_eq!(w.reports.len(), 5 * 20);
/// let q = w.random_query(3, QueryMix::Range, &mut rng);
/// assert_eq!(q.arity(), 3);
/// assert!(q.has_range());
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    /// The attribute universe.
    pub space: AttributeSpace,
    /// All availability reports, `num_attrs × values_per_attr` pieces.
    pub reports: Vec<ResourceInfo>,
    cfg: WorkloadConfig,
    zipf: Option<Zipf>,
}

impl Workload {
    /// Generate the full workload.
    ///
    /// # Errors
    /// Propagates invalid configuration (zero attributes, bad Pareto
    /// shape).
    pub fn generate<R: Rng + ?Sized>(cfg: WorkloadConfig, rng: &mut R) -> Result<Self, DhtError> {
        if cfg.num_attrs == 0 || cfg.values_per_attr == 0 || cfg.num_nodes == 0 {
            return Err(DhtError::InvalidParameter {
                what: "workload dimensions must be positive",
            });
        }
        // Value domain [1, k] so the grid has k integer points, matching
        // "each attribute had k = 500 values".
        let space = AttributeSpace::synthetic(cfg.num_attrs, 1.0, cfg.values_per_attr as f64)?;
        let sampler = ValueSampler::new(&space, cfg.value_dist)?;
        let mut reports = Vec::with_capacity(cfg.num_attrs * cfg.values_per_attr);
        for attr in space.ids() {
            for _ in 0..cfg.values_per_attr {
                reports.push(ResourceInfo {
                    attr,
                    value: sampler.sample(rng),
                    owner: rng.gen_range(0..cfg.num_nodes),
                });
            }
        }
        let zipf = match cfg.attr_popularity {
            AttrPopularity::Uniform => None,
            AttrPopularity::Zipf { exponent } => Some(Zipf::new(cfg.num_attrs, exponent)?),
        };
        Ok(Self { space, reports, cfg, zipf })
    }

    /// The configuration this workload was generated from.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    /// Generate one `arity`-attribute query with distinct random attributes
    /// (the paper: "resource attributes in a node resource request were
    /// randomly generated").
    pub fn random_query<R: Rng + ?Sized>(&self, arity: usize, mix: QueryMix, rng: &mut R) -> Query {
        let m = self.space.len();
        let arity = arity.min(m);
        let mut chosen: Vec<u32> = Vec::with_capacity(arity);
        match &self.zipf {
            // Floyd's algorithm for a distinct uniform sample.
            None => {
                for j in (m - arity)..m {
                    let t = rng.gen_range(0..=j) as u32;
                    if chosen.contains(&t) {
                        chosen.push(j as u32);
                    } else {
                        chosen.push(t);
                    }
                }
            }
            // Zipf popularity: rejection-sample distinct hot attributes.
            Some(z) => {
                while chosen.len() < arity {
                    let t = z.sample(rng) as u32;
                    if !chosen.contains(&t) {
                        chosen.push(t);
                    }
                }
            }
        }
        let sampler = ValueSampler::new(&self.space, self.cfg.value_dist)
            // lint:allow(panic-hygiene): Workload::generate already built a
            // sampler from this exact (space, dist) pair, rejecting bad ones.
            .expect("config validated at generation");
        let (dmin, dmax) = self.space.domain();
        let subs = chosen
            .into_iter()
            .map(|a| {
                let target = match mix {
                    QueryMix::NonRange => ValueTarget::Point(sampler.sample(rng)),
                    QueryMix::Range => {
                        // span uniform in [0, domain/2] => E[walk] = domain/4,
                        // worst case domain/2, per Theorem 4.9's accounting.
                        let span = rng.gen_range(0.0..=(dmax - dmin) / 2.0);
                        let low = rng.gen_range(dmin..=(dmax - span));
                        ValueTarget::Range { low, high: low + span }
                    }
                };
                SubQuery { attr: AttrId(a), target }
            })
            .collect();
        // lint:allow(panic-hygiene): every generated target has low <= high
        // by construction (span >= 0), the only thing Query::new validates.
        Query::new(subs).expect("generated ranges are well-formed")
    }
}

/// Samples grid-snapped attribute values according to a [`ValueDist`].
#[derive(Debug, Clone)]
struct ValueSampler {
    dist: ValueDist,
    pareto: Option<BoundedPareto>,
    min: f64,
    max: f64,
}

impl ValueSampler {
    fn new(space: &AttributeSpace, dist: ValueDist) -> Result<Self, DhtError> {
        let (min, max) = space.domain();
        let pareto = match dist {
            ValueDist::BoundedPareto { alpha } => {
                Some(BoundedPareto::new(alpha, min.max(f64::MIN_POSITIVE), max)?)
            }
            ValueDist::Uniform => None,
        };
        Ok(Self { dist, pareto, min, max })
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let raw = match self.dist {
            ValueDist::Uniform => rng.gen_range(self.min..=self.max),
            ValueDist::BoundedPareto { .. } => {
                // lint:allow(panic-hygiene): `new` fills `pareto` whenever
                // the dist is BoundedPareto; the two fields change together.
                self.pareto.as_ref().expect("pareto built for this dist").sample(rng)
            }
        };
        raw.round().clamp(self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xFEED)
    }

    fn small_cfg() -> WorkloadConfig {
        WorkloadConfig {
            num_attrs: 20,
            values_per_attr: 50,
            num_nodes: 100,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn generates_m_times_k_reports() {
        let w = Workload::generate(small_cfg(), &mut rng()).unwrap();
        assert_eq!(w.reports.len(), 20 * 50);
        assert_eq!(w.space.len(), 20);
    }

    #[test]
    fn rejects_degenerate_config() {
        let mut c = small_cfg();
        c.num_attrs = 0;
        assert!(Workload::generate(c, &mut rng()).is_err());
        let mut c = small_cfg();
        c.num_nodes = 0;
        assert!(Workload::generate(c, &mut rng()).is_err());
    }

    #[test]
    fn values_are_on_the_grid_and_in_domain() {
        let w = Workload::generate(small_cfg(), &mut rng()).unwrap();
        for r in &w.reports {
            assert!(r.value >= 1.0 && r.value <= 50.0);
            assert_eq!(r.value, r.value.round());
        }
    }

    #[test]
    fn owners_are_valid_physical_nodes() {
        let w = Workload::generate(small_cfg(), &mut rng()).unwrap();
        assert!(w.reports.iter().all(|r| r.owner < 100));
        // and reasonably spread: >50 distinct owners out of 100 for 1000 reports
        let mut owners: Vec<usize> = w.reports.iter().map(|r| r.owner).collect();
        owners.sort_unstable();
        owners.dedup();
        assert!(owners.len() > 50, "{} distinct owners", owners.len());
    }

    #[test]
    fn every_attribute_gets_k_reports() {
        let w = Workload::generate(small_cfg(), &mut rng()).unwrap();
        for attr in w.space.ids() {
            let count = w.reports.iter().filter(|r| r.attr == attr).count();
            assert_eq!(count, 50);
        }
    }

    #[test]
    fn pareto_dist_skews_low() {
        let cfg =
            WorkloadConfig { value_dist: ValueDist::BoundedPareto { alpha: 1.0 }, ..small_cfg() };
        let w = Workload::generate(cfg, &mut rng()).unwrap();
        let low_half = w.reports.iter().filter(|r| r.value <= 25.0).count();
        assert!(low_half as f64 > 0.8 * w.reports.len() as f64);
    }

    #[test]
    fn query_arity_and_distinct_attrs() {
        let w = Workload::generate(small_cfg(), &mut rng()).unwrap();
        let mut r = rng();
        for arity in 1..=10 {
            let q = w.random_query(arity, QueryMix::NonRange, &mut r);
            assert_eq!(q.arity(), arity);
            let mut attrs: Vec<_> = q.subs.iter().map(|s| s.attr).collect();
            attrs.sort();
            attrs.dedup();
            assert_eq!(attrs.len(), arity, "attributes must be distinct");
        }
    }

    #[test]
    fn arity_clamps_to_attribute_count() {
        let w = Workload::generate(small_cfg(), &mut rng()).unwrap();
        let q = w.random_query(100, QueryMix::NonRange, &mut rng());
        assert_eq!(q.arity(), 20);
    }

    #[test]
    fn range_queries_respect_half_domain_cap() {
        let w = Workload::generate(small_cfg(), &mut rng()).unwrap();
        let mut r = rng();
        let (dmin, dmax) = w.space.domain();
        let mut total_span = 0.0;
        let trials = 2000;
        for _ in 0..trials {
            let q = w.random_query(1, QueryMix::Range, &mut r);
            match q.subs[0].target {
                ValueTarget::Range { low, high } => {
                    assert!(low >= dmin && high <= dmax && low <= high);
                    assert!(high - low <= (dmax - dmin) / 2.0 + 1e-9);
                    total_span += high - low;
                }
                _ => panic!("expected range"),
            }
        }
        let mean_frac = total_span / trials as f64 / (dmax - dmin);
        // E[span] = domain/4
        assert!((mean_frac - 0.25).abs() < 0.02, "mean span fraction {mean_frac}");
    }

    #[test]
    fn non_range_queries_are_points() {
        let w = Workload::generate(small_cfg(), &mut rng()).unwrap();
        let q = w.random_query(5, QueryMix::NonRange, &mut rng());
        assert!(!q.has_range());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Workload::generate(small_cfg(), &mut rng()).unwrap();
        let b = Workload::generate(small_cfg(), &mut rng()).unwrap();
        assert_eq!(a.reports, b.reports);
    }

    #[test]
    fn zipf_popularity_concentrates_queries_on_hot_attributes() {
        let cfg = WorkloadConfig {
            attr_popularity: AttrPopularity::Zipf { exponent: 1.2 },
            ..small_cfg()
        };
        let w = Workload::generate(cfg, &mut rng()).unwrap();
        let mut r = rng();
        let mut counts = vec![0usize; 20];
        for _ in 0..4000 {
            let q = w.random_query(1, QueryMix::NonRange, &mut r);
            counts[q.subs[0].attr.0 as usize] += 1;
        }
        // rank 0 should dominate the median attribute by a wide margin
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        assert!(
            counts[0] > 5 * sorted[10].max(1),
            "rank-0 attr got {} vs median {}",
            counts[0],
            sorted[10]
        );
    }

    #[test]
    fn zipf_popularity_still_yields_distinct_attributes() {
        let cfg = WorkloadConfig {
            attr_popularity: AttrPopularity::Zipf { exponent: 1.5 },
            ..small_cfg()
        };
        let w = Workload::generate(cfg, &mut rng()).unwrap();
        let mut r = rng();
        for _ in 0..200 {
            let q = w.random_query(6, QueryMix::Range, &mut r);
            let mut attrs: Vec<_> = q.subs.iter().map(|s| s.attr).collect();
            attrs.sort();
            attrs.dedup();
            assert_eq!(attrs.len(), 6);
        }
    }

    #[test]
    fn negative_zipf_exponent_rejected() {
        let cfg = WorkloadConfig {
            attr_popularity: AttrPopularity::Zipf { exponent: -1.0 },
            ..small_cfg()
        };
        assert!(Workload::generate(cfg, &mut rng()).is_err());
    }
}
