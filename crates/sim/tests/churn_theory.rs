//! Krishnamurthy closed-form validation (the durability sweep's theory
//! suite, run standalone): a bare Chord ring under windowed Poisson
//! churn must reproduce the master-equation predictions of
//! Krishnamurthy et al., "A statistical theory of Chord under churn"
//! (IPTPS'05), within the stated tolerance bands.
//!
//! The model: failures arrive Poisson at aggregate rate `λ` on `n` live
//! nodes; repair runs every `T` seconds and resets every list to ground
//! truth. A node alive at a window's start is dead at its end with
//! probability `p = 1 − exp(−λT/n)`, so sampled *just before* repair:
//!
//! | estimator                  | closed form | band        |
//! |----------------------------|-------------|-------------|
//! | first successor dead       | `p`         | 35% + 0.01  |
//! | dead successor entries     | `p`         | 35% + 0.01  |
//! | whole list of `s` dead     | `p^s`       | 50% + 0.015 |
//! | key owner dead (lookup     | `p`         | 35% + 0.015 |
//! | failure fraction)          |             |             |
//!
//! Bands are wide because the closed forms idealize (independent deaths,
//! fixed `n`, no joins) what the simulator draws exactly (uniform kills
//! from a drifting live set, joins interleaved); they are still tight
//! enough that an estimator off by 2x, or an exhaustion probability
//! scaling like `p` instead of `p^s`, fails. The exhaustion row uses a
//! wider relative band since a relative error `ε` on `p` compounds to
//! `s·ε` on `p^s`.

use sim::experiments::durability::churn_theory_checks;

#[test]
fn closed_forms_hold_across_seeds() {
    for seed in [0x1C99u64, 7, 42] {
        let checks = churn_theory_checks(seed);
        assert_eq!(checks.len(), 8, "4 estimators x 2 rates");
        for c in &checks {
            assert!(
                c.ok,
                "seed {seed}: {} @ R={} simulated {} vs predicted {} (band {}% + {})",
                c.name,
                c.rate,
                c.simulated,
                c.predicted,
                c.tol_rel * 100.0,
                c.tol_abs
            );
        }
    }
}

#[test]
fn estimators_measure_something_at_heavy_churn() {
    // A check that never observes its event passes any band trivially;
    // the default setting must be aggressive enough that every estimator
    // has a strictly positive simulated fraction at the heavy rate.
    let checks = churn_theory_checks(0x1C99);
    for c in checks.iter().filter(|c| c.rate > 1.0) {
        assert!(c.simulated > 0.0, "{} @ R={} observed nothing", c.name, c.rate);
        assert!(c.predicted > 0.0, "{} @ R={} predicts nothing", c.name, c.rate);
    }
}

#[test]
fn staleness_grows_with_the_churn_rate() {
    // Sanity on the family of predictions and simulations alike: both
    // the simulated and predicted stale-first fractions must be larger
    // at the heavy rate than at the light one.
    let checks = churn_theory_checks(11);
    let stale: Vec<_> = checks.iter().filter(|c| c.name == "stale_first_successor").collect();
    assert_eq!(stale.len(), 2);
    let (light, heavy) = (stale[0], stale[1]);
    assert!(light.rate < heavy.rate);
    assert!(heavy.simulated > light.simulated, "{} !> {}", heavy.simulated, light.simulated);
    assert!(heavy.predicted > light.predicted);
}

#[test]
fn exhaustion_scales_like_p_to_the_s_not_p() {
    // The discriminating power of the p^s row: at the heavy rate the
    // exhausted fraction must sit well below the single-entry staleness
    // (p^2 << p), refuting any estimator that conflates the two.
    let checks = churn_theory_checks(0x1C99);
    let heavy_stale = checks
        .iter()
        .find(|c| c.name == "stale_first_successor" && c.rate > 1.0)
        .expect("heavy stale-first check");
    let heavy_exh = checks
        .iter()
        .find(|c| c.name == "successor_list_exhausted" && c.rate > 1.0)
        .expect("heavy exhaustion check");
    assert!(
        heavy_exh.simulated < heavy_stale.simulated * 0.6,
        "exhaustion {} not well below staleness {}",
        heavy_exh.simulated,
        heavy_stale.simulated
    );
}
