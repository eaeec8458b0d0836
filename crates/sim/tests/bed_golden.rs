//! Golden digests of whole beds: the fig 5 report rendered from a bed
//! built through `TestBed::new` (every overlay bulk-built, every system
//! placed in one batch) over all four systems.
//!
//! Each digest is FNV-1a over the report's JSON bytes. They were recorded
//! on the commit before the per-node-insert build path was removed, where
//! a bed built by bulk construction and one built by one ordered insert
//! per node rendered these same bytes; they pin that observational
//! equivalence now that only the bulk path is left. A change that moves a
//! figure re-records them and says why here.
//!
//! Reached by tier-1 (`cargo test -q`): `crates/sim` is a default
//! workspace member. The 100k-node soak at the end is ignored by default;
//! run it with
//! `cargo test --release -p sim --test bed_golden -- --ignored`.

use sim::experiments::fig5::fig5;
use sim::experiments::Exec;
use sim::setup::{SimConfig, TestBed};

/// FNV-1a over the bytes of the fig 5 report of a bed built from `cfg`.
fn fig5_digest(cfg: SimConfig) -> u64 {
    let bed = TestBed::new(cfg);
    let json = fig5(&bed, [1, 3], 12, Exec::default()).report().to_json();
    json.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn small_beds_render_the_recorded_fig5_at_six_seeds() {
    let golden = [
        (1, 0x7b9f_e14a_969c_f260),
        (7, 0x49fc_ccfb_8fb2_62dd),
        (42, 0x6d56_d377_4a7d_257b),
        (2024, 0xec2a_abf3_57e9_b542),
        (90210, 0x0570_47b8_392f_6a55),
        (424242, 0x143c_ac34_6199_c423),
    ];
    for (seed, digest) in golden {
        let cfg = SimConfig {
            nodes: 256,
            dimension: 6,
            attrs: 8,
            values: 20,
            seed,
            ..SimConfig::default()
        };
        assert_eq!(fig5_digest(cfg), digest, "seed {seed}");
    }
}

#[test]
fn bed_1k_renders_the_recorded_fig5() {
    let cfg = SimConfig { nodes: 1024, dimension: 8, attrs: 6, values: 25, ..SimConfig::default() };
    assert_eq!(fig5_digest(cfg), 0x8a4c_191b_fc6c_d65d);
}

#[test]
fn bed_4k_renders_the_recorded_fig5() {
    // d = 9 gives 4608 Cycloid slots; 6 attributes give Mercury six
    // 4096-node hubs.
    let cfg = SimConfig { nodes: 4096, dimension: 9, attrs: 6, values: 25, ..SimConfig::default() };
    assert_eq!(fig5_digest(cfg), 0xd293_f8c7_af24_f512);
}

/// Soak: a 100k-node bed builds through the bulk path and answers
/// queries.
#[test]
#[ignore = "100k-node soak; run explicitly"]
fn soak_100k_bed_builds_and_answers() {
    let cfg = SimConfig {
        nodes: 100_000,
        dimension: 13, // 13·2^13 = 106496 slots ≥ 100k
        attrs: 2,
        values: 50,
        ..SimConfig::default()
    };
    let bed = TestBed::new(cfg);
    let json = fig5(&bed, [1, 2], 8, Exec::default()).report().to_json();
    assert!(json.contains("\"tables\""), "report must render");
    for sys in &bed.systems {
        assert!(sys.total_pieces() > 0, "{} placed no reports", sys.name());
        assert_eq!(sys.num_physical(), 100_000);
    }
}
