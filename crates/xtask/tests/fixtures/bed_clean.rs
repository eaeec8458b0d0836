//! Fixture: builds hoisted out of loops, cache lookups inside them, and
//! `impl Trait for Type` headers must all stay quiet.

impl ResourceDiscovery for Lorm {
    fn rebuild(&mut self) {
        // `for` above is a trait-impl header, not a loop.
        let _net = Cycloid::build(8, CycloidConfig::default());
    }
}

pub fn sweep(points: &[usize], cfg: SimConfig, cache: &BedCache) -> Vec<usize> {
    // Build once, reuse per point: the pattern the lint enforces.
    let bed = TestBed::new(cfg);
    let mut out = Vec::new();
    for _arity in points {
        let shared = cache.bed(cfg);
        let snap = bed.systems.clone();
        out.push(shared.systems.len() + snap.len());
    }
    // Associated calls that are not constructors are fine in loops.
    while out.len() < 8 {
        out.push(Chord::ids(7));
    }
    out
}
