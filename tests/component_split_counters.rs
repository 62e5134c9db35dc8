//! Flow-work counters of the per-component round solver.
//!
//! `decompose` solves each round one connected component of the alive
//! subgraph at a time and reuses the `(B, α)` of every component a round
//! left untouched; `decompose_exact` re-solves the whole alive set every
//! round. On a ring the first round cuts the ring into paths, so the split
//! must show up as fewer augmenting paths, with a bit-identical result.
//!
//! The flow counters are process-global, so this file is its own test
//! binary and holds a single test: nothing else can bump the counters
//! between a snapshot and the call it measures.

use prs::flow::stats;
use prs::graph::random;
use prs::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Augmenting paths pushed by one call, over every flow engine.
fn augmenting_paths<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = stats::snapshot();
    let out = f();
    let d = stats::snapshot().since(&before);
    (
        out,
        d.i128_augmenting_paths + d.exact_augmenting_paths + d.f64_augmenting_paths,
    )
}

#[test]
fn component_split_cuts_augmenting_paths_on_rings() {
    let mut fast_total = 0u64;
    let mut exact_total = 0u64;
    for seed in 0..4 {
        let g = random::random_ring(&mut StdRng::seed_from_u64(seed), 128, 1, 100);
        let (fast, fast_paths) = augmenting_paths(|| decompose(&g));
        let (exact, exact_paths) = augmenting_paths(|| decompose_exact(&g));
        assert_eq!(fast, exact, "seed {seed}");
        assert!(
            fast.unwrap().k() > 1,
            "seed {seed}: a one-round ring splits nothing"
        );
        fast_total += fast_paths;
        exact_total += exact_paths;
    }
    let ratio = fast_total as f64 / exact_total as f64;
    assert!(
        ratio <= 0.6,
        "decompose pushed {fast_total} augmenting paths, decompose_exact {exact_total} \
         (ratio {ratio:.2} > 0.6)"
    );

    // A zero weight routes every round that still holds it through the
    // whole-alive solver; the result must not change.
    let mut weights = random::random_ring(&mut StdRng::seed_from_u64(7), 128, 1, 100)
        .weights()
        .to_vec();
    weights[40] = int(0);
    let g = builders::ring(weights).unwrap();
    let (fast, fast_paths) = augmenting_paths(|| decompose(&g));
    let (exact, exact_paths) = augmenting_paths(|| decompose_exact(&g));
    assert_eq!(fast, exact);
    assert!(fast.unwrap().check_proposition3(&g).is_ok());
    assert!(fast_paths > 0 && exact_paths > 0);
}
