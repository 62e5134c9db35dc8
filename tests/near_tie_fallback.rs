//! Directed regression: an α-ratio near-tie that a float solver cannot
//! separate, decided by the exact integer descent.
//!
//! The 6-ring below carries two competing bottleneck gadgets:
//!
//! * `B = {1}` with `α({1}) = (w₀+w₂)/w₁ = 1/3` exactly, and
//! * `B = {4}` with `α({4}) = (w₃+w₅)/w₄ = 3333333333333333/10⁶⁺¹⁰+1`,
//!   which is *smaller* than 1/3 by ≈ 2·10⁻¹⁶ relative — around the limit
//!   of f64 representation itself, so any float tolerance lumps the two
//!   gadgets together.
//!
//! The true maximal bottleneck is `{4}` alone. `decompose` descends from
//! `α(V)` on the scaled-integer network, where the gap is an exact integer
//! comparison: the ~10¹⁶ weights scale to capacities far inside `i128`, so
//! every step runs on the checked-i128 tier (no promotion, no rational
//! flow), and the descent needs more steps than there are pairs — which
//! this test observes through the flow counters. The result must be
//! bit-identical to the single-tier exact engine. See docs/NUMERICS.md.
//!
//! This test lives in its own binary: the flow-stat counters are process
//! globals, and sharing the process with other tests would let their
//! decompositions blur the before/after deltas asserted here. The two tests
//! of this binary serialize on [`COUNTERS`] for the same reason.

use prs::bd::{decompose, decompose_exact};
use prs::flow::stats;
use prs::prelude::*;

/// Held by every test of this binary while it decomposes, so no
/// concurrent test moves the counters inside an asserted window.
static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn near_tie_ring() -> Graph {
    let w = |x: i64| Rational::from_integer(x);
    builders::ring(vec![
        w(50_000_000_000_000),     // 0: gadget-A neighbor
        w(300_000_000_000_000),    // 1: gadget-A bottleneck, α = 1/3
        w(50_000_000_000_000),     // 2: gadget-A neighbor
        w(1_666_666_666_666_666),  // 3: gadget-B neighbor
        w(10_000_000_000_000_001), // 4: gadget-B bottleneck, α = 1/3 − ~2e-16
        w(1_666_666_666_666_667),  // 5: gadget-B neighbor
    ])
    .unwrap()
}

#[test]
fn near_tie_forces_the_exact_fallback_and_stays_bit_identical() {
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let g = near_tie_ring();
    let alpha_b = ratio(3_333_333_333_333_333, 10_000_000_000_000_001);
    assert!(alpha_b < ratio(1, 3), "gadget B must be the true optimum");

    let before = stats::snapshot();
    let bd = decompose(&g).unwrap();
    let delta = stats::snapshot().since(&before);

    // The whole descent ran on the checked-i128 tier: no rational (or
    // BigInt) flow, no promotion, and at least one infeasible step beyond
    // the one certifying flow each pair needs.
    assert_eq!(delta.exact_max_flows, 0, "counters: {delta:?}");
    assert!(delta.i128_max_flows > 0, "counters: {delta:?}");
    assert_eq!(delta.i128_promotions, 0, "counters: {delta:?}");
    assert!(
        delta.dinkelbach_iterations > bd.k() as u64,
        "expected the near-tie to force descent steps; counters: {delta:?}"
    );

    // And the descent must land on the exact answer: gadget B first, at
    // its exact (not float-rounded) ratio, bit-identical to the reference.
    let exact = decompose_exact(&g).unwrap();
    assert_eq!(bd.shape(), exact.shape());
    for (p, q) in bd.pairs().iter().zip(exact.pairs()) {
        assert_eq!(p.alpha, q.alpha);
    }
    assert_eq!(bd.pairs()[0].b.to_vec(), vec![4]);
    assert_eq!(bd.pairs()[0].alpha, alpha_b);
    assert_eq!(bd.pairs()[1].alpha, ratio(1, 3));
}

/// The mirrored tie (gadget order swapped around the ring) and the exact
/// tie (both gadgets at ratio exactly 1/3, which must merge into one pair's
/// maximal bottleneck) keep the engines aligned too.
#[test]
fn exact_tie_merges_into_one_maximal_bottleneck_in_both_engines() {
    let w = |x: i64| Rational::from_integer(x);
    let g = builders::ring(vec![
        w(50),
        w(300),
        w(50), // α({1}) = 1/3
        w(25),
        w(150),
        w(25), // α({4}) = 1/3 — an *exact* tie
    ])
    .unwrap();
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let bd = decompose(&g).unwrap();
    let exact = decompose_exact(&g).unwrap();
    assert_eq!(bd.shape(), exact.shape());
    // The maximal bottleneck at α* = 1/3 contains both gadgets at once.
    assert_eq!(bd.pairs()[0].alpha, ratio(1, 3));
    assert!(bd.pairs()[0].b.contains(1) && bd.pairs()[0].b.contains(4));
}
