//! Certification round-trip under adversarial weight magnitudes.
//!
//! An owned session's delta path re-certifies the previous decomposition's
//! bottlenecks on the scaled-integer network (capacities × `p · D`); the
//! cold path derives the shape from scratch. With weights
//! like `2⁻ᵏ` next to `2ᵏ` the scale factor `p · D` is hundreds of bits
//! wide, so any truncation anywhere in the chain would make the two paths
//! disagree. These tests pin the equality on exactly those instances —
//! including the paper's lower-bound family, whose ratios approach the
//! tight bound of 2 through precisely this kind of scale separation.

use proptest::prelude::*;
use prs_bd::{decompose, DecompositionSession, Delta};
use prs_graph::builders;
use prs_numeric::Rational;

/// `2^e` as an exact rational, `e` possibly very negative.
fn pow2(e: i32) -> Rational {
    Rational::from_integer(2).pow(e)
}

/// Random ring weights `2^e` with exponents spread over ±`span`.
fn arb_scale_separated_ring() -> impl Strategy<Value = Vec<Rational>> {
    (3usize..7).prop_flat_map(|n| {
        proptest::collection::vec(-200i32..=200, n)
            .prop_map(|exps| exps.into_iter().map(pow2).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn session_matches_cold_decompose_on_adversarial_rings(weights in arb_scale_separated_ring()) {
        let g = builders::ring(weights).unwrap();
        let mut session = DecompositionSession::detached();
        // Twice through the session: the second call reuses the arenas the
        // first one sized. Both must equal the cold engine.
        let first = session.decompose(&g).unwrap();
        let second = session.decompose(&g).unwrap();
        let cold = decompose(&g).unwrap();
        prop_assert_eq!(&first, &cold);
        prop_assert_eq!(&second, &cold);
        // The certified utilities conserve total weight exactly even at
        // 400-bit scale separation.
        let total: Rational = (0..g.n()).map(|v| cold.utility(&g, v)).sum();
        let weight_sum: Rational = g.weights().iter().cloned().sum();
        prop_assert_eq!(total, weight_sum);
    }

    #[test]
    fn warm_hits_do_occur_on_perturbed_family(k in 50u32..300) {
        // A one-parameter family around the lower-bound ring, streamed as
        // weight deltas into one owned session: nearby members share
        // decomposition shapes, so the session must take its warm path
        // (not silently fall back to cold) while agreeing with the cold
        // engine bit-for-bit.
        let member = |j: u32| {
            let eps = pow2(-(k as i32) - j as i32);
            let big = pow2(k as i32 + j as i32);
            vec![eps.clone(), Rational::one(), Rational::one(), big, eps]
        };
        let mut session = DecompositionSession::new(builders::ring(member(0)).unwrap());
        session.current().unwrap();
        for j in 1..4u32 {
            let w = member(j);
            let step = Delta::Batch(
                [0, 3, 4]
                    .map(|v| Delta::SetWeight { v, w: w[v].clone() })
                    .to_vec(),
            );
            session.apply(step).unwrap();
            let g = builders::ring(w).unwrap();
            prop_assert_eq!(session.current().unwrap(), &decompose(&g).unwrap());
        }
        let stats = session.stats();
        prop_assert!(stats.hits + stats.warm_starts > 0,
            "scale-separated family must exercise the warm path: {:?}", stats);
    }
}
