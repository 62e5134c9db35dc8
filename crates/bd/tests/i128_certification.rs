//! The checked-i128 certification fast tier: routing and promotion.
//!
//! Every decomposition round — cold `decompose`, a session's cold rounds,
//! delta recertification — runs on the scaled-integer ladder: the `i128`
//! engine first, BigInt on promotion. Two things must hold on both the
//! warm (delta) and the cold path: shipped-scale instances run
//! entirely on the fast tier (promotion count exactly zero, and no
//! rational max-flow at all), and adversarial scale separation promotes —
//! with results bit-identical to the rational reference engine either way.
//!
//! All phases live in a single `#[test]`: the promotion counter is
//! process-global, so a concurrently running promoting test would make a
//! "promotions == 0" window assertion flaky.

use prs_bd::{decompose, decompose_exact, DecompositionSession, Delta};
use prs_flow::stats;
use prs_graph::{builders, random};
use prs_numeric::{int, Rational};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn pow2(e: i32) -> Rational {
    Rational::from_integer(2).pow(e)
}

#[test]
fn fast_tier_serves_small_weights_and_promotes_adversarial_ones() {
    // Phase 1 — shipped-scale weights: the session's rounds must run on
    // the i128 engine (i128 max-flows move) and never promote.
    let before = stats::snapshot();
    let mut session = DecompositionSession::detached();
    let g1 = builders::ring(vec![int(3), int(1), int(4), int(1), int(5)]).unwrap();
    let g2 = builders::ring(vec![int(4), int(1), int(4), int(1), int(5)]).unwrap();
    assert_eq!(session.decompose(&g1).unwrap(), decompose(&g1).unwrap());
    assert_eq!(session.decompose(&g2).unwrap(), decompose(&g2).unwrap());
    let delta = stats::snapshot().since(&before);
    assert!(
        delta.i128_max_flows > 0,
        "warm certification must land on the i128 fast tier: {delta:?}"
    );
    assert_eq!(
        delta.i128_promotions, 0,
        "small-weight instances must not promote: {delta:?}"
    );

    // Phase 2 — adversarial scale separation: weights 2^±200 make the
    // p·D-scaled capacities hundreds of bits wide, so the admission test
    // fails and the round promotes to BigInt. The second member arrives as
    // a weight delta on an owned session, so the recertification (the warm
    // path) runs on these capacities too. The decomposition is still
    // bit-identical to the cold rational engine.
    let member = |j: i32| {
        vec![
            pow2(-200 - j),
            int(1),
            int(1),
            pow2(200 + j),
            pow2(-200 - j),
        ]
    };
    let before = stats::snapshot();
    let g = builders::ring(member(0)).unwrap();
    let mut session = DecompositionSession::new(g.clone());
    assert_eq!(session.current().unwrap(), &decompose(&g).unwrap());
    let w = member(1);
    let step = Delta::Batch(
        [0, 3, 4]
            .map(|v| Delta::SetWeight { v, w: w[v].clone() })
            .to_vec(),
    );
    session.apply(step).unwrap();
    let g = builders::ring(w).unwrap();
    assert_eq!(session.current().unwrap(), &decompose(&g).unwrap());
    let delta = stats::snapshot().since(&before);
    let s = session.stats();
    assert!(
        s.hits + s.warm_starts > 0,
        "family must exercise the warm path: {s:?}"
    );
    assert!(
        delta.i128_promotions > 0,
        "400-bit scale separation must promote to BigInt: {delta:?}"
    );
    // Phase 3 — cold decompose at shipped scale: random rings n = 128 with
    // weights 1–100 never leave the i128 tier, so no rational (or BigInt)
    // max-flow runs at all. The rational backend is out of the production
    // path.
    let mut rng = StdRng::seed_from_u64(128);
    let rings: Vec<_> = (0..4)
        .map(|_| random::random_ring(&mut rng, 128, 1, 100))
        .collect();
    let before = stats::snapshot();
    let cold: Vec<_> = rings.iter().map(|g| decompose(g).unwrap()).collect();
    let delta = stats::snapshot().since(&before);
    assert_eq!(
        delta.exact_max_flows, 0,
        "cold decompose must not run a rational or BigInt flow: {delta:?}"
    );
    assert_eq!(
        delta.i128_promotions, 0,
        "small-weight cold rounds must not promote: {delta:?}"
    );
    assert!(delta.i128_max_flows > 0, "{delta:?}");
    for (g, bd) in rings.iter().zip(&cold) {
        assert_eq!(*bd, decompose_exact(g).unwrap());
    }

    // Phase 4 — cold decompose on the 2^±200 family promotes too, and stays
    // bit-identical to the rational reference.
    let before = stats::snapshot();
    for j in 0..2i32 {
        let eps = pow2(-200 - j);
        let big = pow2(200 + j);
        let g = builders::ring(vec![eps.clone(), int(1), int(1), big, eps]).unwrap();
        assert_eq!(decompose(&g).unwrap(), decompose_exact(&g).unwrap());
    }
    let delta = stats::snapshot().since(&before);
    assert!(
        delta.i128_promotions > 0,
        "cold rounds on 400-bit scale separation must promote: {delta:?}"
    );
}
