//! The session's correctness contract: a [`DecompositionSession`] — reused
//! flow arenas and all — must be **bit-identical** to a cold [`decompose`]
//! call on every graph, in every order, whatever the session served
//! before. Sessions are allowed to change where the exact arithmetic is
//! spent, never what it computes.
//!
//! Families covered: random rings, stars, sparse Erdős–Rényi connected
//! graphs, every shipped `instances/*.prs` file, and the near-tie ring
//! from `tests/near_tie_fallback.rs`, whose near-tie the exact descent
//! must separate whatever instance the session decomposed before.

use prs::bd::decompose;
use prs::graph::random;
use prs::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Assert a session-produced decomposition equals the cold one, field by
/// field (shape, exact α per pair, class per vertex, utilities).
fn assert_identical(g: &Graph, session: &mut DecompositionSession, label: &str) {
    let cold = decompose(g);
    let warm = session.decompose(g);
    match (cold, warm) {
        (Ok(cold), Ok(warm)) => {
            assert_eq!(cold.shape(), warm.shape(), "shape differs on {label}");
            assert_eq!(cold.k(), warm.k(), "pair count differs on {label}");
            for (p, q) in cold.pairs().iter().zip(warm.pairs()) {
                assert_eq!(p.alpha, q.alpha, "α differs on {label}");
                assert_eq!(p.b.to_vec(), q.b.to_vec(), "B differs on {label}");
                assert_eq!(p.c.to_vec(), q.c.to_vec(), "C differs on {label}");
            }
            for v in 0..g.n() {
                assert_eq!(
                    cold.class_of(v),
                    warm.class_of(v),
                    "class of {v} differs on {label}"
                );
                assert_eq!(
                    cold.utility(g, v),
                    warm.utility(g, v),
                    "utility of {v} differs on {label}"
                );
            }
        }
        (Err(ce), Err(we)) => assert_eq!(ce, we, "errors differ on {label}"),
        (cold, warm) => panic!("outcome differs on {label}: cold {cold:?} vs session {warm:?}"),
    }
}

#[test]
fn session_matches_cold_on_random_rings() {
    let mut rng = StdRng::seed_from_u64(2020);
    let mut session = DecompositionSession::detached();
    for n in [3usize, 4, 5, 6, 8, 10] {
        for trial in 0..6 {
            let g = random::random_ring(&mut rng, n, 1, 20);
            assert_identical(&g, &mut session, &format!("ring n={n} trial={trial}"));
        }
    }
    let s = session.stats();
    assert!(s.hits + s.misses > 0);
}

#[test]
fn session_matches_cold_on_stars() {
    let mut rng = StdRng::seed_from_u64(77);
    let mut session = DecompositionSession::detached();
    for n in [4usize, 5, 7, 9] {
        for trial in 0..4 {
            let g = builders::star(random::random_weights(&mut rng, n, 1, 15)).unwrap();
            assert_identical(&g, &mut session, &format!("star n={n} trial={trial}"));
        }
    }
}

#[test]
fn session_matches_cold_on_erdos_renyi() {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut session = DecompositionSession::detached();
    for n in [4usize, 6, 8] {
        for (trial, p) in [0.3, 0.5, 0.8].into_iter().enumerate() {
            let g = random::random_connected(&mut rng, n, p, 1, 12);
            assert_identical(&g, &mut session, &format!("er n={n} trial={trial}"));
        }
    }
}

#[test]
fn session_matches_cold_on_every_shipped_instance() {
    let dir = format!("{}/instances", env!("CARGO_MANIFEST_DIR"));
    let mut session = DecompositionSession::detached();
    let mut checked = 0usize;
    for entry in std::fs::read_dir(dir).expect("instances/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("prs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable instance");
        let g = parse_instance(&text).expect("shipped instance parses");
        // Twice: the second call reuses the arenas the first one sized.
        assert_identical(&g, &mut session, &format!("{path:?} (first pass)"));
        assert_identical(&g, &mut session, &format!("{path:?} (second pass)"));
        checked += 1;
    }
    assert!(
        checked >= 4,
        "expected the shipped instances, got {checked}"
    );
}

/// The near-tie ring from `tests/near_tie_fallback.rs`: a ~2e-16 relative
/// α gap separates the true bottleneck from a decoy. A session that has
/// just decomposed a nearby ring must reach the same (correct) answer.
#[test]
fn session_matches_cold_on_near_tie_fallback_ring() {
    let w = |x: i64| Rational::from_integer(x);
    let g = builders::ring(vec![
        w(50_000_000_000_000),
        w(300_000_000_000_000),
        w(50_000_000_000_000),
        w(1_666_666_666_666_666),
        w(10_000_000_000_000_001),
        w(1_666_666_666_666_667),
    ])
    .unwrap();

    let mut session = DecompositionSession::detached();
    // First decompose a *nearby* ring whose optimal bottleneck is the
    // gadget-A vertex {1}, so the session's arenas hold a
    // plausible-but-wrong shape's network when the near-tie ring arrives.
    let decoy = builders::ring(vec![
        w(50_000_000_000_000),
        w(300_000_000_000_000),
        w(50_000_000_000_000),
        w(2_000_000_000_000_000),
        w(10_000_000_000_000_001),
        w(2_000_000_000_000_000),
    ])
    .unwrap();
    session.decompose(&decoy).unwrap();

    assert_identical(&g, &mut session, "near-tie ring (decoy-primed)");
    assert_identical(&g, &mut session, "near-tie ring (self-primed)");
    let bd = session.decompose(&g).unwrap();
    assert_eq!(
        bd.pairs()[0].b.to_vec(),
        vec![4],
        "true bottleneck is {{4}}"
    );
}

/// A sweep-like sequence: one session serving a whole one-parameter family
/// in grid order, then revisiting interleaved points out of order.
#[test]
fn shared_session_sweep_sequence_is_bit_identical() {
    let fam_ring = builders::ring(vec![int(5), int(1), int(4), int(2), int(3)]).unwrap();
    let fam = MisreportFamily::new(fam_ring, 0);
    let (lo, hi) = fam.domain();
    let span = &hi - &lo;
    let grid = 24usize;
    let xs: Vec<Rational> = (1..grid)
        .map(|k| &lo + &(&span * &ratio(k as i64, grid as i64)))
        .collect();

    let mut session = DecompositionSession::detached();
    for x in xs.iter().chain(xs.iter().rev().step_by(3)) {
        let g = fam.graph_at(x);
        assert_identical(&g, &mut session, &format!("misreport x={x}"));
    }
}

/// Counter sanity on the public API: monotone, and hits+misses accounts
/// every decomposition round the session ever served.
#[test]
fn session_counters_are_monotone_over_a_mixed_workload() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut session = DecompositionSession::detached();
    let mut prev = session.stats();
    let mut rounds_served = 0u64;
    for n in [3usize, 5, 4, 5, 3] {
        let g = random::random_ring(&mut rng, n, 1, 9);
        let bd = session.decompose(&g).unwrap();
        rounds_served += bd.k() as u64;
        let s = session.stats();
        assert!(s.hits >= prev.hits && s.misses >= prev.misses);
        assert!(s.warm_starts >= prev.warm_starts);
        assert_eq!(s.hits + s.misses, rounds_served);
        prev = s;
    }
}
