//! Brute-force reference implementation of the bottleneck decomposition.
//!
//! Enumerates all `2^n − 1` candidate sets per round to find the minimum
//! α-ratio and the maximal bottleneck (the union of all minimizers — tight
//! sets are union-closed). Exponential, only for cross-checking the
//! flow-based algorithm on small instances in tests and experiments.

use crate::decomposition::{check_pair_placement, BottleneckDecomposition, BottleneckPair};
use crate::error::BdError;
use crate::AgentClass;
use prs_graph::{Graph, VertexSet};
use prs_numeric::Rational;

/// Minimum α-ratio over nonempty positive-weight subsets of `alive`, with
/// the union of all minimizing sets (= the maximal bottleneck).
pub fn brute_force_maximal_bottleneck(
    g: &Graph,
    alive: &VertexSet,
) -> Option<(VertexSet, Rational)> {
    let members = alive.to_vec();
    let n = members.len();
    assert!(n <= 20, "brute force limited to 20 alive vertices");
    let mut best: Option<Rational> = None;
    let mut union = VertexSet::empty(g.n());
    for mask in 1u32..(1 << n) {
        let mut s = VertexSet::empty(g.n());
        for (i, &v) in members.iter().enumerate() {
            if (mask >> i) & 1 == 1 {
                s.insert(v);
            }
        }
        let Some(alpha) = g.alpha_ratio_in(&s, alive) else {
            continue; // zero-weight set: α undefined
        };
        match &best {
            Some(b) if alpha > *b => {}
            Some(b) if alpha == *b => union.union_with(&s),
            _ => {
                best = Some(alpha);
                union = s;
            }
        }
    }
    best.map(|alpha| (union, alpha))
}

/// Full decomposition by repeated brute-force rounds. Mirrors
/// [`crate::decompose`] exactly, including its error cases.
pub fn brute_force_decompose(g: &Graph) -> Result<BottleneckDecomposition, BdError> {
    if g.n() == 0 {
        return Err(BdError::EmptyGraph);
    }
    let n = g.n();
    let mut alive = VertexSet::full(n);
    let mut pairs = Vec::new();
    let mut pair_of = vec![usize::MAX; n];
    let mut class_of = vec![AgentClass::B; n];
    let mut round = 0;
    let one = Rational::one();

    while !alive.is_empty() {
        if g.set_weight_of(&alive).is_zero() {
            return Err(BdError::ZeroWeightResidue { round });
        }
        // prs-lint: allow(panic, reason = "alive set weight checked nonzero two lines up, so the brute-force minimum exists")
        let (b, alpha) = brute_force_maximal_bottleneck(g, &alive)
            .expect("positive-weight alive set has a defined minimum");
        if alpha.is_zero() {
            return Err(BdError::ZeroAlpha { round });
        }
        // Note on zero-weight vertices: if `Γ(v) ⊆ Γ(B)` and `w_v = 0`,
        // then `α(B ∪ {v}) = α(B)`, so `B ∪ {v}` is itself a minimizer and
        // the union in `brute_force_maximal_bottleneck` already absorbed `v`.
        // No extra closure pass is needed.
        let c = g.neighborhood_in(&b, &alive);
        check_pair_placement(&b, &c, &alpha, round)?;
        for v in b.iter() {
            pair_of[v] = round;
            class_of[v] = if alpha == one {
                AgentClass::Both
            } else {
                AgentClass::B
            };
        }
        for v in c.iter() {
            if !b.contains(v) {
                pair_of[v] = round;
                class_of[v] = if alpha == one {
                    AgentClass::Both
                } else {
                    AgentClass::C
                };
            }
        }
        alive.subtract(&b.union(&c));
        pairs.push(BottleneckPair { b, c, alpha });
        round += 1;
    }
    Ok(BottleneckDecomposition::from_parts(
        pairs, pair_of, class_of,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose;
    use prs_graph::{builders, random};
    use prs_numeric::int;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn agrees_with_flow_on_figure1() {
        let g = builders::figure1_example();
        let flow_bd = decompose(&g).unwrap();
        let brute_bd = brute_force_decompose(&g).unwrap();
        assert_eq!(flow_bd.signature(), brute_bd.signature());
    }

    #[test]
    fn agrees_with_flow_on_random_rings() {
        let mut rng = StdRng::seed_from_u64(2024);
        for n in 3..=9 {
            for _ in 0..20 {
                let g = random::random_ring(&mut rng, n, 1, 12);
                let flow_bd = decompose(&g).unwrap();
                let brute_bd = brute_force_decompose(&g).unwrap();
                assert_eq!(
                    flow_bd.signature(),
                    brute_bd.signature(),
                    "mismatch on ring {:?}",
                    g.weights()
                );
            }
        }
    }

    #[test]
    fn agrees_with_flow_on_random_connected_graphs() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..30 {
            let g = random::random_connected(&mut rng, 8, 0.35, 1, 9);
            let flow_bd = decompose(&g).unwrap();
            let brute_bd = brute_force_decompose(&g).unwrap();
            assert_eq!(
                flow_bd.signature(),
                brute_bd.signature(),
                "mismatch on graph {g:?}"
            );
        }
    }

    #[test]
    fn agrees_with_flow_on_paths_with_zero_leaf() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in 3..=8 {
            for _ in 0..15 {
                let mut weights = random::random_weights(&mut rng, n, 1, 8);
                weights[0] = int(0); // Sybil-style zero leaf
                let g = builders::path(weights).unwrap();
                let flow_bd = decompose(&g).unwrap();
                let brute_bd = brute_force_decompose(&g).unwrap();
                assert_eq!(
                    flow_bd.signature(),
                    brute_bd.signature(),
                    "mismatch on path {:?}",
                    g.weights()
                );
            }
        }
    }
}
