//! Exhaustive small-scope check of the decomposition engines: every
//! labelled graph on up to four vertices, with every weight drawn from
//! {0, 1, 2}, is decomposed by `decompose` (the per-component i128 → BigInt
//! descent), `decompose_exact` (the rational oracle) and the brute-force
//! Definition 2 reference. All three must return the same result — the same
//! decomposition or the same typed error — and every decomposition must
//! satisfy Proposition 3. A panic anywhere fails the test.
//!
//! The weight grid includes 0, so the error paths are covered too: isolated
//! positive vertices (`ZeroAlpha`), all-zero residues, and zero-weight
//! vertices that the round's maximal bottleneck absorbs but its pair cannot
//! hold (both `ZeroWeightResidue`).
//!
//! The five-vertex scope (248,832 graphs) is `#[ignore]`d here and run in
//! release by CI:
//! `cargo test --release --test exhaustive_small_scope -- --ignored`.

use prs::bd::reference::brute_force_decompose;
use prs::prelude::*;

/// Weight grid of the scope.
const WEIGHTS: [i64; 3] = [0, 1, 2];

/// Outcome tally of one scope.
#[derive(Default)]
struct Tally {
    graphs: usize,
    ok: usize,
    zero_alpha: usize,
    zero_weight_residue: usize,
}

/// Check every labelled graph on exactly `n` vertices over the weight grid.
fn check_scope(n: usize) -> Tally {
    let slots: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect();
    let mut tally = Tally::default();
    for edge_mask in 0u32..(1 << slots.len()) {
        let edges: Vec<(usize, usize)> = slots
            .iter()
            .enumerate()
            .filter(|&(i, _)| edge_mask >> i & 1 == 1)
            .map(|(_, &e)| e)
            .collect();
        for mut code in 0..WEIGHTS.len().pow(n as u32) {
            let weights: Vec<Rational> = (0..n)
                .map(|_| {
                    let w = WEIGHTS[code % WEIGHTS.len()];
                    code /= WEIGHTS.len();
                    int(w)
                })
                .collect();
            let g = Graph::new(weights, &edges).unwrap();
            let fast = decompose(&g);
            let exact = decompose_exact(&g);
            let brute = brute_force_decompose(&g);
            assert_eq!(fast, exact, "decompose vs decompose_exact on {g:?}");
            assert_eq!(exact, brute, "decompose_exact vs brute force on {g:?}");
            tally.graphs += 1;
            match fast {
                Ok(bd) => {
                    assert_eq!(bd.check_proposition3(&g), Ok(()), "Prop. 3 on {g:?}");
                    tally.ok += 1;
                }
                Err(BdError::ZeroAlpha { .. }) => tally.zero_alpha += 1,
                Err(BdError::ZeroWeightResidue { .. }) => tally.zero_weight_residue += 1,
                Err(e) => panic!("unexpected error {e:?} on {g:?}"),
            }
        }
    }
    tally
}

#[test]
fn every_graph_on_at_most_four_vertices() {
    let scopes: Vec<Tally> = (1..=4).map(check_scope).collect();
    let graphs: usize = scopes.iter().map(|t| t.graphs).sum();
    assert_eq!(
        graphs, 5_421,
        "3 + 18 + 216 + 5,184 labelled weighted graphs"
    );
    // The error mix pins the rule: 182 of the 257 `ZeroWeightResidue`
    // graphs are rounds whose bottleneck absorbed unplaceable zero-weight
    // vertices; the rest have an all-zero residue.
    let ok: usize = scopes.iter().map(|t| t.ok).sum();
    let zero_alpha: usize = scopes.iter().map(|t| t.zero_alpha).sum();
    let residue: usize = scopes.iter().map(|t| t.zero_weight_residue).sum();
    assert_eq!((ok, zero_alpha, residue), (2_350, 2_814, 257));
}

#[test]
#[ignore = "248,832 graphs: under a minute in release, run by CI"]
fn every_graph_on_five_vertices() {
    let t = check_scope(5);
    assert_eq!(t.graphs, 248_832);
    assert_eq!(
        (t.ok, t.zero_alpha, t.zero_weight_residue),
        (129_926, 109_312, 9_594)
    );
}
