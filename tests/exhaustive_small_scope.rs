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
//! The same scope drives the delta API: from every graph, an owned
//! [`DecompositionSession`] applies every single-op [`Delta`] — each weight
//! set to each grid value, each vertex pair's edge toggled, one present edge
//! re-announced — and must agree with a cold `decompose` of the mutated
//! graph after every step (see `check_delta_scope`).
//!
//! The five-vertex scope (248,832 graphs) and the four-vertex delta scope
//! are `#[ignore]`d here and run in release by CI:
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

/// The vertex pairs `(u, v)`, `u < v`, of an `n`-vertex graph.
fn vertex_pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect()
}

/// Call `visit` on every labelled graph on exactly `n` vertices over the
/// weight grid.
fn for_each_graph(n: usize, mut visit: impl FnMut(Graph)) {
    let slots = vertex_pairs(n);
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
            visit(Graph::new(weights, &edges).unwrap());
        }
    }
}

/// Check every labelled graph on exactly `n` vertices over the weight grid.
fn check_scope(n: usize) -> Tally {
    let mut tally = Tally::default();
    for_each_graph(n, |g| {
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
    });
    tally
}

/// Every single-op delta of the scope on `g`: each weight set to each grid
/// value, each vertex pair's edge toggled, and the first present edge
/// re-announced (an idempotent insert).
fn single_op_deltas(g: &Graph) -> Vec<Delta> {
    let mut out = Vec::new();
    for v in 0..g.n() {
        for w in WEIGHTS {
            out.push(Delta::SetWeight { v, w: int(w) });
        }
    }
    for (u, v) in vertex_pairs(g.n()) {
        out.push(if g.has_edge(u, v) {
            Delta::RemoveEdge { u, v }
        } else {
            Delta::AddEdge { u, v }
        });
    }
    if let Some(&(u, v)) = g.edges().first() {
        out.push(Delta::AddEdge { u, v });
    }
    out
}

/// `g` with `delta` applied (every delta of the scope is valid).
fn mutated(g: &Graph, delta: &Delta) -> Graph {
    let mut g = g.clone();
    match *delta {
        Delta::SetWeight { v, ref w } => g.try_set_weight(v, w.clone()).unwrap(),
        Delta::AddEdge { u, v } if !g.has_edge(u, v) => g.add_edge(u, v).unwrap(),
        Delta::RemoveEdge { u, v } => g.remove_edge(u, v).unwrap(),
        _ => {}
    }
    g
}

/// Steps of a delta scope per serving tier: `[unchanged, recertified,
/// recomputed, rejected]`.
type DeltaTally = [usize; 4];

/// Apply `delta` to `session` and check the step against a cold
/// `decompose` of the mutated graph: the session then serves the same
/// decomposition or the same error, a rejected delta leaves the session
/// untouched, and `Unchanged` is reported only when the decomposition did
/// not change. Returns the serving tier's index in [`DeltaTally`].
fn check_step(session: &mut DecompositionSession, delta: &Delta) -> usize {
    let before_graph = session.graph().unwrap().clone();
    let before = session.current().cloned();
    let after_graph = mutated(&before_graph, delta);
    let cold = decompose(&after_graph);
    let outcome = match session.apply(delta.clone()) {
        Ok(outcome) => outcome,
        Err(e) => {
            assert_eq!(Err(e), cold, "{delta:?} on {before_graph:?}");
            assert_eq!(session.graph(), Some(&before_graph), "rejected {delta:?}");
            assert_eq!(session.current().cloned(), before, "rejected {delta:?}");
            return 3;
        }
    };
    assert_eq!(session.graph(), Some(&after_graph), "{delta:?}");
    let after = session.current().cloned();
    assert_eq!(after, cold, "{delta:?} on {before_graph:?}");
    match outcome {
        UpdateOutcome::Unchanged => {
            assert_eq!(
                after, before,
                "Unchanged, yet {delta:?} moved {before_graph:?}"
            );
            0
        }
        UpdateOutcome::Recertified { .. } => 1,
        UpdateOutcome::Recomputed => 2,
    }
}

/// Drive every graph on exactly `n` vertices through every sequence of
/// `depth` single-op deltas, each from a fresh owned session whose first
/// `current()` primes the delta state (when the graph decomposes). Returns
/// the checked steps per serving tier.
fn check_delta_scope(n: usize, depth: usize) -> DeltaTally {
    fn replay(g: &Graph, prefix: &[Delta]) -> DecompositionSession {
        let mut session = DecompositionSession::new(g.clone());
        let _ = session.current();
        for d in prefix {
            let _ = session.apply(d.clone());
        }
        session
    }
    fn walk(g: &Graph, prefix: &mut Vec<Delta>, depth: usize, tally: &mut DeltaTally) {
        // The deltas of the graph the prefix left committed (a rejected
        // prefix step leaves its predecessor in place).
        let here = replay(g, prefix).graph().unwrap().clone();
        for delta in single_op_deltas(&here) {
            tally[check_step(&mut replay(g, prefix), &delta)] += 1;
            if depth > 1 {
                prefix.push(delta);
                walk(g, prefix, depth - 1, tally);
                prefix.pop();
            }
        }
    }
    let mut tally = DeltaTally::default();
    for_each_graph(n, |g| walk(&g, &mut Vec::new(), depth, &mut tally));
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
fn every_single_op_delta_on_at_most_three_vertices() {
    // Pairs of deltas on n ≤ 2, single deltas on n = 3 (~0.5 s in debug;
    // pairs on n = 3 take ~5 s and run with the ignored scopes below).
    let tallies = [
        check_delta_scope(1, 2),
        check_delta_scope(2, 2),
        check_delta_scope(3, 1),
    ];
    let steps: Vec<usize> = tallies.iter().map(|t| t.iter().sum()).collect();
    assert_eq!(steps, [36, 1_156, 2_781]);
    // Every serving tier, and the rejection path, is exercised.
    assert_eq!(tallies[2], [843, 267, 393, 1_278]);
}

#[test]
#[ignore = "delta pairs on n = 3 and single deltas on n = 4: run in release by CI"]
fn every_single_op_delta_on_four_vertices() {
    let (pairs, singles) = (check_delta_scope(3, 2), check_delta_scope(4, 1));
    assert_eq!(
        [pairs.iter().sum::<usize>(), singles.iter().sum()],
        [38_616, 98_415]
    );
    assert_eq!(pairs, [11_745, 4_458, 5_304, 17_109]);
    assert_eq!(singles, [26_445, 15_814, 15_388, 40_768]);
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
