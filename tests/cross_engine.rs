//! Cross-engine agreement tests: the same quantity computed by independent
//! implementations must coincide — mechanism vs protocol, exact vs float,
//! grid vs certified optimizer, flow vs brute-force decomposition.
//!
//! The flow-kernel modules at the bottom instantiate the shared
//! engine-parameterized Dinic suite (`prs_flow::testkit`) once per capacity
//! backend, so every kernel property — including the long-path
//! no-stack-overflow regression — is pinned for the three library engines
//! from outside the crate, plus a test-local tolerant float backend.

use prs::prelude::*;
use prs::RingInstance;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn four_ways_to_the_same_utilities() {
    // Closed form (Prop 6), allocation row-sums, f64 dynamics limit, and the
    // message-level swarm all agree.
    let mut rng = StdRng::seed_from_u64(77);
    let g = prs::graph::random::random_ring(&mut rng, 7, 1, 9);
    let ring = RingInstance::new(g.weights().to_vec()).unwrap();

    let closed: Vec<f64> = ring
        .equilibrium_utilities()
        .iter()
        .map(|u| u.to_f64())
        .collect();

    let alloc = ring.allocation();
    let from_alloc: Vec<f64> = (0..g.n()).map(|v| alloc.utility(v).to_f64()).collect();

    let mut engine = F64Engine::new(ring.graph());
    engine.run_until_close(&closed, 1e-10, 1_000_000);
    let from_dynamics = engine.averaged_utilities();

    let mut swarm = Swarm::new(ring.graph());
    let metrics = swarm.run(&SwarmConfig {
        max_rounds: 1_000_000,
        tol: 1e-13,
        record_trace: false,
    });

    for v in 0..g.n() {
        assert_eq!(closed[v], from_alloc[v], "closed form vs allocation at {v}");
        assert!(
            (closed[v] - from_dynamics[v]).abs() < 1e-7,
            "dynamics at {v}"
        );
        assert!(
            (closed[v] - metrics.utilities[v]).abs() < 1e-5,
            "swarm at {v}"
        );
    }
}

#[test]
fn certified_and_grid_optimizers_agree_on_the_ratio() {
    let mut rng = StdRng::seed_from_u64(88);
    for _ in 0..3 {
        let g = prs::graph::random::random_ring(&mut rng, 5, 1, 12);
        for v in 0..2 {
            let grid = best_sybil_split(
                &g,
                v,
                &AttackConfig::new()
                    .with_grid(32)
                    .with_zoom_levels(5)
                    .with_keep(3),
            );
            let cert = prs::sybil::certified_best_split(&g, v, 24, 30);
            // Certified dominates and both respect Theorem 8.
            assert!(cert.best_payoff >= grid.best.total());
            assert!(cert.ratio <= Rational::from_integer(2));
            // And the gap between the two optimizers is tiny (the grid
            // optimizer is already within a fine zoom of the optimum).
            let gap = (&cert.best_payoff - &grid.best.total()).to_f64();
            assert!(
                gap <= 0.05 * cert.honest_utility.to_f64().max(1.0),
                "optimizers disagree widely: {gap} on {:?} v={v}",
                g.weights()
            );
        }
    }
}

#[test]
fn general_split_machinery_reduces_to_ring_machinery() {
    // On a ring, the general (partition-based) attack with the {succ}/{pred}
    // partition must match the split-path attack values.
    let g = prs::graph::builders::ring(vec![int(5), int(2), int(7), int(3)]).unwrap();
    let v = 2usize;
    let w1 = ratio(7, 3);
    let w2 = &int(7) - &w1;
    // General machinery: neighbors(2) = [1, 3]; copy 0 ← neighbor 1,
    // copy 1 ← neighbor 3.
    let payoff_general =
        prs::sybil::general::attack_payoff(&g, v, &[0, 1], &[w1.clone(), w2.clone()]).unwrap();
    // Ring machinery: v1 faces successor = neighbors[0] = 1.
    let fam = prs::sybil::SybilSplitFamily::new(g, v);
    let (u1, u2) = fam.payoff(&w1).unwrap();
    assert_eq!(payoff_general, &u1 + &u2);
}

#[test]
fn exact_dynamics_certifies_float_dynamics_on_paths() {
    let g = prs::graph::builders::path(vec![int(2), int(5), int(1), int(4)]).unwrap();
    let mut exact = ExactEngine::new(&g);
    let mut float = F64Engine::new(&g);
    for round in 0..15 {
        for v in 0..g.n() {
            for &u in g.neighbors(v) {
                let e = exact.sent(v, u).to_f64();
                let f = float.sent(v, u);
                assert!(
                    (e - f).abs() < 1e-9,
                    "allocation drift at round {round}, edge ({v},{u})"
                );
            }
        }
        exact.step();
        float.step();
    }
}

mod flow_kernel_exact {
    prs_flow::engine_suite!(prs_numeric::Rational);
}

mod flow_kernel_int {
    prs_flow::engine_suite!(prs_numeric::BigInt);
}

mod flow_kernel_i128 {
    prs_flow::engine_suite!(i128);
}

/// The kernel suite on a *tolerant* backend. No library path runs a float
/// flow; this test-local capacity keeps the kernel's
/// [`Capacity::Tol`](prs_flow::Capacity::Tol) hook honest: saturation is
/// "within a capacity-scaled epsilon" here and exact everywhere else, and
/// every kernel property must survive that.
mod flow_kernel_f64 {
    use prs_flow::testkit::TestCapacity;
    use prs_flow::{stats, Capacity};

    /// An `f64` capacity (a newtype: the trait and `f64` are both foreign).
    #[derive(Clone, Copy, PartialEq, Debug)]
    pub struct F64(f64);

    /// The largest finite capacity seen scales the saturation epsilon.
    #[derive(Clone, Debug, Default)]
    pub struct F64Tol {
        cap_scale: f64,
    }

    impl F64Tol {
        fn eps(&self) -> f64 {
            1e-12 * (1.0 + self.cap_scale)
        }
    }

    impl Capacity for F64 {
        type Tol = F64Tol;

        const ENGINE: &'static str = "f64";
        const SPAN_BFS: &'static str = "f64_bfs_phase";
        const SPAN_MAX_FLOW: &'static str = "f64_max_flow";

        fn zero() -> Self {
            F64(0.0)
        }
        fn is_zero(&self) -> bool {
            self.0 == 0.0
        }
        fn is_negative(&self) -> bool {
            self.0 < 0.0
        }
        fn is_positive(&self) -> bool {
            self.0 > 0.0
        }
        fn le(&self, rhs: &Self) -> bool {
            self.0 <= rhs.0
        }
        fn add_assign_ref(&mut self, rhs: &Self) {
            self.0 += rhs.0;
        }
        fn sub_assign_ref(&mut self, rhs: &Self) {
            self.0 -= rhs.0;
        }
        fn neg_ref(&self) -> Self {
            F64(-self.0)
        }
        fn sub_ref(lhs: &Self, rhs: &Self) -> Self {
            F64(lhs.0 - rhs.0)
        }
        fn has_headroom(flow: &Self, cap: &Self, tol: &F64Tol) -> bool {
            flow.0 + tol.eps() < cap.0
        }
        // Written as `!(pushed > 0)` so a NaN push counts as exhausted and
        // ends the augmentation loop.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        fn exhausted(pushed: &Self) -> bool {
            !(pushed.0 > 0.0)
        }
        fn conserved(net: &Self, tol: &F64Tol) -> bool {
            net.0.abs() <= tol.eps()
        }
        fn observe(tol: &mut F64Tol, cap: &Self) {
            tol.cap_scale = tol.cap_scale.max(cap.0);
        }
        fn record_bfs_phase() {
            stats::record_f64_bfs_phases(1);
        }
        fn record_augmenting_path() {
            stats::record_f64_augmenting_paths(1);
        }
        fn record_max_flow() {
            stats::record_f64_max_flows(1);
        }
    }

    impl TestCapacity for F64 {
        fn from_ratio(num: i64, den: i64) -> Self {
            F64(num as f64 / den as f64)
        }
        fn assert_feq(actual: &Self, expected: &Self) {
            assert!(
                (actual.0 - expected.0).abs() <= 1e-9 * (1.0 + expected.0.abs()),
                "f64 flow {} differs from expected {}",
                actual.0,
                expected.0
            );
        }
    }

    prs_flow::engine_suite!(F64);
}

#[test]
fn moebius_breakpoints_match_bisection_brackets() {
    let g = prs::graph::builders::ring(vec![int(6), int(2), int(4), int(3), int(5)]).unwrap();
    let fam = MisreportFamily::new(g, 0);
    let res = sweep(&fam, &SweepConfig::new().with_grid(32).with_refine_bits(24));
    let exact = prs::deviation::exact_breakpoints(&fam, &res);
    for (w, bp) in res.intervals.windows(2).zip(&exact) {
        if let Some(x) = bp {
            assert!(
                *x >= w[0].hi && *x <= w[1].lo,
                "exact breakpoint {x} outside its bisection bracket"
            );
        }
    }
}
