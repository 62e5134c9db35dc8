//! Exact bottleneck decomposition via parametric max-flow.
//!
//! ## Algorithm
//!
//! For a parameter `α`, build the Hall-type feasibility network
//!
//! ```text
//!   s ──w_v──▶ v_L      (every alive vertex v)
//!   v_L ──∞──▶ u_R      (every alive edge (v,u), both directions)
//!   u_R ──w_u/α──▶ t
//! ```
//!
//! The max flow saturates the source arcs **iff** `w(S) ≤ w(Γ(S))/α` for all
//! alive `S`, i.e. iff `α ≤ min_S α(S)` (a deficiency-version of Hall's
//! theorem). Dinkelbach iteration then computes `α* = min_S α(S)` exactly:
//! start at `α = α(V_alive)`, and while infeasible, read a violating set off
//! the min cut (its α-ratio is strictly smaller) and retry with that ratio.
//! Each step strictly decreases `α` within the finite set
//! `{w(Γ(S))/w(S) : S ⊆ V}`, so the loop terminates at the exact optimum.
//!
//! At the optimum, the **maximal bottleneck** is recovered from the residual
//! graph of the feasible flow: `v` belongs to it iff `v_L` has *no* residual
//! path to `t`. (Tight sets form a union-closed family; the unreachable set
//! is exactly their union — see DESIGN.md §3.1 for the exchange argument.)
//!
//! ## Engines
//!
//! [`decompose`] runs every Dinkelbach step on the scaled-integer network
//! ([`RoundNets`]: checked `i128`, promoting to BigInt when a round's
//! capacities do not fit), through the same loop the session's delta
//! recertification uses ([`certify_with_candidate`]). It solves each round
//! one connected component of the alive subgraph at a time, and a component
//! the round leaves untouched keeps its solution for the next round: a
//! round's maximal bottleneck is the union of the components' maximal
//! bottlenecks at the smallest component optimum (DESIGN.md §3.1).
//! [`decompose_exact`] keeps the single-tier, whole-alive-set rational
//! descent as the reference oracle.
//!
//! ## Zero weights
//!
//! Every engine, and the brute-force reference, rejects a round whose
//! maximal bottleneck absorbs zero-weight vertices its pair cannot hold
//! (`check_pair_placement`), so each returns the same typed error where
//! Proposition 3 would otherwise fail.

use crate::error::BdError;
use prs_flow::network_i128::{overflow_detected, reset_overflow};
use prs_flow::{
    stats, Cap, CapI128, CapInt, Capacity, EdgeId, FlowNetwork, NetworkI128, NetworkInt,
};
use prs_graph::{Graph, VertexId, VertexSet};
use prs_numeric::{gcd::lcm, BigInt, BigUint, Rational, Sign};

/// Which side of its bottleneck pair an agent is on (Definition 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AgentClass {
    /// In `B_i` with `α_i < 1`.
    B,
    /// In `C_i` with `α_i < 1`.
    C,
    /// In the terminal pair `B_k = C_k` with `α_k = 1`: simultaneously B- and
    /// C-class.
    Both,
}

impl AgentClass {
    /// True for `B` and `Both`.
    pub fn is_b(self) -> bool {
        matches!(self, AgentClass::B | AgentClass::Both)
    }

    /// True for `C` and `Both`.
    pub fn is_c(self) -> bool {
        matches!(self, AgentClass::C | AgentClass::Both)
    }
}

/// One bottleneck pair `(B_i, C_i)` with its α-ratio.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BottleneckPair {
    /// The maximal bottleneck `B_i`.
    pub b: VertexSet,
    /// Its neighbor set `C_i = Γ(B_i)` in the round's subgraph.
    pub c: VertexSet,
    /// `α_i = w(C_i)/w(B_i)`.
    pub alpha: Rational,
}

/// The bottleneck decomposition `𝓑 = {(B₁,C₁), …, (B_k,C_k)}` of a graph,
/// together with the per-vertex class partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BottleneckDecomposition {
    pairs: Vec<BottleneckPair>,
    pair_of: Vec<usize>,
    class_of: Vec<AgentClass>,
}

impl BottleneckDecomposition {
    /// Assemble a decomposition from raw parts (used by the brute-force
    /// reference implementation; invariants are the caller's burden).
    pub(crate) fn from_parts(
        pairs: Vec<BottleneckPair>,
        pair_of: Vec<usize>,
        class_of: Vec<AgentClass>,
    ) -> Self {
        BottleneckDecomposition {
            pairs,
            pair_of,
            class_of,
        }
    }

    /// The ordered pairs `(B_i, C_i)`, `α` strictly increasing.
    pub fn pairs(&self) -> &[BottleneckPair] {
        &self.pairs
    }

    /// Number of pairs `k`.
    pub fn k(&self) -> usize {
        self.pairs.len()
    }

    /// Index `i` of the pair containing vertex `v`.
    pub fn pair_of(&self, v: VertexId) -> usize {
        self.pair_of[v]
    }

    /// The class of vertex `v` (Definition 4).
    pub fn class_of(&self, v: VertexId) -> AgentClass {
        self.class_of[v]
    }

    /// `α_v`: the α-ratio of the pair containing `v`.
    pub fn alpha_of(&self, v: VertexId) -> &Rational {
        &self.pairs[self.pair_of[v]].alpha
    }

    /// The equilibrium utility of `v` under the BD allocation
    /// (Proposition 6): `w_v·α_i` for B-class, `w_v/α_i` for C-class,
    /// `w_v` for the terminal `α = 1` pair.
    pub fn utility(&self, g: &Graph, v: VertexId) -> Rational {
        let alpha = self.alpha_of(v);
        match self.class_of[v] {
            AgentClass::B => g.weight(v) * alpha,
            AgentClass::C => g.weight(v) / alpha,
            AgentClass::Both => g.weight(v).clone(),
        }
    }

    /// All equilibrium utilities in vertex order.
    pub fn utilities(&self, g: &Graph) -> Vec<Rational> {
        (0..g.n()).map(|v| self.utility(g, v)).collect()
    }

    /// A canonical, comparable description of the decomposition: for each
    /// pair, the sorted members of `B_i` and `C_i` plus `α_i`. Two graphs
    /// (over the same vertex ids) have equal signatures iff their
    /// decompositions coincide — used by the misreport sweep to detect
    /// breakpoints.
    pub fn signature(&self) -> Vec<(Vec<VertexId>, Vec<VertexId>, Rational)> {
        self.pairs
            .iter()
            .map(|p| (p.b.to_vec(), p.c.to_vec(), p.alpha.clone()))
            .collect()
    }

    /// The combinatorial part of the signature (pair memberships only,
    /// ignoring the α values, which move continuously with weights).
    pub fn shape(&self) -> Vec<(Vec<VertexId>, Vec<VertexId>)> {
        self.pairs
            .iter()
            .map(|p| (p.b.to_vec(), p.c.to_vec()))
            .collect()
    }

    /// Check every clause of Proposition 3 plus partition-ness; returns a
    /// description of the first violated invariant, if any.
    pub fn check_proposition3(&self, g: &Graph) -> Result<(), String> {
        let n = g.n();
        let k = self.pairs.len();
        let one = Rational::one();
        // Pairs partition V.
        let mut seen = VertexSet::empty(n);
        for (i, p) in self.pairs.iter().enumerate() {
            let bc = p.b.union(&p.c);
            if !seen.is_disjoint(&bc) {
                return Err(format!("pair {i} overlaps earlier pairs"));
            }
            seen.union_with(&bc);
        }
        if seen.len() != n {
            return Err("pairs do not cover V".into());
        }
        for (i, p) in self.pairs.iter().enumerate() {
            // (1) strictly increasing, positive, ≤ 1.
            if !p.alpha.is_positive() {
                return Err(format!("α_{i} not positive"));
            }
            if p.alpha > one {
                return Err(format!("α_{i} > 1"));
            }
            if i + 1 < k && self.pairs[i].alpha >= self.pairs[i + 1].alpha {
                return Err(format!("α_{i} ≥ α_{}", i + 1));
            }
            // (2) α_i = 1 ⟹ i = k−1 and B = C; else B independent, B∩C = ∅.
            if p.alpha == one {
                if i != k - 1 {
                    return Err(format!("α_{i} = 1 but pair is not last"));
                }
                if p.b != p.c {
                    return Err("α = 1 pair has B ≠ C".into());
                }
            } else {
                if !p.b.is_disjoint(&p.c) {
                    return Err(format!("pair {i}: B ∩ C ≠ ∅ with α < 1"));
                }
                let full = VertexSet::full(n);
                if !g.is_independent_in(&p.b, &full) {
                    return Err(format!("pair {i}: B not independent with α < 1"));
                }
            }
        }
        // (3) no B_i – B_j edges; (4) B_i – C_j edges need j ≤ i.
        for &(u, v) in g.edges() {
            for (x, y) in [(u, v), (v, u)] {
                if self.class_of[x] == AgentClass::B {
                    let i = self.pair_of[x];
                    let j = self.pair_of[y];
                    match self.class_of[y] {
                        AgentClass::B if i != j => {
                            return Err(format!("edge between B_{i} and B_{j}"))
                        }
                        AgentClass::C | AgentClass::Both if j > i => {
                            return Err(format!("edge from B_{i} into C_{j} with j > i"))
                        }
                        _ => {}
                    }
                }
            }
        }
        Ok(())
    }
}

/// Node layout of the feasibility network.
pub(crate) struct Layout {
    pub(crate) n: usize,
}

impl Layout {
    pub(crate) const S: usize = 0;
    pub(crate) const T: usize = 1;
    pub(crate) fn left(&self, v: VertexId) -> usize {
        2 + v
    }
    pub(crate) fn right(&self, v: VertexId) -> usize {
        2 + self.n + v
    }
    pub(crate) fn nodes(&self) -> usize {
        2 + 2 * self.n
    }
}

/// Build the Hall feasibility network for parameter `alpha` on the induced
/// subgraph `alive`.
fn feasibility_network(g: &Graph, alive: &VertexSet, alpha: &Rational) -> FlowNetwork {
    let layout = Layout { n: g.n() };
    let mut net = FlowNetwork::new(layout.nodes());
    for v in alive.iter() {
        net.add_edge(Layout::S, layout.left(v), Cap::Finite(g.weight(v).clone()));
        net.add_edge(layout.right(v), Layout::T, Cap::Finite(g.weight(v) / alpha));
        for &u in g.neighbors(v) {
            if alive.contains(u) {
                net.add_edge(layout.left(v), layout.right(u), Cap::Infinite);
            }
        }
    }
    net
}

/// Find the maximal bottleneck of the induced subgraph on `alive` and its
/// α-ratio, exactly — single-tier reference: every Dinkelbach step is an
/// exact max-flow on a freshly built network.
fn maximal_bottleneck_exact(
    g: &Graph,
    alive: &VertexSet,
    round: usize,
) -> Result<(VertexSet, Rational), BdError> {
    let layout = Layout { n: g.n() };
    let w_alive = g.set_weight_of(alive);
    debug_assert!(!w_alive.is_zero());

    // α₀ = α(V_alive) = w(Γ(V_alive) ∩ alive) / w(alive) ≤ 1.
    // prs-lint: allow(panic, reason = "decompose() rejects zero-weight alive sets before every round, so the ratio is defined")
    let mut alpha = g
        .alpha_ratio_in(alive, alive)
        .expect("w(alive) > 0 checked by caller");
    if alpha.is_zero() {
        return Err(BdError::ZeroAlpha { round });
    }

    loop {
        stats::record_dinkelbach_iterations(1);
        let mut sp = prs_trace::span("bd", "dinkelbach_iter");
        sp.attr("engine", || "exact".to_string());
        let mut net = feasibility_network(g, alive, &alpha);
        let flow = net.max_flow(Layout::S, Layout::T);
        if flow == w_alive {
            // Feasible: α = min_S α(S). Extract the maximal tight set.
            let reaches = net.residual_reaches_sink(Layout::T);
            let mut b = VertexSet::empty(g.n());
            for v in alive.iter() {
                if !reaches[layout.left(v)] {
                    b.insert(v);
                }
            }
            debug_assert!(!b.is_empty(), "a tight set must exist at the optimum");
            return Ok((b, alpha));
        }
        // Infeasible: the s-side of the min cut yields a violating set.
        let side = net.min_cut_source_side(Layout::S);
        let mut s_set = VertexSet::empty(g.n());
        for v in alive.iter() {
            if side[layout.left(v)] {
                s_set.insert(v);
            }
        }
        // prs-lint: allow(panic, reason = "the s-side of an infeasible cut contains a source arc, hence positive weight; failure is a solver bug")
        let new_alpha = g
            .alpha_ratio_in(&s_set, alive)
            .expect("violating sets have positive weight");
        if new_alpha.is_zero() {
            return Err(BdError::ZeroAlpha { round });
        }
        debug_assert!(
            new_alpha < alpha,
            "Dinkelbach step must strictly decrease α"
        );
        alpha = new_alpha;
    }
}

/// Which engine holds the current scaled-integer certification build.
///
/// `rebuild` admits a round to the checked-`i128` tier iff both endpoint
/// cap totals fit in `i128` (every individual capacity is bounded by its
/// total, so they then fit too); otherwise — or when the checked arithmetic
/// trips at runtime — the round promotes to the BigInt engine, which
/// computes the identical answer without the width limit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CertEngine {
    /// The checked machine-word fast tier (`NetworkI128`).
    I128,
    /// The arbitrary-precision fallback (`NetworkInt`).
    Int,
}

impl CertEngine {
    /// The `engine` label of this engine's flow spans (`"i128"`, `"int"`).
    fn label(self) -> &'static str {
        match self {
            CertEngine::I128 => <i128 as Capacity>::ENGINE,
            CertEngine::Int => <BigInt as Capacity>::ENGINE,
        }
    }
}

/// The scaled-integer feasibility network of one decomposition round — the
/// single certification engine behind [`decompose`] and the session's delta
/// recertification.
///
/// At `α = p/q` in lowest terms every capacity of the Hall network is
/// multiplied by the positive constant `p·D`, where `D` is the lcm of the
/// alive weights' denominators: source arcs carry `(w_v·D)·p`, sink arcs
/// `(w_v·D)·q`, middle arcs stay infinite. Uniform positive scaling
/// preserves the feasibility decision, min cuts and residual reachability of
/// the rational network, so every set extracted here is bit-identical to
/// what [`decompose_exact`] extracts — while each Dinic step is a plain
/// integer add or compare instead of a gcd-normalized rational operation.
///
/// The network is rebuilt **in place** once per round ([`RoundNets::rebuild`])
/// and re-parameterized capacity-only between Dinkelbach steps
/// ([`RoundNets::set_alpha`]), so a step allocates nothing.
pub(crate) struct RoundNets {
    /// The BigInt engine. Only meaningful when `cert_engine == CertEngine::Int`.
    exact_int: NetworkInt,
    /// Checked-`i128` twin of `exact_int` — the certification fast tier.
    /// Same arc order, hence the same `EdgeId`s. Only meaningful when
    /// `cert_engine == CertEngine::I128`.
    exact_i128: NetworkI128,
    /// Which engine the last `rebuild`/`set_alpha` targeted.
    cert_engine: CertEngine,
    /// Scaled integer weight `w_v·D` per alive vertex, in `alive` order.
    int_weights: Vec<BigInt>,
    /// Sum of the integer source capacities `Σ w_v·D·p` — the feasibility
    /// target: the scaled network saturates its sources iff the max flow
    /// equals this.
    int_source_total: BigInt,
    /// Per alive vertex: `(v, sink edge)`, in `alive` order. Both engines
    /// add arcs in the same order, so the ids are valid for whichever
    /// engine built last.
    sink_edges: Vec<(VertexId, EdgeId)>,
    /// Per alive vertex: `(v, source edge)`, in `alive` order.
    source_edges: Vec<(VertexId, EdgeId)>,
}

impl RoundNets {
    pub(crate) fn new(n_nodes: usize) -> Self {
        RoundNets {
            exact_int: NetworkInt::new(n_nodes),
            exact_i128: NetworkI128::new(n_nodes),
            cert_engine: CertEngine::Int,
            int_weights: Vec::new(),
            int_source_total: BigInt::zero(),
            sink_edges: Vec::new(),
            source_edges: Vec::new(),
        }
    }

    /// Build the scaled-integer network for the induced subgraph on `alive`
    /// at `alpha = p/q`: the `p·D` scaling described on [`RoundNets`], on
    /// the `i128` engine when the capacities admit and on BigInt otherwise.
    pub(crate) fn rebuild(&mut self, g: &Graph, alive: &VertexSet, alpha: &Rational) {
        self.int_weights.clear();
        let mut d = BigUint::one();
        for v in alive.iter() {
            let den = g.weight(v).denom();
            if !den.is_one() {
                d = lcm(&d, den);
            }
        }
        let integral = d.is_one();
        let d = BigInt::from_parts(Sign::Plus, d);
        for v in alive.iter() {
            let w = g.weight(v);
            // w_v·D is integral because denom(w_v) divides D; integer
            // weights (the common case) skip the division.
            let iw = if integral {
                w.numer().clone()
            } else {
                w.numer() * &(&d / &BigInt::from_parts(Sign::Plus, w.denom().clone()))
            };
            self.int_weights.push(iw);
        }
        let p = alpha.numer();
        let q = BigInt::from_parts(Sign::Plus, alpha.denom().clone());
        debug_assert!(p.is_positive(), "bottleneck ratios are positive");
        if let Some((caps, total)) = scaled_caps_i128(&self.int_weights, p, &q) {
            self.build_arcs_i128(g, alive, &caps);
            self.int_source_total = BigInt::from(total);
        } else {
            // Build-time promotion: some p·D-scaled capacity (or an endpoint
            // total) does not fit in i128 — go straight to BigInt.
            stats::record_i128_promotions(1);
            prs_trace::metrics::anomaly("i128_promotion_build");
            let (caps, total) = scaled_caps(&self.int_weights, p, &q);
            self.build_arcs_int(g, alive, &caps);
            self.int_source_total = total;
        }
    }

    /// Add the certification arcs to the BigInt engine. Arc order matches
    /// `build_arcs_i128`, so the recorded `EdgeId`s are valid for whichever
    /// engine built last.
    fn build_arcs_int(&mut self, g: &Graph, alive: &VertexSet, caps: &[(BigInt, BigInt)]) {
        let layout = Layout { n: g.n() };
        self.cert_engine = CertEngine::Int;
        self.exact_int.clear(layout.nodes());
        self.sink_edges.clear();
        self.source_edges.clear();
        for (i, v) in alive.iter().enumerate() {
            let s = self.exact_int.add_edge(
                Layout::S,
                layout.left(v),
                CapInt::Finite(caps[i].0.clone()),
            );
            let e = self.exact_int.add_edge(
                layout.right(v),
                Layout::T,
                CapInt::Finite(caps[i].1.clone()),
            );
            self.sink_edges.push((v, e));
            self.source_edges.push((v, s));
            for &u in g.neighbors(v) {
                if alive.contains(u) {
                    self.exact_int
                        .add_edge(layout.left(v), layout.right(u), CapInt::Infinite);
                }
            }
        }
    }

    /// Add the certification arcs to the checked-`i128` fast tier. Same arc
    /// order as `build_arcs_int` — the engines are `EdgeId`-compatible.
    fn build_arcs_i128(&mut self, g: &Graph, alive: &VertexSet, caps: &[(i128, i128)]) {
        let layout = Layout { n: g.n() };
        self.cert_engine = CertEngine::I128;
        reset_overflow();
        self.exact_i128.clear(layout.nodes());
        self.sink_edges.clear();
        self.source_edges.clear();
        for (i, v) in alive.iter().enumerate() {
            let s = self
                .exact_i128
                .add_edge(Layout::S, layout.left(v), CapI128::Finite(caps[i].0));
            let e =
                self.exact_i128
                    .add_edge(layout.right(v), Layout::T, CapI128::Finite(caps[i].1));
            self.sink_edges.push((v, e));
            self.source_edges.push((v, s));
            for &u in g.neighbors(v) {
                if alive.contains(u) {
                    self.exact_i128
                        .add_edge(layout.left(v), layout.right(u), CapI128::Infinite);
                }
            }
        }
    }

    /// Re-parameterize the network to `alpha = p'/q'`. Both arc families
    /// depend on α here (source caps carry the `p` factor of the scale), so
    /// both are rewritten; `D` and the arc structure are untouched. An
    /// i128-tier round whose new capacities no longer fit promotes to BigInt
    /// here (the descent can only shrink `p`, but `q` can grow without
    /// bound).
    pub(crate) fn set_alpha(&mut self, g: &Graph, alive: &VertexSet, alpha: &Rational) {
        let p = alpha.numer();
        let q = BigInt::from_parts(Sign::Plus, alpha.denom().clone());
        debug_assert!(p.is_positive(), "bottleneck ratios are positive");
        debug_assert_eq!(self.int_weights.len(), self.source_edges.len());
        match self.cert_engine {
            CertEngine::I128 => match scaled_caps_i128(&self.int_weights, p, &q) {
                Some((caps, total)) => {
                    reset_overflow();
                    for (i, &(src, snk)) in caps.iter().enumerate() {
                        self.exact_i128
                            .set_capacity(self.source_edges[i].1, CapI128::Finite(src));
                        self.exact_i128
                            .set_capacity(self.sink_edges[i].1, CapI128::Finite(snk));
                    }
                    self.exact_i128.reset_flow();
                    self.int_source_total = BigInt::from(total);
                }
                None => {
                    // Mid-descent promotion: the BigInt twin was never built
                    // this round, so construct it outright (same arc order →
                    // the recorded EdgeIds stay valid).
                    stats::record_i128_promotions(1);
                    prs_trace::metrics::anomaly("i128_promotion_descent");
                    let (caps, total) = scaled_caps(&self.int_weights, p, &q);
                    self.build_arcs_int(g, alive, &caps);
                    self.int_source_total = total;
                }
            },
            CertEngine::Int => {
                let (caps, total) = scaled_caps(&self.int_weights, p, &q);
                for (i, (src, snk)) in caps.into_iter().enumerate() {
                    self.exact_int
                        .set_capacity(self.source_edges[i].1, CapInt::Finite(src));
                    self.exact_int
                        .set_capacity(self.sink_edges[i].1, CapInt::Finite(snk));
                }
                self.exact_int.reset_flow();
                self.int_source_total = total;
            }
        }
    }

    /// Run the certification max-flow on the active engine, returning the
    /// flow value in BigInt units. If a *runtime* overflow poisons the i128
    /// result, it is discarded and the max-flow reruns on a freshly built
    /// BigInt network at the same α.
    fn cert_max_flow(&mut self, g: &Graph, alive: &VertexSet, alpha: &Rational) -> BigInt {
        match self.cert_engine {
            CertEngine::I128 => {
                let flow = self.exact_i128.max_flow(Layout::S, Layout::T);
                if !overflow_detected() {
                    return BigInt::from(flow);
                }
                // The admission check bounds every partial sum by an endpoint
                // total that fits, so this is defense-in-depth rather than an
                // expected path — but soundness must not depend on that
                // argument staying true under refactors. (The poison flag
                // itself already tripped the flight recorder inside
                // `prs_flow`; this anomaly marks the promotion decision.)
                stats::record_i128_promotions(1);
                prs_trace::metrics::anomaly("i128_promotion_runtime");
                let p = alpha.numer();
                let q = BigInt::from_parts(Sign::Plus, alpha.denom().clone());
                let (caps, _) = scaled_caps(&self.int_weights, p, &q);
                self.build_arcs_int(g, alive, &caps);
                self.exact_int.max_flow(Layout::S, Layout::T)
            }
            CertEngine::Int => self.exact_int.max_flow(Layout::S, Layout::T),
        }
    }

    /// `α(S) = w(Γ(S))/w(S)` within the current build's `alive` set (`S ⊆
    /// alive`), summed over the scaled weights `w_v·D`: the common factor
    /// `D` cancels, so the value equals [`Graph::alpha_ratio_in`] while the
    /// sums are integer additions with one normalization at the end instead
    /// of a rational addition per vertex. `None` when `w(S) = 0`.
    fn ratio_in(&self, g: &Graph, s: &VertexSet, alive: &VertexSet) -> Option<Rational> {
        let gamma = g.neighborhood_in(s, alive);
        let mut num = BigInt::zero();
        let mut den = BigInt::zero();
        for (&(v, _), iw) in self.source_edges.iter().zip(&self.int_weights) {
            if s.contains(v) {
                den += iw;
            }
            if gamma.contains(v) {
                num += iw;
            }
        }
        (!den.is_zero()).then(|| Rational::from_bigints(num, den))
    }

    /// Engine-dispatched [`prs_flow::Network::residual_reaches_sink`].
    fn cert_residual_reaches_sink(&self) -> Vec<bool> {
        match self.cert_engine {
            CertEngine::I128 => self.exact_i128.residual_reaches_sink(Layout::T),
            CertEngine::Int => self.exact_int.residual_reaches_sink(Layout::T),
        }
    }

    /// Engine-dispatched [`prs_flow::Network::min_cut_source_side`].
    fn cert_min_cut_source_side(&self) -> Vec<bool> {
        match self.cert_engine {
            CertEngine::I128 => self.exact_i128.min_cut_source_side(Layout::S),
            CertEngine::Int => self.exact_int.min_cut_source_side(Layout::S),
        }
    }
}

/// The scaled certification capacities `(w_v·D·p, w_v·D·q)` of the alive
/// vertices (`int_weights` holds `w_v·D`), with the source total `Σ w_v·D·p`
/// — the feasibility target.
fn scaled_caps(int_weights: &[BigInt], p: &BigInt, q: &BigInt) -> (Vec<(BigInt, BigInt)>, BigInt) {
    let mut total = BigInt::zero();
    let caps = int_weights
        .iter()
        .map(|iw| {
            let src = iw * p;
            total += &src;
            (src, iw * q)
        })
        .collect();
    (caps, total)
}

/// [`scaled_caps`] in checked `i128` words — the admission test of the fast
/// tier. Succeeds iff every capacity *and* both endpoint totals fit (the
/// `checked_add` chain proves the totals, which in turn bound every partial
/// sum the kernel can form: a flow value never exceeds an endpoint total, so
/// an admitted network cannot overflow at runtime). The alive set carries
/// positive weight, so some `w_v·D ≥ 1` and the capacities fit only if `p`
/// and `q` do. Returns `None` on the first miss, which the callers count as
/// one promotion to BigInt.
fn scaled_caps_i128(
    int_weights: &[BigInt],
    p: &BigInt,
    q: &BigInt,
) -> Option<(Vec<(i128, i128)>, i128)> {
    let (p, q) = (p.to_i128()?, q.to_i128()?);
    let mut src_total: i128 = 0;
    let mut snk_total: i128 = 0;
    let mut out = Vec::with_capacity(int_weights.len());
    for iw in int_weights {
        let iw = iw.to_i128()?;
        let (s, k) = (iw.checked_mul(p)?, iw.checked_mul(q)?);
        src_total = src_total.checked_add(s)?;
        snk_total = snk_total.checked_add(k)?;
        out.push((s, k));
    }
    Some((out, src_total))
}

/// A settled Dinkelbach descent (see [`certify_with_candidate`]).
pub(crate) struct Certified {
    /// The maximal tight set at `alpha`. Empty only when a *predicted*
    /// candidate ratio undershot the round optimum on the first try.
    pub(crate) b: VertexSet,
    /// The certified ratio.
    pub(crate) alpha: Rational,
    /// False iff the candidate failed certification and the descent ran.
    pub(crate) first_try: bool,
}

/// Certify a candidate ratio `α̂` on the round's scaled-integer network,
/// descending exactly while infeasible. This is the one Dinkelbach loop of
/// the crate's production path: cold rounds start it at `α = 1` on each
/// connected component ([`solve_round_by_component`]) or at
/// `α₀ = α(V_alive)` ([`maximal_bottleneck`]), and the session's delta
/// recertification at the previous bottleneck's (or a stability cell's)
/// ratio.
///
/// The candidate decides only where the descent starts, never the result:
///
/// * a feasible flow with a nonempty tight set proves `α̂` is the round
///   optimum (some set attains it), and the maximal tight set extracted from
///   the residual graph is unique (DESIGN.md §3.1);
/// * infeasibility proves `α̂` is above the optimum, and the min cut yields
///   a violating set whose ratio is strictly smaller and still `≥ α*`;
/// * a feasible flow with an *empty* tight set means `α̂` sits strictly
///   below the optimum. The ratio `α(S)` of a real set never does, so only
///   a prediction (a stability-cell evaluation) can: the result then comes
///   back with an empty `b` and `first_try` set, and the caller retries
///   with an exact candidate ratio.
pub(crate) fn certify_with_candidate(
    g: &Graph,
    alive: &VertexSet,
    round: usize,
    nets: &mut RoundNets,
    alpha_hat: Rational,
) -> Result<Certified, BdError> {
    let layout = Layout { n: g.n() };
    nets.rebuild(g, alive, &alpha_hat);
    let mut alpha = alpha_hat;
    let mut first = true;
    loop {
        stats::record_dinkelbach_iterations(1);
        let mut sp = prs_trace::span("bd", "dinkelbach_iter");
        if !first {
            nets.set_alpha(g, alive, &alpha);
        }
        let flow = nets.cert_max_flow(g, alive, &alpha);
        let engine = nets.cert_engine.label();
        sp.attr("engine", || engine.to_string());
        // Feasible iff the sources saturate: max flow = Σ (w_v·D)·p.
        if flow == nets.int_source_total {
            let reaches = nets.cert_residual_reaches_sink();
            let mut b = VertexSet::empty(g.n());
            for v in alive.iter() {
                if !reaches[layout.left(v)] {
                    b.insert(v);
                }
            }
            debug_assert!(
                first || !b.is_empty(),
                "a tight set must exist at the optimum"
            );
            return Ok(Certified {
                b,
                alpha,
                first_try: first,
            });
        }
        // Infeasible: the s-side of the min cut yields a violating set.
        first = false;
        let side = nets.cert_min_cut_source_side();
        let mut s_set = VertexSet::empty(g.n());
        for v in alive.iter() {
            if side[layout.left(v)] {
                s_set.insert(v);
            }
        }
        // prs-lint: allow(panic, reason = "the s-side of an infeasible cut contains a source arc, hence positive weight; failure is a solver bug")
        let new_alpha = nets
            .ratio_in(g, &s_set, alive)
            .expect("violating sets have positive weight");
        if new_alpha.is_zero() {
            return Err(BdError::ZeroAlpha { round });
        }
        debug_assert!(
            new_alpha < alpha,
            "Dinkelbach step must strictly decrease α"
        );
        alpha = new_alpha;
    }
}

/// Find the maximal bottleneck of the induced subgraph on `alive` and its
/// α-ratio, cold: the [`certify_with_candidate`] descent started at
/// `α₀ = α(V_alive)`. Every step runs on the scaled-integer network, on
/// `i128` unless the round promotes.
fn maximal_bottleneck(
    g: &Graph,
    alive: &VertexSet,
    round: usize,
    nets: &mut RoundNets,
) -> Result<(VertexSet, Rational), BdError> {
    // prs-lint: allow(panic, reason = "decompose() rejects zero-weight alive sets before every round, so the ratio is defined")
    let alpha0 = g
        .alpha_ratio_in(alive, alive)
        .expect("w(alive) > 0 checked by caller");
    if alpha0.is_zero() {
        return Err(BdError::ZeroAlpha { round });
    }
    let c = certify_with_candidate(g, alive, round, nets, alpha0)?;
    Ok((c.b, c.alpha))
}

/// Compute the bottleneck decomposition of `g` (Definition 2), exactly.
///
/// Each round is solved one connected component of the alive subgraph at a
/// time. A round's maximal bottleneck is the union of the maximal
/// bottlenecks of the components whose own minimum ratio equals the global
/// one (a mediant argument, DESIGN.md §3.1), so only the
/// components a round consumed change before the next one; every other
/// component keeps its `(B, α)` from the round that solved it. Each
/// component runs the Dinkelbach descent from `α₀ = α(component)` on the
/// scaled-integer feasibility network ([`RoundNets`]): capacities are
/// multiplied by `p·D` so every flow step is integer arithmetic, on checked
/// `i128` words unless the capacities do not fit, in which case it promotes
/// to BigInt. Neither the split nor the scaling changes a decision, so the
/// result is bit-identical to [`decompose_exact`] while avoiding its
/// gcd-normalized rational arithmetic and its whole-graph re-solves. The
/// network is rebuilt in place per descent and re-parameterized
/// capacity-only inside it.
///
/// Errors on the degenerate inputs for which the decomposition is undefined:
/// empty graphs, subgraphs whose minimum α-ratio is 0 (isolated
/// positive-weight agents), residues of total weight 0, and rounds whose
/// maximal bottleneck absorbs zero-weight vertices its pair cannot hold
/// (both [`BdError::ZeroWeightResidue`]).
pub fn decompose(g: &Graph) -> Result<BottleneckDecomposition, BdError> {
    let mut nets = RoundNets::new(2 + 2 * g.n().max(1));
    let mut solved = Vec::new();
    drive(g, |g, alive, round| {
        solve_round_by_component(g, alive, round, &mut nets, &mut solved)
    })
}

/// A connected component of an earlier round's alive subgraph, with the
/// maximal bottleneck and ratio of the subgraph it induces.
pub(crate) struct SolvedComponent {
    members: VertexSet,
    b: VertexSet,
    alpha: Rational,
}

/// The connected components of the subgraph induced on `alive`, in
/// ascending order of their smallest vertex.
fn alive_components(g: &Graph, alive: &VertexSet) -> Vec<VertexSet> {
    let mut unseen = alive.clone();
    let mut components = Vec::new();
    let mut stack = Vec::new();
    for root in alive.iter() {
        if !unseen.contains(root) {
            continue;
        }
        unseen.remove(root);
        let mut members = VertexSet::empty(g.n());
        stack.push(root);
        while let Some(v) = stack.pop() {
            members.insert(v);
            for &u in g.neighbors(v) {
                if unseen.contains(u) {
                    unseen.remove(u);
                    stack.push(u);
                }
            }
        }
        components.push(members);
    }
    components
}

/// One round of [`decompose`]: the maximal bottleneck of the subgraph
/// induced on `alive`, solved per connected component.
///
/// For disjoint components `G₁…G_m` of positive weight and any
/// `S = ⋃ Sᵢ` (`Sᵢ ⊆ Gᵢ`, neighborhoods stay inside their component),
/// `α(S) = Σ w(Γ(Sᵢ)) / Σ w(Sᵢ)` is a mediant of the ratios `α(Sᵢ)` of its
/// nonempty parts, so `α(S) ≥ minᵢ α*ᵢ`, with equality iff every nonempty
/// `Sᵢ` is tight at that minimum in its own component. The round's optimum
/// is therefore `α* = minᵢ α*ᵢ`, and its maximal bottleneck is the union of
/// the components' maximal bottlenecks at `α*`.
///
/// `solved` carries the components of earlier rounds that were not
/// consumed (their `α*ᵢ` exceeded the round's `α*`), in ascending order of
/// their smallest vertex. The graph is fixed for the whole call and a
/// component's solution depends only on its vertex set, so a component
/// whose vertex set equals an entry's reuses that entry's `(B, α)` instead
/// of running a descent; any other component is solved afresh.
///
/// The merge needs every vertex to carry weight: a zero-weight vertex whose
/// alive neighbours all have weight 0 joins every tight set, so it would sit
/// in the whole-graph bottleneck even when its own component is not at the
/// minimum. A round with any zero-weight alive vertex is therefore solved
/// on the whole alive set, as [`maximal_bottleneck`] does.
pub(crate) fn solve_round_by_component(
    g: &Graph,
    alive: &VertexSet,
    round: usize,
    nets: &mut RoundNets,
    solved: &mut Vec<SolvedComponent>,
) -> Result<(VertexSet, Rational), BdError> {
    if alive.iter().any(|v| g.weight(v).is_zero()) {
        solved.clear();
        return maximal_bottleneck(g, alive, round, nets);
    }
    // Components in ascending order of their smallest vertex, like the
    // entries: a round removes `B ∪ C` from the components it consumed
    // only, so every entry reappears unchanged, in order.
    let mut earlier = std::mem::take(solved).into_iter().peekable();
    let mut current = Vec::new();
    for members in alive_components(g, alive) {
        let component = match earlier.next_if(|s| s.members == members) {
            Some(s) => s,
            None => {
                // A connected component of two or more vertices is its own
                // neighborhood, so its descent starts at α(component) = 1;
                // a lone vertex has none (α = 0).
                if members.len() == 1 {
                    return Err(BdError::ZeroAlpha { round });
                }
                let c = certify_with_candidate(g, &members, round, nets, Rational::one())?;
                SolvedComponent {
                    members,
                    b: c.b,
                    alpha: c.alpha,
                }
            }
        };
        current.push(component);
    }
    // prs-lint: allow(panic, reason = "drive() only calls a round solver on a nonempty alive set, which has at least one component")
    let alpha = current
        .iter()
        .map(|s| &s.alpha)
        .min()
        .cloned()
        .expect("a nonempty alive set has a component");
    let mut b = VertexSet::empty(g.n());
    for s in current.iter().filter(|s| s.alpha == alpha) {
        b.union_with(&s.b);
    }
    current.retain(|s| s.alpha != alpha);
    *solved = current;
    Ok((b, alpha))
}

/// Compute the bottleneck decomposition with the single-tier exact engine:
/// every Dinkelbach step is an exact max-flow on a freshly built rational
/// network.
///
/// Kept as the reference implementation; `decompose` must agree with it on
/// every input (asserted by the cross-engine property suite).
pub fn decompose_exact(g: &Graph) -> Result<BottleneckDecomposition, BdError> {
    drive(g, maximal_bottleneck_exact)
}

/// Reject a round whose maximal bottleneck swallowed zero-weight vertices
/// that its pair cannot hold (Proposition 3, clause 2).
///
/// A zero-weight vertex joins every tight set whose neighborhood covers its
/// own up to zero-weight vertices, since it changes neither `w(S)` nor
/// `w(Γ(S))`. An isolated one then lands in `B` but not in `C = Γ(B)`
/// (`B ≠ C` at `α = 1`), and two adjacent ones land in `B ∩ C` (at
/// `α < 1`). Leaving them out of `B` would strand them in a later residue
/// of total weight 0, so the round fails with
/// [`BdError::ZeroWeightResidue`] (DESIGN.md §3.1). Every engine and the
/// brute-force reference apply this check to the same `(B, C, α)`.
pub(crate) fn check_pair_placement(
    b: &VertexSet,
    c: &VertexSet,
    alpha: &Rational,
    round: usize,
) -> Result<(), BdError> {
    let placed = if *alpha == Rational::one() {
        b == c
    } else {
        b.is_disjoint(c)
    };
    if placed {
        Ok(())
    } else {
        Err(BdError::ZeroWeightResidue { round })
    }
}

/// The shared round loop of every decomposition engine: peel maximal
/// bottlenecks off the alive set until it is empty, classifying vertices as
/// it goes. `solve_round(g, alive, round)` supplies each round's
/// `(B, α)` — the rational reference descent, the per-component
/// scaled-integer descent, or the session's delta solver — and every
/// round's pair passes [`check_pair_placement`].
pub(crate) fn drive<F>(g: &Graph, mut solve_round: F) -> Result<BottleneckDecomposition, BdError>
where
    F: FnMut(&Graph, &VertexSet, usize) -> Result<(VertexSet, Rational), BdError>,
{
    if g.n() == 0 {
        return Err(BdError::EmptyGraph);
    }
    let n = g.n();
    let mut sp = prs_trace::span("bd", "decompose");
    sp.attr("n", || n.to_string());
    let mut alive = VertexSet::full(n);
    let mut pairs = Vec::new();
    let mut pair_of = vec![usize::MAX; n];
    let mut class_of = vec![AgentClass::B; n];
    let mut round = 0;

    while !alive.is_empty() {
        if alive.iter().all(|v| g.weight(v).is_zero()) {
            return Err(BdError::ZeroWeightResidue { round });
        }
        let (b, alpha) = {
            let mut sp_round = prs_trace::span("bd", "round");
            sp_round.attr("round", || round.to_string());
            sp_round.attr("alive", || alive.len().to_string());
            solve_round(g, &alive, round)?
        };
        let c = g.neighborhood_in(&b, &alive);
        let one = Rational::one();
        debug_assert!(alpha <= one, "α(S) ≤ α(V) ≤ 1 on every subgraph");
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
        let removed = b.union(&c);
        alive.subtract(&removed);
        pairs.push(BottleneckPair { b, c, alpha });
        round += 1;
    }

    sp.attr("rounds", || round.to_string());
    let bd = BottleneckDecomposition {
        pairs,
        pair_of,
        class_of,
    };
    debug_assert_eq!(bd.check_proposition3(g), Ok(()));
    Ok(bd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_graph::builders;
    use prs_numeric::{int, ratio, Rational};

    fn ints(vals: &[i64]) -> Vec<Rational> {
        vals.iter().map(|&v| int(v)).collect()
    }

    #[test]
    fn figure1_decomposition() {
        let g = builders::figure1_example();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.k(), 2);
        assert_eq!(bd.pairs()[0].b.to_vec(), vec![0, 1]); // {v1, v2}
        assert_eq!(bd.pairs()[0].c.to_vec(), vec![2]); // {v3}
        assert_eq!(bd.pairs()[0].alpha, ratio(1, 3));
        assert_eq!(bd.pairs()[1].b.to_vec(), vec![3, 4, 5]); // {v4, v5, v6}
        assert_eq!(bd.pairs()[1].c.to_vec(), vec![3, 4, 5]);
        assert_eq!(bd.pairs()[1].alpha, int(1));
        assert_eq!(bd.class_of(0), AgentClass::B);
        assert_eq!(bd.class_of(2), AgentClass::C);
        assert_eq!(bd.class_of(4), AgentClass::Both);
        assert_eq!(bd.check_proposition3(&g), Ok(()));
    }

    #[test]
    fn figure1_utilities_match_prop6() {
        let g = builders::figure1_example();
        let bd = decompose(&g).unwrap();
        // v1 ∈ B₁: U = 2·(1/3). v2 ∈ B₁: U = 1·(1/3). v3 ∈ C₁:
        // U = 1/(1/3) = 3. v4..v6 (α = 1): U = w = 1.
        assert_eq!(bd.utility(&g, 0), ratio(2, 3));
        assert_eq!(bd.utility(&g, 1), ratio(1, 3));
        assert_eq!(bd.utility(&g, 2), int(3));
        for v in 3..6 {
            assert_eq!(bd.utility(&g, v), int(1));
        }
        // Total utility equals total weight (everything given is received).
        let total: Rational = bd.utilities(&g).iter().sum();
        assert_eq!(total, g.total_weight());
    }

    #[test]
    fn uniform_even_ring_alpha_one() {
        let g = builders::uniform_ring(6, int(1)).unwrap();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.k(), 1);
        assert_eq!(bd.pairs()[0].alpha, int(1));
        assert_eq!(bd.pairs()[0].b.len(), 6);
        assert!((0..6).all(|v| bd.class_of(v) == AgentClass::Both));
    }

    #[test]
    fn uniform_odd_ring_alpha_one() {
        let g = builders::uniform_ring(5, int(1)).unwrap();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.k(), 1);
        assert_eq!(bd.pairs()[0].alpha, int(1));
        assert_eq!(bd.pairs()[0].b.len(), 5);
    }

    #[test]
    fn two_vertex_path() {
        // Weights 1 and 4: B = {light}, C = {heavy}, α = 1/4? No: α(S) for
        // S={0}: w({1})/w({0}) = 4; S={1}: 1/4; S={0,1}: 5/5 = 1. Min = 1/4.
        let g = builders::path(ints(&[1, 4])).unwrap();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.k(), 1);
        assert_eq!(bd.pairs()[0].alpha, ratio(1, 4));
        assert_eq!(bd.pairs()[0].b.to_vec(), vec![1]);
        assert_eq!(bd.pairs()[0].c.to_vec(), vec![0]);
        assert_eq!(bd.utility(&g, 1), int(1)); // 4 · 1/4
        assert_eq!(bd.utility(&g, 0), int(4)); // 1 / (1/4)
    }

    #[test]
    fn balanced_two_vertex_path_is_alpha_one() {
        let g = builders::path(ints(&[3, 3])).unwrap();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.k(), 1);
        assert_eq!(bd.pairs()[0].alpha, int(1));
        assert_eq!(bd.pairs()[0].b.to_vec(), vec![0, 1]);
    }

    #[test]
    fn star_heavy_center() {
        // Center weight 10, three leaves weight 1: min α = 3/10 (S = center),
        // so B = {center}, C = leaves.
        let g = builders::star(ints(&[10, 1, 1, 1])).unwrap();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.k(), 1);
        assert_eq!(bd.pairs()[0].alpha, ratio(3, 10));
        assert_eq!(bd.pairs()[0].b.to_vec(), vec![0]);
        assert_eq!(bd.pairs()[0].c.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn star_light_center() {
        // Center 1, leaves 10 each: min α = 1/30 (S = leaves), B = leaves.
        let g = builders::star(ints(&[1, 10, 10, 10])).unwrap();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.pairs()[0].alpha, ratio(1, 30));
        assert_eq!(bd.pairs()[0].b.to_vec(), vec![1, 2, 3]);
        assert_eq!(bd.pairs()[0].c.to_vec(), vec![0]);
    }

    #[test]
    fn heavy_interior_path_single_pair() {
        // Path 1 – 100 – 1 – 1. Candidate ratios: α({1}) = 2/100 = 1/50,
        // α({1,3}) = w({0,2})/w({1,3}) = 2/101 < 1/50 — and {1,3} is
        // independent, so the maximal bottleneck absorbs the far leaf:
        // B = {1,3}, C = Γ(B) = {0,2}, one pair, α = 2/101.
        let g = builders::path(ints(&[1, 100, 1, 1])).unwrap();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.k(), 1);
        assert_eq!(bd.pairs()[0].alpha, ratio(2, 101));
        assert_eq!(bd.pairs()[0].b.to_vec(), vec![1, 3]);
        assert_eq!(bd.pairs()[0].c.to_vec(), vec![0, 2]);
    }

    #[test]
    fn multi_pair_path() {
        // Path 10 – 1 – 5 – 5. Round 0: α({1}) = 15/1 large; α({0})=1/10;
        // α({0,2}) = (1+5)/15 = 2/5; α({0}) = 1/10 is the minimum
        // (independent sets only can win; {0} beats {0,2} since vertex 2's
        // neighborhood adds weight 5+1=6 for weight 5).
        // So B₁={0}, C₁={1}, α₁=1/10; residue {2,3} has α = 1 (balanced edge).
        let g = builders::path(ints(&[10, 1, 5, 5])).unwrap();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.k(), 2);
        assert_eq!(bd.pairs()[0].alpha, ratio(1, 10));
        assert_eq!(bd.pairs()[0].b.to_vec(), vec![0]);
        assert_eq!(bd.pairs()[0].c.to_vec(), vec![1]);
        assert_eq!(bd.pairs()[1].alpha, int(1));
        assert_eq!(bd.pairs()[1].b.to_vec(), vec![2, 3]);
        assert_eq!(bd.check_proposition3(&g), Ok(()));
    }

    #[test]
    fn zero_weight_leaf_joins_its_neighbors_pair() {
        // Path 0(w=0) – 1(w=2) – 2(w=3): the zero-weight leaf lands in the
        // same pair as vertex 1's pair, B side (cf. Case C-2 of Lemma 14).
        let g = builders::path(vec![int(0), int(2), int(3)]).unwrap();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.check_proposition3(&g), Ok(()));
        let total: Rational = bd.utilities(&g).iter().sum();
        assert_eq!(total, g.total_weight());
        assert_eq!(bd.utility(&g, 0), int(0));
    }

    #[test]
    fn isolated_positive_vertex_is_zero_alpha_error() {
        let g = prs_graph::Graph::new(ints(&[1, 1, 1]), &[(0, 1)]).unwrap();
        assert!(matches!(decompose(&g), Err(BdError::ZeroAlpha { .. })));
    }

    #[test]
    fn empty_graph_error() {
        let g = prs_graph::Graph::new(vec![], &[]).unwrap();
        assert_eq!(decompose(&g), Err(BdError::EmptyGraph));
    }

    #[test]
    fn signature_detects_combinatorial_change() {
        let g1 = builders::path(ints(&[1, 4])).unwrap();
        let g2 = builders::path(ints(&[1, 5])).unwrap();
        let s1 = decompose(&g1).unwrap();
        let s2 = decompose(&g2).unwrap();
        assert_eq!(s1.shape(), s2.shape()); // same B/C split
        assert_ne!(s1.signature(), s2.signature()); // different α
    }
}
