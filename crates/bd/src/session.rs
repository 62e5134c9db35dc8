//! `DecompositionSession` — an owned instance served through a stream of
//! mutations.
//!
//! A session constructed **over an instance** ([`DecompositionSession::new`]
//! takes ownership of the [`Graph`]) serves a *stream of mutations* instead
//! of instance-at-a-time calls: [`apply`](DecompositionSession::apply) takes
//! a [`Delta`] (`SetWeight` / `AddEdge` / `RemoveEdge` / `Batch`), mutates
//! the owned instance transactionally, and reports which tier served it
//! ([`UpdateOutcome::Unchanged`] / [`Recertified`](UpdateOutcome::Recertified)
//! / [`Recomputed`](UpdateOutcome::Recomputed)). While the previous round
//! structure stays intact, the incremental solver replays the previous
//! decomposition's rounds verbatim wherever the mutation is invisible and
//! re-certifies the rounds that can see it with one flow at the previous
//! bottleneck's ratio `α(B_prev)` (or a stability cell's prediction); see
//! `DESIGN.md` §3.3 for the tier soundness arguments and cell invalidation
//! rules.
//!
//! Every round with no previous bottleneck to start from — a
//! [`detached`](DecompositionSession::detached) session's
//! [`decompose`](DecompositionSession::decompose), the first
//! [`current`](DecompositionSession::current), and every round after the
//! round structure breaks — runs the per-component solver of
//! [`decompose`](crate::decompose) on the session's own flow arenas.
//!
//! **Bit-identity.** A candidate ratio only decides where the Dinkelbach
//! descent starts, never where it ends: `α(S) ≥ α* = min α` for any vertex
//! set `S`, and at the optimum the maximal tight set extracted from the
//! residual graph is unique (flow-independent — DESIGN.md §3.1). Replay is
//! sound because a round's solution is a pure function of its alive set,
//! the weights on it and its induced adjacency, and a replayed round sees
//! none of the mutation. The `session_equivalence` and
//! `incremental_equivalence` property suites enforce this against cold
//! [`decompose`](crate::decompose) calls.

use crate::decomposition::{
    certify_with_candidate, drive, solve_round_by_component, AgentClass, BottleneckDecomposition,
    RoundNets, SolvedComponent,
};
use crate::delta::{Delta, EdgeOp, StabilityCell, UpdateOutcome};
use crate::error::BdError;
use prs_flow::stats;
use prs_graph::{Graph, VertexId, VertexSet};
use prs_numeric::Rational;

/// Counter snapshot of one session (see [`DecompositionSession::stats`]).
///
/// `hits + misses` equals the total number of decomposition rounds served;
/// `warm_starts ≥ hits` (a recertified round whose candidate fails
/// certification counts as a miss).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Delta rounds settled by verbatim replay or by one first-try
    /// certification flow.
    pub hits: u64,
    /// Rounds that ran a descent: every cold round, and every delta round
    /// whose candidate sat on the wrong side of a breakpoint.
    pub misses: u64,
    /// Delta rounds started from the previous decomposition (replayed or
    /// recertified, successful or not).
    pub warm_starts: u64,
}

/// The owned instance a session serves deltas against, with its current
/// decomposition and any installed stability cells.
struct DeltaState {
    /// The instance as of the last committed delta.
    graph: Graph,
    /// The current decomposition; `None` until the first
    /// [`current`](DecompositionSession::current) /
    /// [`apply`](DecompositionSession::apply) forces a solve.
    current: Option<BottleneckDecomposition>,
    /// Installed Prop. 11/12 breakpoint-cell certificates, consulted on the
    /// recertified tier and invalidated on commit (`DESIGN.md` §3.3).
    cells: Vec<StabilityCell>,
}

/// The canonicalized difference between the owned instance and its mutated
/// scratch copy. Computing the diff (rather than trusting the delta's
/// literal ops) coalesces batches and makes idempotent / self-cancelling
/// mutations invisible for free.
struct GraphDiff {
    /// Vertices whose weight changed.
    weights: Vec<VertexId>,
    /// Edges present after the mutation but not before.
    added: Vec<(VertexId, VertexId)>,
    /// Edges present before the mutation but not after.
    removed: Vec<(VertexId, VertexId)>,
}

impl GraphDiff {
    fn between(old: &Graph, new: &Graph) -> GraphDiff {
        let weights = (0..old.n())
            .filter(|&v| old.weight(v) != new.weight(v))
            .collect();
        let (mut added, mut removed) = (Vec::new(), Vec::new());
        let (a, b) = (old.edges(), new.edges());
        let (mut i, mut j) = (0, 0);
        // Both edge lists are sorted, so a single merge pass yields the
        // symmetric difference.
        while i < a.len() || j < b.len() {
            match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                }
                (Some(&x), Some(&y)) if x < y => {
                    removed.push(x);
                    i += 1;
                }
                (Some(_), Some(&y)) => {
                    added.push(y);
                    j += 1;
                }
                (Some(&x), None) => {
                    removed.push(x);
                    i += 1;
                }
                (None, Some(&y)) => {
                    added.push(y);
                    j += 1;
                }
                (None, None) => {}
            }
        }
        GraphDiff {
            weights,
            added,
            removed,
        }
    }

    /// True iff any part of the diff is visible inside `alive`: a moved
    /// weight on an alive vertex, or a churned edge with both endpoints
    /// alive. An edge with a dead endpoint does not exist in the
    /// alive-induced subgraph either way, so it cannot affect the round.
    fn visible_in(&self, alive: &VertexSet) -> bool {
        self.weights.iter().any(|&v| alive.contains(v))
            || self
                .added
                .iter()
                .chain(&self.removed)
                .any(|&(u, v)| alive.contains(u) && alive.contains(v))
    }
}

/// A reusable decomposition solver: owns the scaled-integer flow arenas
/// across calls and, over an owned instance, serves mutations through the
/// delta tiers.
///
/// Results are **bit-identical** to [`decompose`](crate::decompose) on every
/// input; see the module docs for the argument.
///
/// A session constructed with [`new`](Self::new) *owns* its instance and
/// serves mutations through [`apply`](Self::apply):
///
/// ```
/// use prs_bd::{decompose, DecompositionSession, Delta, UpdateOutcome};
/// use prs_graph::builders;
/// use prs_numeric::int;
///
/// let g = builders::path(vec![int(1), int(10), int(3)]).unwrap();
/// let mut session = DecompositionSession::new(g.clone());
/// assert_eq!(*session.current().unwrap(), decompose(&g).unwrap());
///
/// // Stream a mutation instead of rebuilding the instance:
/// session.apply(Delta::SetWeight { v: 0, w: int(2) }).unwrap();
/// let g2 = builders::path(vec![int(2), int(10), int(3)]).unwrap();
/// assert_eq!(*session.current().unwrap(), decompose(&g2).unwrap());
///
/// // A no-op batch is answered without touching the flow engine:
/// assert_eq!(
///     session.apply(Delta::Batch(vec![])).unwrap(),
///     UpdateOutcome::Unchanged,
/// );
/// ```
///
/// A [`detached`](Self::detached) session has no owned instance and
/// decomposes arbitrary instances on its arenas (deviation sweeps, Sybil
/// grids):
///
/// ```
/// use prs_bd::{decompose, DecompositionSession};
/// use prs_graph::builders;
/// use prs_numeric::int;
///
/// let mut session = DecompositionSession::detached();
/// for w in 1..6 {
///     let g = builders::path(vec![int(w), int(10)]).unwrap();
///     assert_eq!(session.decompose(&g).unwrap(), decompose(&g).unwrap());
/// }
/// assert_eq!(session.stats().hits, 0); // every detached round is cold
/// ```
pub struct DecompositionSession {
    nets: RoundNets,
    local: SessionStats,
    /// The owned instance + delta-serving state; `None` for detached
    /// sessions.
    delta: Option<DeltaState>,
}

impl DecompositionSession {
    /// A session owning `g`.
    ///
    /// The first [`current`](Self::current) or [`apply`](Self::apply) call
    /// decomposes the instance; construction itself does no flow work.
    pub fn new(g: Graph) -> Self {
        let mut s = Self::detached();
        s.replace_instance(g);
        s
    }

    /// A session with no owned instance: the delta API is unavailable
    /// (returns [`BdError::DetachedSession`]) but
    /// [`decompose`](Self::decompose) serves arbitrary instances through the
    /// shared arenas.
    pub fn detached() -> Self {
        DecompositionSession {
            nets: RoundNets::new(0),
            local: SessionStats::default(),
            delta: None,
        }
    }

    /// The owned instance as of the last committed delta (`None` when
    /// detached).
    pub fn graph(&self) -> Option<&Graph> {
        self.delta.as_ref().map(|s| &s.graph)
    }

    /// Lifetime hit/miss/warm-start counters for this session. The same
    /// counts also flow into the process-global [`prs_flow::stats`]
    /// (`session_hits` / `session_misses` / `session_warm_starts`).
    pub fn stats(&self) -> SessionStats {
        self.local
    }

    /// Number of installed stability cells.
    pub fn cell_count(&self) -> usize {
        self.delta.as_ref().map_or(0, |s| s.cells.len())
    }

    /// Install a [`StabilityCell`] certificate for the owned instance.
    ///
    /// Matching cells let the recertified tier predict a round's ratio
    /// without computing any candidate α-ratio. Predictions are always
    /// validated by the certification flow — a feasible flow with no tight
    /// set exposes an under-predicted α̂ and the session retries with the
    /// exact candidate ratio — so a stale or lying cell can waste one flow
    /// but never change a result. Returns `false` (dropping the cell) when
    /// the session is detached.
    pub fn install_cell(&mut self, cell: StabilityCell) -> bool {
        match self.delta.as_mut() {
            Some(state) => {
                state.cells.push(cell);
                true
            }
            None => false,
        }
    }

    /// Replace (or attach) the owned instance wholesale, dropping the delta
    /// state — current decomposition and stability cells — while keeping the
    /// flow arenas.
    pub fn replace_instance(&mut self, g: Graph) {
        self.delta = Some(DeltaState {
            graph: g,
            current: None,
            cells: Vec::new(),
        });
    }

    /// The decomposition of the owned instance, solving it on first use.
    pub fn current(&mut self) -> Result<&BottleneckDecomposition, BdError> {
        let state = self.delta.as_mut().ok_or(BdError::DetachedSession)?;
        if state.current.is_none() {
            let bd = decompose_cold(&state.graph, &mut self.nets, &mut self.local)?;
            state.current = Some(bd);
        }
        state.current.as_ref().ok_or(BdError::DetachedSession)
    }

    /// Apply one [`Delta`] to the owned instance and re-serve the
    /// decomposition, reporting which tier answered (module docs +
    /// `DESIGN.md` §3.3). Atomic: on any error the instance, the current
    /// decomposition, and the installed cells are left exactly as they
    /// were.
    pub fn apply(&mut self, delta: Delta) -> Result<UpdateOutcome, BdError> {
        let mut sp = prs_trace::span("bd", "delta_apply");
        sp.attr("ops", || delta.len().to_string());
        let Some(mut state) = self.delta.take() else {
            return Err(BdError::DetachedSession);
        };
        let out = self.apply_to_state(&mut state, &delta);
        self.delta = Some(state);
        match &out {
            Ok(UpdateOutcome::Unchanged) => {
                sp.attr("tier", || "unchanged".to_string());
                stats::record_delta_unchanged(1);
            }
            Ok(UpdateOutcome::Recertified { .. }) => {
                sp.attr("tier", || "recertified".to_string());
                stats::record_delta_recertified(1);
            }
            Ok(UpdateOutcome::Recomputed) => {
                sp.attr("tier", || "recomputed".to_string());
                // An ordinary serving tier, counted but not an anomaly: the
                // flight recorder's dump budget is kept for real ones (an
                // i128 promotion, an SLO breach).
                stats::record_delta_recomputed(1);
            }
            Err(_) => {
                sp.attr("tier", || "rejected".to_string());
            }
        }
        out
    }

    /// Replace the weight of vertex `v` with `w` — shorthand for
    /// [`apply`](Self::apply)`(Delta::SetWeight { v, w })`.
    pub fn update_weight(&mut self, v: VertexId, w: Rational) -> Result<UpdateOutcome, BdError> {
        self.apply(Delta::SetWeight { v, w })
    }

    /// Insert or remove one edge of the owned instance — shorthand for
    /// [`apply`](Self::apply) with the matching [`Delta`] variant.
    pub fn update_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        op: EdgeOp,
    ) -> Result<UpdateOutcome, BdError> {
        self.apply(match op {
            EdgeOp::Add => Delta::AddEdge { u, v },
            EdgeOp::Remove => Delta::RemoveEdge { u, v },
        })
    }

    /// The transactional body of [`apply`](Self::apply): every mutation
    /// happens on a scratch copy first, and `state` is only committed once
    /// a full re-serve has succeeded.
    fn apply_to_state(
        &mut self,
        state: &mut DeltaState,
        delta: &Delta,
    ) -> Result<UpdateOutcome, BdError> {
        let mut scratch = state.graph.clone();
        apply_delta_ops(&mut scratch, delta)?;

        // Tier 1a — net no-op: idempotent edge ops and self-cancelling
        // batches leave the instance literally equal, so the current
        // decomposition (whether or not it has been forced yet) still
        // describes it. Zero flow work.
        if scratch == state.graph {
            return Ok(UpdateOutcome::Unchanged);
        }

        let diff = GraphDiff::between(&state.graph, &scratch);

        // Cold delta state: nothing to be incremental against — decompose
        // the mutated instance from scratch.
        let Some(cur) = state.current.as_ref() else {
            let bd = decompose_cold(&scratch, &mut self.nets, &mut self.local)?;
            retain_cells(&mut state.cells, &diff, &scratch);
            state.graph = scratch;
            state.current = Some(bd);
            return Ok(UpdateOutcome::Recomputed);
        };

        // Tier 1b — strictly-C edge insertions leave the decomposition
        // untouched (DESIGN.md §3.3): for every round up to an endpoint's
        // pair, the bottleneck B_r avoids both endpoints, so Γ(B_r) — and
        // with it α_r and the maximal tight set — is unchanged, while α(S)
        // can only grow for other sets; once an endpoint is peeled the edge
        // is invisible to the induced subgraph. (The removal analogue is
        // *not* sound: deleting an edge can lower some α(S) below α_r.)
        if diff.weights.is_empty()
            && diff.removed.is_empty()
            && diff
                .added
                .iter()
                .all(|&(u, v)| cur.class_of(u) == AgentClass::C && cur.class_of(v) == AgentClass::C)
        {
            retain_cells(&mut state.cells, &diff, &scratch);
            state.graph = scratch;
            return Ok(UpdateOutcome::Unchanged);
        }

        // Tiers 2/3 — incremental re-decomposition: replay the previous
        // rounds wherever the diff is invisible, recertify the rounds that
        // can see it, solve cold once the structure diverges.
        let cell = if diff.added.is_empty() && diff.removed.is_empty() && diff.weights.len() == 1 {
            let v = diff.weights[0];
            let x = scratch.weight(v);
            state
                .cells
                .iter()
                .find(|c| c.covers(v, x) && c.shape_matches(cur))
                .cloned()
        } else {
            None
        };
        let (bd, recert_rounds, clean) =
            self.redecompose_delta(&scratch, cur, &diff, cell.as_ref())?;
        retain_cells(&mut state.cells, &diff, &scratch);
        state.graph = scratch;
        state.current = Some(bd);
        Ok(if clean {
            UpdateOutcome::Recertified {
                rounds: recert_rounds,
            }
        } else {
            UpdateOutcome::Recomputed
        })
    }

    /// Incrementally re-decompose the mutated instance `g` against the
    /// previous result. Returns the new decomposition, the number of
    /// recertified rounds, and whether the serve was *clean* (every round
    /// settled by verbatim replay or a single first-try certification flow
    /// — the [`UpdateOutcome::Recertified`] tier).
    fn redecompose_delta(
        &mut self,
        g: &Graph,
        prev: &BottleneckDecomposition,
        diff: &GraphDiff,
        cell: Option<&StabilityCell>,
    ) -> Result<(BottleneckDecomposition, usize, bool), BdError> {
        let (nets, local) = (&mut self.nets, &mut self.local);
        let mut recert_rounds = 0usize;
        let mut clean = true;
        // The round-by-round alive set the *previous* decomposition would
        // produce; as long as the actual alive set tracks it, the old round
        // structure is still in force ("prefix intact").
        let mut prefix_intact = true;
        let mut expected_alive = VertexSet::full(g.n());
        let mut solved = Vec::new();
        let focus_x = cell.map(|c| g.weight(c.vertex).clone());
        let bd = drive(g, |g, alive, round| {
            if prefix_intact {
                if round > 0 {
                    if let Some(p) = prev.pairs().get(round - 1) {
                        expected_alive.subtract(&p.b.union(&p.c));
                    }
                }
                // The equality check is the whole soundness guard: any
                // divergence — a different B, the same B with a grown or
                // shrunk partner class C, extra rounds — shows up as a
                // mismatched alive set at the next round's entry.
                if round >= prev.k() || *alive != expected_alive {
                    prefix_intact = false;
                }
            }
            let mut sp = prs_trace::span("bd", "session_round");
            sp.attr("round", || round.to_string());
            if !prefix_intact {
                // Structural break: the remaining rounds have no previous
                // bottleneck to start from.
                clean = false;
                sp.attr("path", || "cold".to_string());
                return cold_round(g, alive, round, nets, local, &mut solved);
            }
            let pair = &prev.pairs()[round];
            local.warm_starts += 1;
            stats::record_session_warm_starts(1);
            if !diff.visible_in(alive) {
                // Tail replay: this round's inputs (alive set, weights on
                // it, induced adjacency) are identical to the previous
                // decomposition's, and the round solver is a pure function
                // of them — the pair replays verbatim, zero flow work.
                sp.attr("path", || "delta_replay".to_string());
                local.hits += 1;
                stats::record_session_hits(1);
                return Ok((pair.b.clone(), pair.alpha.clone()));
            }
            // The mutation is visible: recertify this round.
            let one = Rational::one();
            let mut attempt = None;
            if let (Some(c), Some(x)) = (cell, focus_x.as_ref()) {
                // A matching stability cell predicts this round's ratio
                // outright. The certification flow adjudicates: a feasible
                // flow with no tight set means the prediction undershot the
                // optimum (a lying cell) and the exact candidate ratio below
                // retries.
                if let Some(alpha_hat) = c.alpha_curve(round).and_then(|m| m.eval(x)) {
                    if alpha_hat.is_positive() && alpha_hat <= one {
                        sp.attr("cell", || "predicted".to_string());
                        let c = certify_with_candidate(g, alive, round, nets, alpha_hat)?;
                        if !c.b.is_empty() {
                            attempt = Some(c);
                        }
                    }
                }
            }
            if attempt.is_none() {
                // Exact candidate ratio of the previous bottleneck:
                // α(B_prev) ≥ α* always, so certification either confirms
                // it (tight set extraction included) or the descent walks
                // down from it.
                if let Some(alpha_hat) = g.alpha_ratio_in(&pair.b, alive) {
                    if alpha_hat.is_positive() && alpha_hat <= one {
                        attempt = Some(certify_with_candidate(g, alive, round, nets, alpha_hat)?);
                    }
                }
            }
            match attempt {
                Some(c) if c.first_try => {
                    sp.attr("path", || "delta_recert".to_string());
                    local.hits += 1;
                    stats::record_session_hits(1);
                    recert_rounds += 1;
                    Ok((c.b, c.alpha))
                }
                Some(c) => {
                    // Crossed a breakpoint: the exact descent ran; the
                    // result is still bit-identical but the serve is no
                    // longer a pure recertification.
                    sp.attr("path", || "delta_descent".to_string());
                    local.misses += 1;
                    stats::record_session_misses(1);
                    clean = false;
                    Ok((c.b, c.alpha))
                }
                None => {
                    // No usable candidate: the mutation pushed the previous
                    // bottleneck's ratio out of (0, 1].
                    sp.attr("path", || "cold".to_string());
                    clean = false;
                    cold_round(g, alive, round, nets, local, &mut solved)
                }
            }
        })?;
        Ok((bd, recert_rounds, clean))
    }

    /// Decompose an arbitrary instance on this session's arenas.
    /// Bit-identical to [`decompose`](crate::decompose).
    ///
    /// This neither reads nor updates the session's delta state; it serves
    /// the deviation sweep and the Sybil grids, which decompose many
    /// *unrelated* instances through one arena. For a stream of mutations of
    /// one instance, construct the session over it
    /// ([`DecompositionSession::new`]) and [`apply`](Self::apply) deltas,
    /// which replays and recertifies instead of re-solving.
    pub fn decompose(&mut self, g: &Graph) -> Result<BottleneckDecomposition, BdError> {
        decompose_cold(g, &mut self.nets, &mut self.local)
    }
}

impl Default for DecompositionSession {
    /// The default session is [`detached`](DecompositionSession::detached).
    fn default() -> Self {
        Self::detached()
    }
}

/// Decompose `g` from scratch on the session's arenas: every round is a
/// [`cold_round`].
fn decompose_cold(
    g: &Graph,
    nets: &mut RoundNets,
    local: &mut SessionStats,
) -> Result<BottleneckDecomposition, BdError> {
    let mut solved = Vec::new();
    drive(g, |g, alive, round| {
        let mut sp = prs_trace::span("bd", "session_round");
        sp.attr("round", || round.to_string());
        sp.attr("path", || "cold".to_string());
        cold_round(g, alive, round, nets, local, &mut solved)
    })
}

/// One session round with no previous bottleneck to start from: the
/// per-component solver of [`decompose`](crate::decompose), counted as a
/// miss. `solved` carries the untouched components between the rounds of
/// one decomposition.
fn cold_round(
    g: &Graph,
    alive: &VertexSet,
    round: usize,
    nets: &mut RoundNets,
    local: &mut SessionStats,
    solved: &mut Vec<SolvedComponent>,
) -> Result<(VertexSet, Rational), BdError> {
    local.misses += 1;
    stats::record_session_misses(1);
    solve_round_by_component(g, alive, round, nets, solved)
}

/// Apply `delta` to `g`, validating as it goes. Idempotent edge operations
/// (inserting a present edge, removing an absent one) are accepted as
/// no-ops; everything else surfaces the underlying
/// [`GraphError`](prs_graph::GraphError) as [`BdError::InvalidDelta`].
fn apply_delta_ops(g: &mut Graph, delta: &Delta) -> Result<(), BdError> {
    match delta {
        Delta::SetWeight { v, w } => g.try_set_weight(*v, w.clone()).map_err(BdError::from),
        Delta::AddEdge { u, v } => {
            if *u < g.n() && *v < g.n() && u != v && g.has_edge(*u, *v) {
                return Ok(()); // idempotent re-insert
            }
            g.add_edge(*u, *v).map_err(BdError::from)
        }
        Delta::RemoveEdge { u, v } => {
            if *u < g.n() && *v < g.n() && !g.has_edge(*u, *v) {
                return Ok(()); // idempotent removal of an absent edge
            }
            g.remove_edge(*u, *v).map_err(BdError::from)
        }
        Delta::Batch(items) => {
            for d in items {
                apply_delta_ops(g, d)?;
            }
            Ok(())
        }
    }
}

/// Cell-cache invalidation on commit (`DESIGN.md` §3.3): a committed diff
/// keeps only the cells it provably does not disturb — a pure single-weight
/// move of the cell's own focus vertex, landing inside the cell's certified
/// interval. Any edge churn or any other vertex's weight move invalidates
/// every cell.
fn retain_cells(cells: &mut Vec<StabilityCell>, diff: &GraphDiff, g: &Graph) {
    if diff.added.is_empty() && diff.removed.is_empty() && diff.weights.len() == 1 {
        let v = diff.weights[0];
        let x = g.weight(v);
        cells.retain(|c| c.covers(v, x));
    } else {
        cells.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose;
    use crate::delta::CellMoebius;
    use prs_graph::builders;
    use prs_numeric::{int, ratio, Rational};

    fn path_graph(w0: Rational) -> Graph {
        builders::path(vec![w0, int(10), int(3)]).unwrap()
    }

    #[test]
    fn session_matches_cold_decompose_across_a_sweep() {
        let mut session = DecompositionSession::detached();
        for k in 1..40 {
            let g = path_graph(ratio(k, 7));
            let warm = session.decompose(&g).unwrap();
            let cold = decompose(&g).unwrap();
            assert_eq!(warm, cold, "diverged at w0 = {}/7", k);
        }
        // Detached rounds have no previous bottleneck: all of them are cold.
        let s = session.stats();
        assert!(s.misses > 0);
        assert_eq!((s.hits, s.warm_starts), (0, 0));
    }

    #[test]
    fn counters_are_monotone_and_account_every_round() {
        let mut session = DecompositionSession::detached();
        let mut prev = SessionStats::default();
        let mut rounds_served = 0u64;
        for k in 1..12 {
            let g = path_graph(int(k));
            let bd = session.decompose(&g).unwrap();
            rounds_served += bd.k() as u64;
            let s = session.stats();
            assert!(s.hits >= prev.hits);
            assert!(s.misses >= prev.misses);
            assert!(s.warm_starts >= prev.warm_starts);
            assert_eq!(s.hits + s.misses, rounds_served);
            prev = s;
        }
    }

    #[test]
    fn errors_propagate_and_leave_session_usable() {
        let mut session = DecompositionSession::detached();
        let empty = Graph::new(vec![], &[]).unwrap();
        assert_eq!(session.decompose(&empty), Err(BdError::EmptyGraph));
        let isolated = Graph::new(vec![int(1), int(1), int(1)], &[(0, 1)]).unwrap();
        assert!(matches!(
            session.decompose(&isolated),
            Err(BdError::ZeroAlpha { .. })
        ));
        let g = path_graph(int(3));
        assert_eq!(session.decompose(&g).unwrap(), decompose(&g).unwrap());
    }

    // ---- delta API ----

    #[test]
    fn owned_session_current_matches_cold() {
        let g = path_graph(int(4));
        let mut session = DecompositionSession::new(g.clone());
        assert_eq!(session.graph(), Some(&g));
        assert_eq!(*session.current().unwrap(), decompose(&g).unwrap());
        // Second call is served from state, same answer.
        assert_eq!(*session.current().unwrap(), decompose(&g).unwrap());
    }

    #[test]
    fn detached_session_rejects_delta_api() {
        let mut session = DecompositionSession::detached();
        assert_eq!(session.current().err(), Some(BdError::DetachedSession));
        assert_eq!(
            session.apply(Delta::SetWeight { v: 0, w: int(1) }).err(),
            Some(BdError::DetachedSession)
        );
        assert_eq!(session.graph(), None);
        assert!(!session.install_cell(StabilityCell {
            vertex: 0,
            lo: int(1),
            hi: int(2),
            shape: vec![],
            alphas: vec![],
        }));
        // Attaching an instance turns the delta API on.
        session.replace_instance(path_graph(int(2)));
        assert!(session.current().is_ok());
    }

    #[test]
    fn noop_deltas_are_unchanged_with_zero_flow_work() {
        let mut session = DecompositionSession::new(path_graph(int(5)));
        session.current().unwrap();
        let hits_before = session.stats();
        // Empty batch.
        assert_eq!(
            session.apply(Delta::Batch(vec![])).unwrap(),
            UpdateOutcome::Unchanged
        );
        // Idempotent re-insert of an existing edge.
        assert_eq!(
            session.apply(Delta::AddEdge { u: 0, v: 1 }).unwrap(),
            UpdateOutcome::Unchanged
        );
        // Idempotent removal of an absent edge.
        assert_eq!(
            session.apply(Delta::RemoveEdge { u: 0, v: 2 }).unwrap(),
            UpdateOutcome::Unchanged
        );
        // Re-stating the current weight.
        assert_eq!(
            session.update_weight(1, int(10)).unwrap(),
            UpdateOutcome::Unchanged
        );
        // A batch whose net effect cancels out.
        assert_eq!(
            session
                .apply(Delta::Batch(vec![
                    Delta::AddEdge { u: 0, v: 2 },
                    Delta::SetWeight { v: 0, w: int(9) },
                    Delta::SetWeight { v: 0, w: int(5) },
                    Delta::RemoveEdge { u: 0, v: 2 },
                ]))
                .unwrap(),
            UpdateOutcome::Unchanged
        );
        // None of those touched a solver round.
        assert_eq!(session.stats(), hits_before);
    }

    #[test]
    fn strictly_c_edge_insertion_is_unchanged() {
        // Star with a heavy hub: B = {hub}, C = all leaves, single round.
        let g = builders::star(vec![int(10), int(1), int(1), int(1)]).unwrap();
        let mut session = DecompositionSession::new(g.clone());
        let before = session.current().unwrap().clone();
        assert_eq!(before.class_of(1), AgentClass::C);
        assert_eq!(before.class_of(2), AgentClass::C);
        let stats_before = session.stats();
        assert_eq!(
            session.update_edge(1, 2, EdgeOp::Add).unwrap(),
            UpdateOutcome::Unchanged
        );
        assert_eq!(session.stats(), stats_before, "no solver round may run");
        // The committed instance has the edge; the decomposition is
        // (provably, and verifiably) identical to cold on the new graph.
        let committed = session.graph().unwrap().clone();
        assert!(committed.has_edge(1, 2));
        assert_eq!(*session.current().unwrap(), decompose(&committed).unwrap());
        assert_eq!(*session.current().unwrap(), before);
        // A later visible delta on the post-insertion instance still matches
        // cold.
        session.update_weight(3, int(7)).unwrap();
        let committed = session.graph().unwrap().clone();
        assert_eq!(*session.current().unwrap(), decompose(&committed).unwrap());
    }

    #[test]
    fn weight_delta_matches_cold_and_reports_tier() {
        let mut session = DecompositionSession::new(path_graph(int(5)));
        session.current().unwrap();
        for k in [6, 2, 40, 1] {
            let out = session.update_weight(0, int(k)).unwrap();
            assert_ne!(out, UpdateOutcome::Unchanged, "w0 = {k} must be visible");
            let committed = session.graph().unwrap().clone();
            assert_eq!(
                *session.current().unwrap(),
                decompose(&committed).unwrap(),
                "diverged at w0 = {k}"
            );
        }
    }

    #[test]
    fn edge_churn_matches_cold() {
        let g = builders::ring(vec![int(3), int(5), int(7), int(2)]).unwrap();
        let mut session = DecompositionSession::new(g);
        session.current().unwrap();
        session.apply(Delta::AddEdge { u: 0, v: 2 }).unwrap();
        let committed = session.graph().unwrap().clone();
        assert_eq!(*session.current().unwrap(), decompose(&committed).unwrap());
        session.update_edge(1, 2, EdgeOp::Remove).unwrap();
        let committed = session.graph().unwrap().clone();
        assert_eq!(*session.current().unwrap(), decompose(&committed).unwrap());
    }

    #[test]
    fn invalid_deltas_roll_back_atomically() {
        let g = path_graph(int(5));
        let mut session = DecompositionSession::new(g.clone());
        let before = session.current().unwrap().clone();
        // Out-of-range vertex.
        assert!(matches!(
            session.update_weight(99, int(1)),
            Err(BdError::InvalidDelta { .. })
        ));
        // Negative weight.
        assert!(matches!(
            session.update_weight(0, int(-3)),
            Err(BdError::InvalidDelta { .. })
        ));
        // Self-loop insertion.
        assert!(matches!(
            session.apply(Delta::AddEdge { u: 1, v: 1 }),
            Err(BdError::InvalidDelta { .. })
        ));
        // A batch that fails midway must not commit its earlier ops.
        assert!(session
            .apply(Delta::Batch(vec![
                Delta::SetWeight { v: 0, w: int(77) },
                Delta::AddEdge { u: 5, v: 6 },
            ]))
            .is_err());
        assert_eq!(session.graph(), Some(&g), "instance must be untouched");
        assert_eq!(*session.current().unwrap(), before);
    }

    #[test]
    fn solver_errors_roll_back_atomically() {
        // Removing the only edge of a positive-weight pendant vertex makes
        // the decomposition undefined (ZeroAlpha) — the session must keep
        // serving the pre-delta instance.
        let g = builders::path(vec![int(1), int(2), int(3)]).unwrap();
        let mut session = DecompositionSession::new(g.clone());
        let before = session.current().unwrap().clone();
        assert!(matches!(
            session.update_edge(0, 1, EdgeOp::Remove),
            Err(BdError::ZeroAlpha { .. })
        ));
        assert_eq!(session.graph(), Some(&g));
        assert_eq!(*session.current().unwrap(), before);
        // And it still accepts good deltas afterwards.
        assert!(session.update_weight(0, int(4)).is_ok());
        let committed = session.graph().unwrap().clone();
        assert_eq!(*session.current().unwrap(), decompose(&committed).unwrap());
    }

    #[test]
    fn stability_cells_install_and_invalidate() {
        let g = path_graph(int(5));
        let mut session = DecompositionSession::new(g);
        let shape = session.current().unwrap().shape();
        let alphas = session
            .current()
            .unwrap()
            .pairs()
            .iter()
            .map(|p| CellMoebius {
                p: Rational::zero(),
                q: p.alpha.clone(),
                r: Rational::zero(),
                s: Rational::one(),
            })
            .collect::<Vec<_>>();
        assert!(session.install_cell(StabilityCell {
            vertex: 0,
            lo: int(4),
            hi: int(6),
            shape,
            alphas,
        }));
        assert_eq!(session.cell_count(), 1);
        // A move inside the cell keeps it installed…
        session.update_weight(0, int(6)).unwrap();
        assert_eq!(session.cell_count(), 1);
        let committed = session.graph().unwrap().clone();
        assert_eq!(*session.current().unwrap(), decompose(&committed).unwrap());
        // …a move outside (or any other mutation) invalidates.
        session.update_weight(0, int(40)).unwrap();
        assert_eq!(session.cell_count(), 0);
        let committed = session.graph().unwrap().clone();
        assert_eq!(*session.current().unwrap(), decompose(&committed).unwrap());
    }

    #[test]
    fn lying_cell_cannot_change_results() {
        let g = path_graph(int(5));
        let mut session = DecompositionSession::new(g);
        let shape = session.current().unwrap().shape();
        let k = shape.len();
        // A cell that predicts an absurdly low constant α for every round.
        let alphas = (0..k)
            .map(|_| CellMoebius {
                p: Rational::zero(),
                q: Rational::one(),
                r: Rational::zero(),
                s: int(1000),
            })
            .collect::<Vec<_>>();
        session.install_cell(StabilityCell {
            vertex: 0,
            lo: int(1),
            hi: int(100),
            shape,
            alphas,
        });
        session.update_weight(0, int(6)).unwrap();
        let committed = session.graph().unwrap().clone();
        assert_eq!(*session.current().unwrap(), decompose(&committed).unwrap());
    }
}
