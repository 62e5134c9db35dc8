//! `churn-replay`: long-lived `DecompositionSession`s, one per ring, apply
//! a seeded stream of re-reports and join/leave edge toggles.

use crate::harness::{Scale, Workload};
use crate::record::Recorder;
use crate::reference::Reference;
use prs_core::bd::{
    decompose, BdError, BottleneckDecomposition, DecompositionSession, Delta, UpdateOutcome,
};
use prs_core::graph::{random, Graph};
use prs_core::numeric::Rational;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rings, their event streams, and the sessions replaying them. Operation
/// `i` of a pass is event `i / rings` of ring `i % rings`, so rings take
/// turns.
pub struct ChurnReplay {
    rings: Vec<Graph>,
    streams: Vec<Vec<Delta>>,
    sessions: Vec<DecompositionSession>,
    /// Each ring with the replayed events applied, for the cold check.
    mirrors: Vec<Graph>,
    scale: Scale,
}

/// A Zipf(1.1) sampler over the vertices of an `n`-ring, with popularity
/// ranks assigned to vertices by a seeded shuffle.
struct Zipf {
    cumulative: Vec<f64>,
    vertex_of_rank: Vec<usize>,
}

impl Zipf {
    fn new(rng: &mut StdRng, n: usize) -> Self {
        let mut acc = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(1.1);
                acc
            })
            .collect();
        let mut vertex_of_rank: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            vertex_of_rank.swap(i, rng.gen_range(0..=i));
        }
        Zipf {
            cumulative,
            vertex_of_rank,
        }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let u = rng.gen_range(0.0..total);
        let rank = self.cumulative.partition_point(|&c| c <= u);
        self.vertex_of_rank[rank.min(self.vertex_of_rank.len() - 1)]
    }
}

/// A ring's event stream: 75% Zipf weight re-reports, 20% toggles of one
/// of four chords (a peer joining or leaving a link), 5% re-announcements
/// of an existing ring edge. With this mix about 70% of the events are
/// answered `Recomputed` and about 30% by the cheaper tiers, so the median
/// event lies inside the `Recomputed` tier for every seed instead of on a
/// tier boundary.
fn stream(rng: &mut StdRng, n: usize, len: usize) -> Vec<Delta> {
    let zipf = Zipf::new(rng, n);
    let chords: Vec<(usize, usize)> = (0..4)
        .map(|_| {
            let u = rng.gen_range(0..n / 2);
            (u, u + n / 2)
        })
        .collect();
    let mut present = [false; 4];
    (0..len)
        .map(|_| match rng.gen_range(0..20) {
            0..=14 => Delta::SetWeight {
                v: zipf.sample(rng),
                w: Rational::from_integer(rng.gen_range(1..=50)),
            },
            15..=18 => {
                let c = rng.gen_range(0..chords.len());
                let (u, v) = chords[c];
                present[c] = !present[c];
                if present[c] {
                    Delta::AddEdge { u, v }
                } else {
                    Delta::RemoveEdge { u, v }
                }
            }
            _ => {
                let u = rng.gen_range(0..n);
                Delta::AddEdge { u, v: (u + 1) % n }
            }
        })
        .collect()
}

/// Apply `delta` to `g` with the session's semantics: adding a present
/// edge or removing an absent one is a no-op.
fn mirror(g: &mut Graph, delta: &Delta) -> Result<(), String> {
    let r = match delta {
        Delta::SetWeight { v, w } => g.try_set_weight(*v, w.clone()),
        Delta::AddEdge { u, v } if !g.has_edge(*u, *v) => g.add_edge(*u, *v),
        Delta::RemoveEdge { u, v } if g.has_edge(*u, *v) => g.remove_edge(*u, *v),
        Delta::Batch(items) => {
            return items.iter().try_for_each(|d| mirror(g, d));
        }
        _ => Ok(()),
    };
    r.map_err(|e| format!("mirror: {e}"))
}

fn open_sessions(rings: &[Graph]) -> Result<Vec<DecompositionSession>, BdError> {
    rings
        .iter()
        .map(|g| {
            let mut s = DecompositionSession::new(g.clone());
            s.current()?;
            Ok(s)
        })
        .collect()
}

impl Workload for ChurnReplay {
    type Out = (usize, usize);
    type Seen = BottleneckDecomposition;

    fn setup(seed: u64, scale: Scale, rec: &mut Recorder) -> Self {
        let (sizes, len): (Vec<usize>, usize) = match scale {
            Scale::Full => ([32, 64].repeat(24), 32),
            Scale::Tiny => (vec![8, 12], 48),
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4E2);
        let rings: Vec<Graph> = sizes
            .iter()
            .map(|&n| rec.span("graph.build", || random::random_ring(&mut rng, n, 1, 50)))
            .collect();
        let streams = sizes.iter().map(|&n| stream(&mut rng, n, len)).collect();
        let sessions = open_sessions(&rings).expect("seeded rings have positive weights");
        ChurnReplay {
            mirrors: rings.clone(),
            rings,
            streams,
            sessions,
            scale,
        }
    }

    fn reference() -> Reference {
        Reference::kernel(1)
    }

    fn pass_len(&self) -> usize {
        self.rings.len() * self.streams[0].len()
    }

    fn window(&self) -> usize {
        match self.scale {
            Scale::Full => 1024,
            Scale::Tiny => 32,
        }
    }

    fn describe_inputs(&self) -> String {
        format!("{:?} {:?}", self.rings, self.streams)
    }

    fn op(&mut self, i: usize, rec: &mut Recorder) -> Result<Self::Out, String> {
        let (r, k) = (i % self.rings.len(), i / self.rings.len());
        let delta = self.streams[r][k].clone();
        let t = rec.start();
        let outcome = self.sessions[r]
            .apply(delta)
            .map_err(|e| format!("ring {r} event {k}: {e}"))?;
        // Apply times are bucketed by the tier that served the event; the
        // tier shares come from the library's delta counters.
        rec.end(
            match outcome {
                UpdateOutcome::Unchanged => "bd.apply.unchanged",
                UpdateOutcome::Recertified { .. } => "bd.apply.recertified",
                UpdateOutcome::Recomputed => "bd.apply.recomputed",
            },
            t,
            1,
        );
        Ok((r, k))
    }

    fn check(&mut self, (r, k): Self::Out, first_pass: bool) -> Result<Self::Seen, String> {
        let current = self.sessions[r]
            .current()
            .map_err(|e| format!("session state: {e}"))?
            .clone();
        if first_pass {
            mirror(&mut self.mirrors[r], &self.streams[r][k])?;
            let cold = decompose(&self.mirrors[r]).map_err(|e| format!("cold decompose: {e}"))?;
            if current != cold {
                return Err(format!("ring {r} event {k}: session differs from cold"));
            }
        }
        Ok(current)
    }
}
