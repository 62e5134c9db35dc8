//! `cold-decompose`: `decompose` then `allocate` on instances no session
//! has seen, so every round certifies cold.

use crate::harness::{Scale, Workload};
use crate::record::Recorder;
use crate::reference::Reference;
use prs_core::bd::{allocate, decompose, decompose_exact, Allocation, BottleneckDecomposition};
use prs_core::graph::{random, Graph};
use prs_core::numeric::Rational;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The instance pool; a pass decomposes each once, in order.
pub struct ColdDecompose {
    graphs: Vec<Graph>,
    /// Instances also checked bit-identical against `decompose_exact`.
    exact_checked: Vec<bool>,
    scale: Scale,
}

/// The instance at pool position `i`: six random rings of the largest
/// size, one of half that size, and one sparse connected graph per eight.
fn instance(rng: &mut StdRng, scale: Scale, i: usize) -> Graph {
    let (ring_n, small_n, graph_n) = match scale {
        Scale::Full => (128, 64, 48),
        Scale::Tiny => (12, 8, 8),
    };
    match i % 8 {
        6 => random::random_ring(rng, small_n, 1, 100),
        // About three neighbours per vertex.
        7 => random::random_connected(rng, graph_n, 2.0 / graph_n as f64, 1, 100),
        _ => random::random_ring(rng, ring_n, 1, 100),
    }
}

impl Workload for ColdDecompose {
    type Out = (usize, BottleneckDecomposition, Allocation);
    type Seen = (BottleneckDecomposition, Allocation);

    fn setup(seed: u64, scale: Scale, rec: &mut Recorder) -> Self {
        let count = match scale {
            Scale::Full => 64,
            Scale::Tiny => 8,
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC01D);
        let mut graphs = Vec::with_capacity(count);
        let mut exact_checked = Vec::with_capacity(count);
        for i in 0..count {
            graphs.push(rec.span("graph.build", || instance(&mut rng, scale, i)));
            exact_checked.push(i == 0 || rng.gen_range(0..8) == 0);
        }
        ColdDecompose {
            graphs,
            exact_checked,
            scale,
        }
    }

    fn reference() -> Reference {
        Reference::kernel(1)
    }

    fn pass_len(&self) -> usize {
        self.graphs.len()
    }

    fn window(&self) -> usize {
        match self.scale {
            Scale::Full => 16,
            Scale::Tiny => 4,
        }
    }

    fn describe_inputs(&self) -> String {
        format!("{:?} {:?}", self.graphs, self.exact_checked)
    }

    fn op(&mut self, i: usize, rec: &mut Recorder) -> Result<Self::Out, String> {
        let g = &self.graphs[i];
        let bd = rec
            .span("bd.decompose", || decompose(g))
            .map_err(|e| format!("decompose instance {i}: {e}"))?;
        let alloc = rec.span("bd.allocate", || allocate(g, &bd));
        Ok((i, bd, alloc))
    }

    fn check(&mut self, (i, bd, alloc): Self::Out, first_pass: bool) -> Result<Self::Seen, String> {
        if !first_pass {
            return Ok((bd, alloc));
        }
        let g = &self.graphs[i];
        bd.check_proposition3(g)
            .map_err(|e| format!("instance {i}: Proposition 3: {e}"))?;
        alloc
            .check_budget_balance(g)
            .map_err(|e| format!("instance {i}: budget balance: {e}"))?;
        let total: Rational = alloc.utilities().iter().sum();
        if total != g.total_weight() {
            return Err(format!(
                "instance {i}: utilities sum to {total}, total weight is {}",
                g.total_weight()
            ));
        }
        if self.exact_checked[i] {
            let exact = decompose_exact(g).map_err(|e| format!("instance {i}: exact: {e}"))?;
            if exact != bd {
                return Err(format!("instance {i}: differs from decompose_exact"));
            }
        }
        Ok((bd, alloc))
    }
}
