//! `incentive-audit`: for one agent of a ring, the best Sybil split
//! (Definition 7) and then the misreport sweep (Theorems 8 and 10).

use crate::harness::{Scale, Workload};
use crate::record::Recorder;
use crate::reference::Reference;
use prs_core::deviation::{sweep, MisreportFamily, SweepConfig, SweepResult};
use prs_core::graph::{random, Graph, VertexId};
use prs_core::numeric::Rational;
use prs_core::sybil::{best_sybil_split, AttackConfig, SybilOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a repeat of an audit must reproduce exactly: the attack ratio and
/// the sweep's `(x, U_v)` samples.
type Fingerprint = (Rational, Vec<(Rational, Rational)>);

/// The audited `(ring, agent)` pool; a pass audits each once, in order.
pub struct IncentiveAudit {
    rings: Vec<(Graph, VertexId)>,
    families: Vec<MisreportFamily>,
    /// Instances also audited with cold sessions, which must agree exactly.
    cold_checked: Vec<bool>,
    attack: AttackConfig,
    sweep: SweepConfig,
    scale: Scale,
}

fn fingerprint(attack: &SybilOutcome, sweep: &SweepResult) -> Fingerprint {
    (
        attack.ratio.clone(),
        sweep
            .samples
            .iter()
            .map(|s| (s.x.clone(), s.utility.clone()))
            .collect(),
    )
}

impl Workload for IncentiveAudit {
    type Out = (usize, SybilOutcome, SweepResult);
    type Seen = Fingerprint;

    fn setup(seed: u64, scale: Scale, rec: &mut Recorder) -> Self {
        // Ring sizes are stratified, not drawn, so every seed audits the
        // same size mix and only weights and agents vary.
        let (count, sizes, attack, sweep): (usize, &[usize], _, _) = match scale {
            Scale::Full => (
                150,
                &[16, 20, 24, 28, 32],
                AttackConfig::new()
                    .with_grid(24)
                    .with_zoom_levels(3)
                    .with_keep(2),
                SweepConfig::new().with_grid(48).with_refine_bits(20),
            ),
            Scale::Tiny => (
                3,
                &[5, 6, 7],
                AttackConfig::new()
                    .with_grid(6)
                    .with_zoom_levels(2)
                    .with_keep(1),
                SweepConfig::new().with_grid(6).with_refine_bits(4),
            ),
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA0D1);
        let mut rings = Vec::with_capacity(count);
        let mut cold_checked = Vec::with_capacity(count);
        for i in 0..count {
            let n = sizes[i % sizes.len()];
            let g = rec.span("graph.build", || random::random_ring(&mut rng, n, 1, 50));
            rings.push((g, rng.gen_range(0..n)));
            cold_checked.push(i == 0 || rng.gen_range(0..10) == 0);
        }
        let families = rings
            .iter()
            .map(|(g, v)| MisreportFamily::new(g.clone(), *v))
            .collect();
        IncentiveAudit {
            rings,
            families,
            cold_checked,
            attack,
            sweep,
            scale,
        }
    }

    fn reference() -> Reference {
        // The fan-outs keep every core busy.
        Reference::kernel(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    fn pass_len(&self) -> usize {
        self.rings.len()
    }

    fn window(&self) -> usize {
        match self.scale {
            Scale::Full => 10,
            Scale::Tiny => 2,
        }
    }

    fn describe_inputs(&self) -> String {
        format!("{:?} {:?}", self.rings, self.cold_checked)
    }

    fn op(&mut self, i: usize, rec: &mut Recorder) -> Result<Self::Out, String> {
        let (g, v) = &self.rings[i];
        let attack = rec.span_cpu("sybil.attack", || best_sybil_split(g, *v, &self.attack));
        let family = &self.families[i];
        let swept = rec.span_cpu("deviation.sweep", || sweep(family, &self.sweep));
        Ok((i, attack, swept))
    }

    fn check(
        &mut self,
        (i, attack, swept): Self::Out,
        first_pass: bool,
    ) -> Result<Self::Seen, String> {
        let got = fingerprint(&attack, &swept);
        if !first_pass {
            return Ok(got);
        }
        // Lemma 9 (the honest split is available) and Theorem 8.
        if attack.ratio < Rational::from_integer(1) || attack.ratio > Rational::from_integer(2) {
            return Err(format!("instance {i}: ζ = {} outside [1, 2]", attack.ratio));
        }
        // Theorem 10: U_v is non-decreasing in the reported weight.
        if let Some(w) = swept
            .samples
            .windows(2)
            .find(|w| w[1].utility < w[0].utility)
        {
            return Err(format!(
                "instance {i}: U_v falls from {} at x = {} to {} at x = {}",
                w[0].utility, w[0].x, w[1].utility, w[1].x
            ));
        }
        if self.cold_checked[i] {
            let (g, v) = &self.rings[i];
            let cold_attack = best_sybil_split(g, *v, &self.attack.clone().with_warm_start(false));
            let cold_sweep = sweep(
                &self.families[i],
                &self.sweep.clone().with_warm_start(false),
            );
            if fingerprint(&cold_attack, &cold_sweep) != got || cold_attack.best != attack.best {
                return Err(format!("instance {i}: warm and cold sessions disagree"));
            }
        }
        Ok(got)
    }
}
