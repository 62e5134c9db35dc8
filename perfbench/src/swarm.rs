//! `swarm-churn`: proportional response on a million-agent ring with
//! leave, join and reciprocity-rewire events between rounds.

use crate::harness::{Scale, Workload};
use crate::probe;
use crate::record::Recorder;
use crate::reference::Reference;
use prs_core::graph::builders;
use prs_core::numeric::Rational;
use prs_core::p2psim::{AgentId, MembershipEvent, MembershipOutcome, SoaSwarm, SwarmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rounds of `step()`, each after its membership events, per operation.
const STEP_ROUNDS: usize = 4;
/// Rounds of the `run()` call that closes each operation.
const RUN_ROUNDS: usize = 4;

/// The swarm and the seeded source of its membership events. Events name
/// live agents, so they are drawn as the operation reaches them.
pub struct SwarmChurn {
    swarm: SoaSwarm,
    pattern: Vec<i64>,
    rng: StdRng,
    scale: Scale,
}

impl SwarmChurn {
    /// A uniformly drawn live agent that still has a peer.
    fn connected_agent(&mut self) -> AgentId {
        loop {
            let v = self.rng.gen_range(0..self.swarm.n_slots());
            if self.swarm.is_alive(v) && self.swarm.degree(v) > 0 {
                return v;
            }
        }
    }

    /// One round's events: a leave, a join wired to two live agents, and
    /// two reciprocity rewires.
    fn events(&mut self) -> [MembershipEvent; 4] {
        let leaving = self.connected_agent();
        let mut a = self.connected_agent();
        while a == leaving {
            a = self.connected_agent();
        }
        let mut b = self.connected_agent();
        while b == leaving || b == a {
            b = self.connected_agent();
        }
        let capacity = self.pattern[self.rng.gen_range(0..self.pattern.len())] as f64;
        [
            MembershipEvent::Leave { agent: leaving },
            MembershipEvent::Join {
                capacity,
                peers: vec![a, b],
            },
            MembershipEvent::Rewire { agent: a },
            MembershipEvent::Rewire { agent: b },
        ]
    }
}

impl Workload for SwarmChurn {
    /// Agent-rounds the operation simulated.
    type Out = u64;
    /// Live agents, rounds run and the bits of the utility total.
    type Seen = (usize, usize, u64);

    fn setup(seed: u64, scale: Scale, rec: &mut Recorder) -> Self {
        let n = match scale {
            Scale::Full => 1_000_000,
            Scale::Tiny => 2_048,
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A4D);
        let pattern: Vec<i64> = (0..97).map(|_| rng.gen_range(1..=50)).collect();
        let weights = (0..n)
            .map(|v| Rational::from_integer(pattern[v % pattern.len()]))
            .collect();
        let g = rec
            .span("graph.build", || builders::ring(weights))
            .expect("n ≥ 3");
        let swarm = rec.span("p2psim.new", || SoaSwarm::new(&g));
        SwarmChurn {
            swarm,
            pattern,
            rng,
            scale,
        }
    }

    fn reference() -> Reference {
        Reference::Wall
    }

    fn pass_len(&self) -> usize {
        match self.scale {
            Scale::Full => 16,
            Scale::Tiny => 3,
        }
    }

    fn window(&self) -> usize {
        match self.scale {
            Scale::Full => 4,
            Scale::Tiny => 2,
        }
    }

    fn describe_inputs(&self) -> String {
        format!("{:?} {:?}", self.pattern, self.rng)
    }

    fn op(&mut self, _i: usize, rec: &mut Recorder) -> Result<Self::Out, String> {
        let mut agent_rounds = 0u64;
        for _ in 0..STEP_ROUNDS {
            for event in self.events() {
                let rewire = matches!(event, MembershipEvent::Rewire { .. });
                let t = rec.start();
                let outcome = self.swarm.apply(&event);
                rec.end("p2psim.apply", t, 1);
                let outcome = outcome.map_err(|e| format!("{event:?}: {e}"))?;
                if rewire {
                    rec.count("rewire_attempts", 1);
                    if matches!(outcome, MembershipOutcome::Rewired { .. }) {
                        rec.count("rewired", 1);
                    }
                }
            }
            let live = self.swarm.live_agents() as u64;
            let t = rec.start();
            if rec.in_window() {
                let ((), allocs) = probe::count_allocs(|| self.swarm.step());
                rec.count("step_allocs", allocs);
                rec.count("steps", 1);
            } else {
                self.swarm.step();
            }
            rec.end("p2psim.step", t, live);
            agent_rounds += live;
        }
        let live = self.swarm.live_agents() as u64;
        let cfg = SwarmConfig {
            max_rounds: RUN_ROUNDS,
            tol: 0.0,
            record_trace: false,
        };
        let t = rec.start();
        let metrics = self.swarm.run(&cfg);
        rec.end("p2psim.run", t, live * metrics.rounds as u64);
        Ok(agent_rounds + live * metrics.rounds as u64)
    }

    fn check(&mut self, _agent_rounds: u64, first_pass: bool) -> Result<Self::Seen, String> {
        let seen = (
            self.swarm.live_agents(),
            self.swarm.round(),
            self.swarm.utilities().iter().sum::<f64>().to_bits(),
        );
        if !first_pass {
            return Ok(seen);
        }
        self.swarm.check_invariants()?;
        // Every live agent with a peer uploads exactly its capacity, so the
        // receipts of the round add up to the live connected capacity.
        let (mut sent, mut received) = (0.0f64, 0.0f64);
        for v in (0..self.swarm.n_slots()).filter(|&v| self.swarm.is_alive(v)) {
            received += self.swarm.received_of(v).iter().sum::<f64>();
            if self.swarm.degree(v) == 0 {
                continue;
            }
            let cap = self.swarm.capacity(v);
            let out: f64 = self.swarm.outgoing_of(v).iter().sum();
            if (out - cap).abs() > 1e-9 * cap.max(1.0) {
                return Err(format!("agent {v} uploads {out}, capacity {cap}"));
            }
            sent += cap;
        }
        if (received - sent).abs() > 1e-9 * sent.max(1.0) {
            return Err(format!(
                "receipts {received} differ from live capacity {sent}"
            ));
        }
        Ok(seen)
    }
}
