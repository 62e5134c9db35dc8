//! Seeded end-to-end and per-layer benchmark of the `prs-core` library.
//!
//! Four closed-loop workloads (see `README.md` for why each exists) run
//! against the library's public API. An untraced run reports end-to-end
//! metrics; a traced run reports per-layer metrics from the benchmark's own
//! spans and the library's public counters.

pub mod audit;
pub mod churn;
pub mod cold;
pub mod harness;
pub mod probe;
pub mod record;
pub mod reference;
pub mod swarm;

pub use harness::{RunConfig, RunResult, Scale, Workload};

#[global_allocator]
static ALLOCATOR: probe::CountingAlloc = probe::CountingAlloc;

/// Workload names as the command line and `BENCHMARK.json` spell them.
pub const WORKLOADS: [&str; 4] = [
    "cold-decompose",
    "churn-replay",
    "incentive-audit",
    "swarm-churn",
];

/// Run the workload called `name`; `None` if there is no such workload.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Option<Result<RunResult, String>> {
    Some(match name {
        "cold-decompose" => harness::run::<cold::ColdDecompose>(cfg),
        "churn-replay" => harness::run::<churn::ChurnReplay>(cfg),
        "incentive-audit" => harness::run::<audit::IncentiveAudit>(cfg),
        "swarm-churn" => harness::run::<swarm::SwarmChurn>(cfg),
        _ => return None,
    })
}
