//! The benchmark's own tests: seeded inputs, declared metric names, and a
//! tiny pass of every workload through all of its checks.

use prs_perfbench::audit::IncentiveAudit;
use prs_perfbench::churn::ChurnReplay;
use prs_perfbench::cold::ColdDecompose;
use prs_perfbench::record::Recorder;
use prs_perfbench::swarm::SwarmChurn;
use prs_perfbench::{run_workload, RunConfig, RunResult, Scale, Workload, WORKLOADS};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// The library's flow counters are process-wide, so anything that runs
/// workload code holds this lock: a count window must see only its own run.
fn exclusive() -> MutexGuard<'static, ()> {
    static RUNS: Mutex<()> = Mutex::new(());
    RUNS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn inputs<W: Workload>(seed: u64) -> String {
    let _runs = exclusive();
    W::setup(seed, Scale::Tiny, &mut Recorder::new(false)).describe_inputs()
}

fn assert_seeded<W: Workload>() {
    assert_eq!(inputs::<W>(7), inputs::<W>(7), "same seed, same inputs");
    assert_ne!(inputs::<W>(7), inputs::<W>(8), "other seed, other inputs");
}

#[test]
fn inputs_depend_only_on_the_seed() {
    assert_seeded::<ColdDecompose>();
    assert_seeded::<ChurnReplay>();
    assert_seeded::<IncentiveAudit>();
    assert_seeded::<SwarmChurn>();
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &json[start..];
    let body = &body[body.find('[').expect("section is an array")..];
    let body = &body[..body.find(']').expect("array ends")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("metric field") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let len = rest[open..].find('"').expect("string ends");
        rest[open..open + len].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn tiny(name: &str, trace: bool) -> RunResult {
    let cfg = RunConfig {
        seed: 3,
        budget: Duration::ZERO,
        trace,
        scale: Scale::Tiny,
    };
    let _runs = exclusive();
    run_workload(name, &cfg)
        .expect("known workload")
        .expect("run completes")
}

fn printed(r: &RunResult) -> Vec<(String, String)> {
    let mut v: Vec<_> = r
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    v.sort();
    v
}

fn value(r: &RunResult, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} printed"))
        .value
}

#[test]
fn tiny_runs_pass_every_check_and_print_only_declared_metrics() {
    let mut end_to_end = declared("end_to_end");
    let mut per_layer = declared("per_layer");
    end_to_end.sort();
    per_layer.sort();
    for name in WORKLOADS {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let r = tiny(name, trace);
            assert!(r.attempted > 0, "{name}: no operation ran");
            assert_eq!(r.failed, 0, "{name} trace={trace}: {:?}", r.errors);
            assert_eq!(&printed(&r), expected, "{name} trace={trace}");
            assert!(r.metrics.iter().all(|m| m.value.is_finite()), "{name}");
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for name in WORKLOADS {
        let r = tiny(name, false);
        for m in &r.metrics {
            assert!(m.value > 0.0, "{name}: {} reads {}", m.name, m.value);
        }
    }
}

#[test]
fn counts_repeat_for_a_seed_and_guards_hold() {
    // Counts of the deterministic workloads; the fan-outs of
    // incentive-audit hand indices to workers in scheduling order, so its
    // session-cache counts may differ between runs.
    let counted = |r: &RunResult| -> Vec<(String, f64)> {
        r.metrics
            .iter()
            .filter(|m| m.unit == "count" || m.name.contains("share") && m.name.starts_with("bd."))
            .map(|m| (m.name.to_string(), m.value))
            .collect()
    };
    for name in ["cold-decompose", "churn-replay", "swarm-churn"] {
        let (a, b) = (tiny(name, true), tiny(name, true));
        assert_eq!(counted(&a), counted(&b), "{name}");
        assert_eq!(value(&a, "flow.i128_promotions"), 0.0, "{name}");
    }
    let swarm = tiny("swarm-churn", true);
    assert_eq!(value(&swarm, "p2psim.steady_allocs_per_round"), 0.0);
    assert!(value(&swarm, "p2psim.step_ns_per_agent_round") > 0.0);
    let cold = tiny("cold-decompose", true);
    assert!(value(&cold, "flow.exact_max_flows_per_op") > 0.0);
    let churn = tiny("churn-replay", true);
    let shares: f64 = ["unchanged", "recertified", "recomputed"]
        .iter()
        .map(|t| value(&churn, &format!("bd.tier_{t}_share")))
        .sum();
    assert!((shares - 1.0).abs() < 1e-12, "tier shares sum to {shares}");
}

/// The non-empty, non-comment lines of the `[profile.release]` section of
/// the manifest at `path`.
fn release_profile(path: &str) -> Vec<String> {
    let manifest = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

#[test]
fn release_profile_mirrors_the_workspace() {
    // The benchmark is a workspace of its own, so the repository's release
    // profile does not reach the library build it measures; its copy here
    // must follow every change to the original.
    let here = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
    let root = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
    assert!(!root.is_empty(), "the workspace has a release profile");
    assert_eq!(here, root, "perfbench/Cargo.toml [profile.release]");
}
