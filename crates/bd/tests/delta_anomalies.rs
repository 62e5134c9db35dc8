//! Anomalies stay rare: a `Recomputed` delta is an ordinary serving tier,
//! so shipped-scale churn through [`DecompositionSession::apply`] raises no
//! anomaly at all, while a real one — the 2^±200 family promoting its
//! certification rounds to BigInt — still fires and writes a flight dump.
//!
//! One `#[test]`: the anomaly counter and the flight recorder are
//! process-global, so the phases must not interleave with other tests.

use prs_bd::{DecompositionSession, Delta, EdgeOp, UpdateOutcome};
use prs_flow::stats;
use prs_graph::{builders, random};
use prs_numeric::{int, Rational};
use prs_trace::metrics::{self, FlightConfig, MetricsConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pow2(e: i32) -> Rational {
    Rational::from_integer(2).pow(e)
}

#[test]
fn recomputed_deltas_are_not_anomalies_but_promotions_still_dump() {
    // Phase 1 — shipped-scale churn: random weight re-reports and chord
    // toggles on rings n = 32, weights 1–100. Every serving tier
    // fires, `Recomputed` included, and not one anomaly is raised.
    let anomalies_before = metrics::anomaly_count();
    let before = stats::snapshot();
    let mut rng = StdRng::seed_from_u64(7);
    let n = 32;
    for _ in 0..4 {
        let mut session = DecompositionSession::new(random::random_ring(&mut rng, n, 1, 100));
        session.current().unwrap();
        for _ in 0..24 {
            let outcome = if rng.gen_range(0..4) == 0 {
                let u = rng.gen_range(0..n);
                // A chord: never u itself or a ring neighbor.
                let v = (u + rng.gen_range(2..n - 1)) % n;
                let op = if rng.gen_range(0..2) == 0 {
                    EdgeOp::Add
                } else {
                    EdgeOp::Remove
                };
                session.update_edge(u, v, op)
            } else {
                let v = rng.gen_range(0..n);
                session.update_weight(v, int(rng.gen_range(1..=100)))
            };
            outcome.unwrap();
        }
    }
    let delta = stats::snapshot().since(&before);
    assert!(
        delta.delta_recomputed > 0,
        "the churn must exercise the Recomputed tier: {delta:?}"
    );
    assert_eq!(delta.i128_promotions, 0, "{delta:?}");
    assert_eq!(
        metrics::anomaly_count(),
        anomalies_before,
        "shipped-scale churn must raise no anomaly: {delta:?}"
    );

    // Phase 2 — a real anomaly: re-weighting a session's ring to 2^±200
    // promotes its certification rounds to BigInt, and the armed flight
    // recorder dumps the rounds leading up to it.
    let dir = std::env::temp_dir().join(format!("prs-delta-anomalies-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    metrics::install(
        &MetricsConfig::new().with_flight(
            FlightConfig::new()
                .with_capacity(256)
                .with_dump_dir(&dir)
                .with_max_dumps(16),
        ),
    );
    let dumps_before = metrics::flight_dump_count();
    let mut session = DecompositionSession::new(
        builders::ring(vec![int(1), int(1), int(1), int(1), int(1)]).unwrap(),
    );
    session.current().unwrap();
    let outcome = session.apply(Delta::Batch(vec![
        Delta::SetWeight {
            v: 0,
            w: pow2(-200),
        },
        Delta::SetWeight { v: 3, w: pow2(200) },
        Delta::SetWeight {
            v: 4,
            w: pow2(-200),
        },
    ]));
    metrics::disable();
    assert!(matches!(
        outcome,
        Ok(UpdateOutcome::Recomputed | UpdateOutcome::Recertified { .. })
    ));
    assert!(
        metrics::flight_dump_count() > dumps_before,
        "the 2^±200 promotion must still write a flight dump"
    );
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().all(|n| n.contains("i128_promotion")),
        "only promotions may dump: {names:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
