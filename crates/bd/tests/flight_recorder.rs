//! Flight recorder against the real session stack: ring wraparound under
//! sustained span traffic, and dump-on-promotion for the adversarial
//! `2^±200` family (the "poisoned round" acceptance scenario).
//!
//! One `#[test]`: the flight recorder's capacity/dump state is
//! process-global, so phases that re-install it must not interleave.

use prs_bd::{decompose, DecompositionSession};
use prs_graph::builders;
use prs_numeric::{int, Rational};
use prs_trace::metrics::{self, FlightConfig, MetricsConfig};

fn pow2(e: i32) -> Rational {
    Rational::from_integer(2).pow(e)
}

#[test]
fn flight_ring_wraps_and_promotion_dumps_poisoned_round() {
    // Phase 1 — wraparound: a tiny ring under a full decomposition's span
    // traffic holds exactly its capacity, newest events last.
    metrics::install(
        &MetricsConfig::new()
            .with_enabled(false)
            .with_flight(FlightConfig::new().with_capacity(8)),
    );
    let g1 = builders::ring(vec![int(3), int(1), int(4), int(1), int(5)]).unwrap();
    let mut session = DecompositionSession::detached();
    assert_eq!(session.decompose(&g1).unwrap(), decompose(&g1).unwrap());
    let ring = metrics::flight_snapshot();
    assert_eq!(
        ring.len(),
        8,
        "a decomposition records far more than 8 events; ring must wrap"
    );
    // Events enter the ring as spans *close*, so within one thread the
    // end timestamps are monotone oldest→newest (start times are not:
    // an enclosing span starts before and closes after its children).
    assert!(
        ring.windows(2)
            .all(|w| w[0].start_ns + w[0].dur_ns <= w[1].start_ns + w[1].dur_ns),
        "ring order must be oldest→newest: {ring:?}"
    );

    // Phase 2 — dump on promotion: 2^±200 scale separation fails the i128
    // admission check, the promotion anomaly fires, and the recorder dumps
    // the thread's recent spans (the rounds leading up to the poisoned
    // one) as a Chrome-trace excerpt.
    let dir = std::env::temp_dir().join(format!("prs-flight-bd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    metrics::install(
        &MetricsConfig::new().with_flight(
            FlightConfig::new()
                .with_capacity(512)
                .with_dump_dir(&dir)
                .with_max_dumps(64),
        ),
    );
    let dumps_before = metrics::flight_dump_count();
    // Decompose two members of the family: their rounds fill the ring, and
    // the scaled capacities of both fail the i128 admission check.
    let mut session = DecompositionSession::detached();
    for j in 0..2i32 {
        let eps = pow2(-200 - j);
        let big = pow2(200 + j);
        let w = vec![eps.clone(), int(1), int(1), big, eps];
        let g = builders::ring(w).unwrap();
        assert_eq!(session.decompose(&g).unwrap(), decompose(&g).unwrap());
    }
    metrics::disable();
    assert!(
        metrics::flight_dump_count() > dumps_before,
        "the 2^±200 promotion must write a flight dump"
    );

    let mut dumped = String::new();
    for entry in std::fs::read_dir(&dir).unwrap().filter_map(Result::ok) {
        let name = entry.file_name().to_string_lossy().into_owned();
        assert!(
            name.starts_with("flight-") && name.ends_with(".json"),
            "unexpected dump name {name}"
        );
        dumped.push_str(&std::fs::read_to_string(entry.path()).unwrap());
        assert!(
            name.contains("i128_promotion"),
            "dump must be named for its trigger: {name}"
        );
    }
    // The excerpt holds the poisoned round's span traffic: session rounds
    // that closed before the promotion, and the anomaly marker itself.
    assert!(dumped.contains("\"session_round\""), "{dumped}");
    assert!(dumped.contains("\"anomaly\""), "{dumped}");
    assert!(dumped.contains("i128_promotion"), "{dumped}");
    assert_eq!(
        dumped.matches('{').count(),
        dumped.matches('}').count(),
        "dumps must be balanced chrome JSON"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
