//! Work determinism of pooled fan-outs: which worker evaluates which point
//! is scheduling-dependent, but a session carries nothing from one
//! decomposition to the next except its flow arenas, so the flow work a
//! fan-out does — max-flows, augmenting paths, descent steps, session
//! rounds — is the same at any thread count.
//!
//! The flow counters are process-global, so this binary holds one test.

use prs::flow::stats::{self, FlowStats};
use prs::prelude::*;

/// The flow work of a sweep-like fan-out: decompose every grid point of a
/// misreport family through a pool fanned out over `threads` workers. Each
/// pooled session allocates its arenas once, so `networks_built` counts
/// sessions, not work, and is left out.
fn fan_out_work(threads: usize) -> (FlowStats, Vec<BottleneckDecomposition>) {
    let ring = builders::ring(vec![int(3), int(1), int(4), int(1), int(5), int(9)]).unwrap();
    let fam = MisreportFamily::new(ring, 0);
    let (lo, hi) = fam.domain();
    let xs: Vec<Rational> = (1..40)
        .map(|k| &lo + &(&(&hi - &lo) * &ratio(k, 40)))
        .collect();
    let pool = SessionPool::new();
    let before = stats::snapshot();
    let out = pool.map_indexed(xs.len(), threads, |session, i| {
        session.decompose(&fam.graph_at(&xs[i])).unwrap()
    });
    let work = stats::snapshot().since(&before);
    (
        FlowStats {
            networks_built: 0,
            ..work
        },
        out,
    )
}

#[test]
fn pooled_fan_out_work_is_independent_of_thread_count() {
    let (one, one_out) = fan_out_work(1);
    let (two, two_out) = fan_out_work(2);
    assert_eq!(one_out, two_out, "results must not depend on scheduling");
    assert!(one.i128_max_flows > 0 && one.session_misses > 0, "{one:?}");
    assert_eq!(one, two, "flow work differs between 1 and 2 threads");
}
