//! Concurrency model of [`prs_bd::SessionPool`] under the loom API.
//!
//! The pool's contract: `checkout` hands every concurrent worker a
//! *distinct* session (never aliased), `checkin` returns it for the next
//! fan-out to reuse, and `map_indexed` produces index-ordered results that are
//! bit-identical to cold sequential decomposition regardless of how the
//! scheduler interleaves the workers.
//!
//! Built against the vendored loom shim (`third_party/loom`): `model`
//! re-runs each body many times on real OS threads rather than exploring
//! schedules exhaustively. The bodies are written to the loom API, so they
//! run unchanged (and exhaustively) under the real loom once a registry
//! is available.

use loom::sync::Arc;
use prs_bd::{decompose, SessionPool, SessionStats};
use prs_graph::builders;
use prs_numeric::int;

#[test]
fn concurrent_checkout_yields_distinct_sessions() {
    loom::model(|| {
        let pool = Arc::new(SessionPool::new());
        // Pre-warm two sessions into the pool so both threads contend for
        // pooled (not freshly created) sessions.
        pool.checkin(prs_bd::DecompositionSession::detached());
        pool.checkin(prs_bd::DecompositionSession::detached());

        let handles: Vec<_> = (0..2)
            .map(|k| {
                let pool = Arc::clone(&pool);
                loom::thread::spawn(move || {
                    let mut s = pool.checkout();
                    let g = builders::path(vec![int(1 + k), int(10), int(3)]).unwrap();
                    let bd = s.decompose(&g).unwrap();
                    pool.checkin(s);
                    (g, bd)
                })
            })
            .collect();
        for h in handles {
            let (g, warm) = h.join().unwrap();
            assert_eq!(warm, decompose(&g).unwrap(), "warm ≠ cold on {g:?}");
        }
        // Conservation: both sessions came back; nothing was lost or
        // duplicated by the interleaving.
        let stats = pool.stats();
        assert!(
            stats.hits + stats.misses >= 2,
            "both workers' sessions (and their counters) must be pooled again: {stats:?}"
        );
    });
}

#[test]
fn map_indexed_is_order_deterministic_under_interleaving() {
    loom::model(|| {
        let pool = SessionPool::new();
        let out = pool.map_indexed(6, 3, |session, i| {
            let g = builders::path(vec![int(1 + i as i64), int(7), int(2)]).unwrap();
            session.decompose(&g).unwrap()
        });
        // Index order and exact equality with a cold run, whatever the
        // worker interleaving was.
        for (i, warm) in out.iter().enumerate() {
            let g = builders::path(vec![int(1 + i as i64), int(7), int(2)]).unwrap();
            assert_eq!(warm, &decompose(&g).unwrap(), "slot {i}");
        }
    });
}

#[test]
fn checkin_preserves_warm_caches_across_fanouts() {
    loom::model(|| {
        let pool = SessionPool::new();
        let g = builders::path(vec![int(2), int(9), int(4)]).unwrap();
        let rounds = decompose(&g).unwrap().k() as u64;
        pool.map_indexed(4, 2, |session, _| session.decompose(&g).unwrap());
        pool.map_indexed(4, 2, |session, _| session.decompose(&g).unwrap());
        // Every round of both fan-outs is held by at most two pooled
        // sessions (one per worker): the second fan-out re-checked out the
        // first one's sessions instead of creating more.
        let served = |s: SessionStats| s.hits + s.misses;
        let (a, b) = (pool.checkout(), pool.checkout());
        assert_eq!(
            served(a.stats()) + served(b.stats()),
            8 * rounds,
            "both fan-outs' rounds must sit in the first two pooled sessions"
        );
    });
}
