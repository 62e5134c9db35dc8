//! The closed loop shared by every workload: set up, issue operations one
//! after another until the time budget is spent, check every output
//! outside the timed window, and turn what was recorded into metrics.

use crate::probe;
use crate::record::{quantile, ratio, Metric, Recorder};
use crate::reference::{Reference, NOMINAL_NS};
use prs_core::flow::stats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Input sizes: `Full` is what the benchmark command runs; `Tiny` keeps
/// each workload's shape at a size the test suite can afford.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Test sizes.
    Tiny,
}

/// One benchmark workload: a fixed sequence of operations (a pass) that
/// is replayed from a fresh set-up until the time budget is spent.
///
/// Every operation is timed relative to the workload's [`Reference`],
/// taken at points around the block of operations it ran in, and reported
/// by the median over its repeats.
pub trait Workload: Sized {
    /// The outputs of one operation, checked after its timed window.
    type Out;
    /// What a repeat of an operation must reproduce exactly.
    type Seen: PartialEq;

    /// Generate the inputs from `seed` and build the long-lived state the
    /// operations run against. Counted in `setup_s`.
    fn setup(seed: u64, scale: Scale, rec: &mut Recorder) -> Self;

    /// The reference kernel that shares this workload's bottleneck.
    fn reference() -> Reference;

    /// Operations in one pass.
    fn pass_len(&self) -> usize;

    /// Operations at the start of the first pass that form the count
    /// window of a traced run.
    fn window(&self) -> usize;

    /// A rendering of the generated inputs (for determinism tests).
    fn describe_inputs(&self) -> String;

    /// Issue operation `i` of the pass. The harness times this call.
    fn op(&mut self, i: usize, rec: &mut Recorder) -> Result<Self::Out, String>;

    /// Check one operation's outputs, fully on the first pass; later
    /// passes are checked against the first. Not timed.
    fn check(&mut self, out: Self::Out, first_pass: bool) -> Result<Self::Seen, String>;
}

/// What one invocation measures.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Wall-clock budget of the measured loop.
    pub budget: Duration,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics from an untraced one.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// The outcome of one invocation.
#[derive(Debug)]
pub struct RunResult {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that returned an error, panicked or failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// The untraced run's time metrics in plain wall time: each operation
    /// by its fastest repeat, set-up by its median.
    pub wall: Vec<Metric>,
}

/// Set-up samples per run. Each sample times enough back-to-back set-ups
/// to last at least [`SETUP_SAMPLE_NS`], so that set-ups of a millisecond
/// are timed as steadily as set-ups of a second.
const SETUP_SAMPLES: usize = 7;
/// Shortest set-up sample, in nanoseconds.
const SETUP_SAMPLE_NS: f64 = 100e6;
/// Operation time, in nanoseconds, after which a block of operations is
/// closed by a reference point. The host drifts over seconds, so a block
/// is short against the drift and long against the kernel it pays for.
const BLOCK_NS: f64 = 50e6;

/// The state one invocation carries across its phases.
struct Bench<W: Workload> {
    cfg: RunConfig,
    rec: Recorder,
    reference: Reference,
    /// Set-up samples: (wall ns, reference-relative ns) per set-up, each
    /// the mean over the set-ups of its sample.
    setups: Vec<(f64, f64)>,
    /// First-pass outputs, which every repeat must reproduce.
    first: Vec<Option<W::Seen>>,
    failed: u64,
    errors: Vec<String>,
}

/// Timings of one measured phase, per operation of the pass.
struct Phase {
    /// Reference-relative times (ns) of every repeat.
    relative_ns: Vec<Vec<f64>>,
    /// Fastest wall time (ns).
    best_ns: Vec<f64>,
    /// Operations issued.
    ops: u64,
    /// Sum of all wall times (ns).
    busy_ns: u64,
    /// Operations of the open block: (position in the pass, wall ns).
    block: Vec<(usize, f64)>,
    /// Wall time of the open block's operations (ns).
    block_ns: f64,
    /// The reference point that opened the block.
    opened: f64,
}

impl Phase {
    /// Record operation `i`'s wall time, closing the block once it holds
    /// [`BLOCK_NS`] of operations.
    fn push(&mut self, i: usize, ns: u64, reference: &mut Reference) {
        self.ops += 1;
        self.busy_ns += ns;
        self.best_ns[i] = self.best_ns[i].min(ns as f64);
        self.block.push((i, ns as f64));
        self.block_ns += ns as f64;
        if self.block_ns >= BLOCK_NS {
            self.close_block(reference);
        }
    }

    /// Close the open block: take a reference point and time each of its
    /// operations relative to the mean of the points on either side.
    fn close_block(&mut self, reference: &mut Reference) {
        let closed = reference.point();
        let scale = NOMINAL_NS / ((self.opened + closed) / 2.0);
        for (i, ns) in self.block.drain(..) {
            self.relative_ns[i].push(ns * scale);
        }
        self.block_ns = 0.0;
        self.opened = closed;
    }

    /// Each operation that ran, by the median of its relative times.
    fn relative(&self) -> Vec<f64> {
        self.relative_ns
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| quantile(r, 0.5))
            .collect()
    }

    /// Each operation that ran, by its fastest wall time.
    fn best(&self) -> Vec<f64> {
        self.best_ns
            .iter()
            .copied()
            .filter(|b| b.is_finite())
            .collect()
    }
}

/// Operations per second and latency quantiles (ms) of per-operation times.
fn rate_and_latency(ns: &[f64]) -> [f64; 3] {
    [
        ns.len() as f64 / ns.iter().sum::<f64>() * 1e9,
        quantile(ns, 0.5) / 1e6,
        quantile(ns, 0.9) / 1e6,
    ]
}

impl<W: Workload> Bench<W> {
    /// A fresh set-up and its wall time in nanoseconds.
    fn setup(&mut self) -> (W, f64) {
        let t = Instant::now();
        let w = W::setup(self.cfg.seed, self.cfg.scale, &mut self.rec);
        (w, t.elapsed().as_nanos() as f64)
    }

    /// Take [`SETUP_SAMPLES`] set-up samples, each the mean of `k`
    /// back-to-back set-ups between two reference points. Returns the
    /// window and pass length of the workload.
    fn sample_setups(&mut self) -> (usize, u64) {
        let (w, first_ns) = self.setup();
        let shape = (w.window(), w.pass_len() as u64);
        drop(w);
        let k = (SETUP_SAMPLE_NS / first_ns.max(1.0)).ceil().max(1.0);
        // Set-up runs on one thread, whatever its operations fan out to.
        let mut reference = self.reference.single_threaded();
        let mut opened = reference.point();
        for _ in 0..SETUP_SAMPLES {
            let mut ns = 0.0;
            for _ in 0..k as usize {
                ns += self.setup().1;
            }
            let closed = reference.point();
            let ns = ns / k;
            self.setups
                .push((ns, ns * NOMINAL_NS / ((opened + closed) / 2.0)));
            opened = closed;
        }
        shape
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Replay passes until `budget` has passed and at least `min_ops`
    /// operations ran. When tracing, the first `window` operations of the
    /// first pass form the count window.
    fn measure(&mut self, budget: Duration, min_ops: u64, window: usize) -> Phase {
        let start = Instant::now();
        let mut phase = Phase {
            relative_ns: Vec::new(),
            best_ns: Vec::new(),
            ops: 0,
            busy_ns: 0,
            block: Vec::new(),
            block_ns: 0.0,
            opened: self.reference.point(),
        };
        'passes: for pass in 0.. {
            let (mut w, _) = self.setup();
            let len = w.pass_len();
            phase.relative_ns.resize_with(len, Vec::new);
            phase.best_ns.resize(len, f64::INFINITY);
            self.first.resize_with(len, || None);
            for i in 0..len {
                if phase.ops >= min_ops && start.elapsed() >= budget {
                    break 'passes;
                }
                let counted = self.rec.traced() && pass == 0 && i < window;
                self.rec.set_op(true, counted);
                let flow_before = counted.then(stats::snapshot);
                let t = Instant::now();
                let out = catch_unwind(AssertUnwindSafe(|| w.op(i, &mut self.rec)));
                let ns = t.elapsed().as_nanos() as u64;
                if let Some(before) = flow_before {
                    self.rec.add_flow(&before, &stats::snapshot());
                }
                self.rec.set_op(false, false);
                phase.push(i, ns, &mut self.reference);
                let first_pass = self.first[i].is_none();
                match out {
                    Ok(Ok(out)) => match w.check(out, first_pass) {
                        Ok(seen) if first_pass => self.first[i] = Some(seen),
                        Ok(seen) if self.first[i].as_ref() == Some(&seen) => {}
                        Ok(_) => {
                            self.fail(format!("op {i} pass {pass}: differs from its first run"))
                        }
                        Err(e) => self.fail(format!("op {i} pass {pass}: check: {e}")),
                    },
                    Ok(Err(e)) => self.fail(format!("op {i} pass {pass}: {e}")),
                    Err(_) => self.fail(format!("op {i} pass {pass}: panicked")),
                }
            }
        }
        if !phase.block.is_empty() {
            phase.close_block(&mut self.reference);
        }
        phase
    }
}

/// Run workload `W` under `cfg`. The set-up samples and the measured loop
/// share the budget.
pub fn run<W: Workload>(cfg: &RunConfig) -> Result<RunResult, String> {
    let start = Instant::now();
    let mut b = Bench::<W> {
        cfg: *cfg,
        rec: Recorder::new(cfg.trace),
        reference: W::reference(),
        setups: Vec::new(),
        first: Vec::new(),
        failed: 0,
        errors: Vec::new(),
    };
    let (window, pass_len) = b.sample_setups();
    let budget = cfg.budget.saturating_sub(start.elapsed());

    // Every measured phase completes at least one pass, so that every
    // operation is timed and checked.
    let (attempted, metrics, wall) = if !cfg.trace {
        let phase = b.measure(budget, pass_len, 0);
        let setup_s = |k: fn(&(f64, f64)) -> f64| {
            quantile(&b.setups.iter().map(k).collect::<Vec<_>>(), 0.5) / 1e9
        };
        let [rate, p50, p90] = rate_and_latency(&phase.relative());
        let metrics = vec![
            metric("setup_s", "s", setup_s(|s| s.1)),
            metric("ops_per_s", "1/s", rate),
            metric("op_p50_ms", "ms", p50),
            metric("op_p90_ms", "ms", p90),
            metric("peak_rss_mb", "MB", probe::peak_rss_mb()?),
        ];
        let [rate, p50, p90] = rate_and_latency(&phase.best());
        let wall = vec![
            metric("setup_s", "s", setup_s(|s| s.0)),
            metric("ops_per_s", "1/s", rate),
            metric("op_p50_ms", "ms", p50),
            metric("op_p90_ms", "ms", p90),
        ];
        (phase.ops, metrics, wall)
    } else {
        // Half the budget traced; then the same operations again, untraced,
        // for the tracing overhead.
        let traced = b.measure(budget / 2, pass_len, window);
        let traced_attributed = b.rec.attributed_ns();
        b.rec.set_traced(false);
        let untraced = b.measure(Duration::ZERO, traced.ops, 0);
        let sum = |p: &Phase| p.relative().iter().sum::<f64>();
        let attempted = traced.ops + untraced.ops;
        let metrics = layer_metrics(
            &b.rec,
            window as u64,
            ratio(
                traced.busy_ns.saturating_sub(traced_attributed),
                traced.busy_ns,
            ),
            (sum(&traced) / sum(&untraced) - 1.0) * 100.0,
            ratio(b.failed, attempted),
        );
        (attempted, metrics, Vec::new())
    };
    Ok(RunResult {
        attempted,
        failed: b.failed,
        errors: b.errors,
        metrics,
        wall,
    })
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The per-layer metrics of a traced run. Every metric is reported on
/// every workload; a layer the workload does not call reads 0.
fn layer_metrics(
    rec: &Recorder,
    window_ops: u64,
    unattributed_share: f64,
    trace_overhead_pct: f64,
    fail_ratio: f64,
) -> Vec<Metric> {
    let ms = |name: &str| rec.p50_ns_per_work(name) / 1e6;
    let per_op = |n: u64| ratio(n, window_ops);
    let f = rec.flow();
    let tiers = [f.delta_unchanged, f.delta_recertified, f.delta_recomputed];
    let tier_total: u64 = tiers.iter().sum();
    let step_ns = rec.p50_ns_per_work("p2psim.step");
    let run_ns = rec.p50_ns_per_work("p2psim.run");
    vec![
        metric("bd.decompose_ms", "ms", ms("bd.decompose")),
        metric("bd.allocate_ms", "ms", ms("bd.allocate")),
        metric(
            "flow.exact_max_flows_per_op",
            "count",
            per_op(f.exact_max_flows),
        ),
        metric(
            "flow.i128_max_flows_per_op",
            "count",
            per_op(f.i128_max_flows),
        ),
        metric(
            "flow.f64_max_flows_per_op",
            "count",
            per_op(f.f64_max_flows),
        ),
        metric(
            "flow.augmenting_paths_per_op",
            "count",
            per_op(f.exact_augmenting_paths + f.i128_augmenting_paths + f.f64_augmenting_paths),
        ),
        metric(
            "flow.network_reuse_ratio",
            "ratio",
            ratio(f.networks_reused, f.networks_built + f.networks_reused),
        ),
        metric("flow.i128_promotions", "count", f.i128_promotions as f64),
        metric(
            "bd.dinkelbach_iterations_per_op",
            "count",
            per_op(f.dinkelbach_iterations),
        ),
        metric(
            "bd.fast_path_rate",
            "ratio",
            ratio(f.fast_path_hits, f.fast_path_hits + f.fast_path_fallbacks),
        ),
        metric("bd.apply_unchanged_ms", "ms", ms("bd.apply.unchanged")),
        metric("bd.apply_recertified_ms", "ms", ms("bd.apply.recertified")),
        metric("bd.apply_recomputed_ms", "ms", ms("bd.apply.recomputed")),
        metric(
            "bd.tier_unchanged_share",
            "ratio",
            ratio(tiers[0], tier_total),
        ),
        metric(
            "bd.tier_recertified_share",
            "ratio",
            ratio(tiers[1], tier_total),
        ),
        metric(
            "bd.tier_recomputed_share",
            "ratio",
            ratio(tiers[2], tier_total),
        ),
        metric(
            "bd.session_hit_rate",
            "ratio",
            ratio(f.session_hits, f.session_hits + f.session_misses),
        ),
        metric(
            "bd.warm_starts_per_op",
            "count",
            per_op(f.session_warm_starts),
        ),
        metric("sybil.attack_ms", "ms", ms("sybil.attack")),
        metric("deviation.sweep_ms", "ms", ms("deviation.sweep")),
        metric(
            "sybil.cpu_per_wall",
            "ratio",
            rec.cpu_per_wall("sybil.attack"),
        ),
        metric(
            "deviation.cpu_per_wall",
            "ratio",
            rec.cpu_per_wall("deviation.sweep"),
        ),
        metric("p2psim.step_ns_per_agent_round", "ns", step_ns),
        metric("p2psim.run_ns_per_agent_round", "ns", run_ns),
        metric(
            "p2psim.run_over_step",
            "ratio",
            if step_ns > 0.0 { run_ns / step_ns } else { 0.0 },
        ),
        metric(
            "p2psim.membership_apply_us",
            "us",
            rec.p50_ns_per_work("p2psim.apply") / 1e3,
        ),
        metric(
            "p2psim.rewire_success_ratio",
            "ratio",
            ratio(rec.counter("rewired"), rec.counter("rewire_attempts")),
        ),
        metric(
            "p2psim.steady_allocs_per_round",
            "count",
            ratio(rec.counter("step_allocs"), rec.counter("steps")),
        ),
        metric("graph.build_ms", "ms", ms("graph.build")),
        metric("p2psim.build_ms", "ms", ms("p2psim.new")),
        metric("harness.unattributed_share", "ratio", unattributed_share),
        metric("harness.trace_overhead_pct", "%", trace_overhead_pct),
        metric("harness.fail_ratio", "ratio", fail_ratio),
    ]
}
