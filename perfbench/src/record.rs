//! The benchmark's own span recorder and counters.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer's public entry point; nothing inside the library is instrumented.
//! Layer calls are leaves of the operation that issued them, so a span
//! needs no parent link: the harness's own share of an operation is the
//! operation's wall time minus the spans recorded inside it.

use prs_core::flow::stats::FlowStats;
use std::time::Instant;

/// Add the counters the per-layer metrics read from `d` to `acc`.
fn add_flow(acc: &mut FlowStats, d: &FlowStats) {
    acc.exact_max_flows += d.exact_max_flows;
    acc.i128_max_flows += d.i128_max_flows;
    acc.f64_max_flows += d.f64_max_flows;
    acc.exact_augmenting_paths += d.exact_augmenting_paths;
    acc.i128_augmenting_paths += d.i128_augmenting_paths;
    acc.f64_augmenting_paths += d.f64_augmenting_paths;
    acc.i128_promotions += d.i128_promotions;
    acc.dinkelbach_iterations += d.dinkelbach_iterations;
    acc.fast_path_hits += d.fast_path_hits;
    acc.fast_path_fallbacks += d.fast_path_fallbacks;
    acc.networks_built += d.networks_built;
    acc.networks_reused += d.networks_reused;
    acc.session_hits += d.session_hits;
    acc.session_misses += d.session_misses;
    acc.session_warm_starts += d.session_warm_starts;
    acc.delta_unchanged += d.delta_unchanged;
    acc.delta_recertified += d.delta_recertified;
    acc.delta_recomputed += d.delta_recomputed;
}

/// Durations of one named span, each with the units of work it covered
/// (agents × rounds for swarm rounds, 1 elsewhere).
struct Series {
    name: &'static str,
    samples: Vec<(u64, u64)>,
    cpu_ns: u64,
}

/// Spans, counters and flow-counter deltas of one run.
///
/// Spans are kept only when tracing is on. Counters and flow deltas are
/// kept only inside the count window: a fixed prefix of operations from
/// the set-up state, so that every count repeats exactly for a seed no
/// matter how many operations the time budget allows.
#[derive(Default)]
pub struct Recorder {
    traced: bool,
    in_op: bool,
    in_window: bool,
    series: Vec<Series>,
    counters: Vec<(&'static str, u64)>,
    flow: FlowStats,
    attributed_ns: u64,
}

impl Recorder {
    /// A recorder; spans are kept iff `traced`.
    pub fn new(traced: bool) -> Self {
        Recorder {
            traced,
            ..Recorder::default()
        }
    }

    /// Whether spans are being kept.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Switch span recording on or off.
    pub fn set_traced(&mut self, on: bool) {
        self.traced = on;
    }

    /// Whether the current operation is inside the count window.
    pub fn in_window(&self) -> bool {
        self.in_window
    }

    /// Mark the start (`true`) or end of an operation; `window` says
    /// whether it counts toward the window's counters.
    pub(crate) fn set_op(&mut self, in_op: bool, window: bool) {
        self.in_op = in_op;
        self.in_window = in_op && window;
    }

    /// Add one operation's flow-counter delta to the window totals.
    pub(crate) fn add_flow(&mut self, before: &FlowStats, after: &FlowStats) {
        add_flow(&mut self.flow, &after.since(before));
    }

    /// The window's flow-counter totals.
    pub fn flow(&self) -> &FlowStats {
        &self.flow
    }

    /// A span start, or `None` when tracing is off.
    pub fn start(&self) -> Option<Instant> {
        self.traced.then(Instant::now)
    }

    /// Close a span opened by [`start`](Self::start).
    pub fn end(&mut self, name: &'static str, start: Option<Instant>, work: u64) {
        if let Some(t) = start {
            let ns = t.elapsed().as_nanos() as u64;
            self.series_mut(name).samples.push((ns, work));
            if self.in_op {
                self.attributed_ns += ns;
            }
        }
    }

    /// Time `f` as one span of `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = self.start();
        let out = f();
        self.end(name, t, 1);
        out
    }

    /// Time `f` as one span of `name` and add the process CPU time it used.
    pub fn span_cpu<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let cpu = crate::probe::process_cpu_ns();
        let t = self.start();
        let out = f();
        self.end(name, t, 1);
        let used = crate::probe::process_cpu_ns().saturating_sub(cpu);
        self.series_mut(name).cpu_ns += used;
        out
    }

    /// Add `k` to counter `name` when inside the count window.
    pub fn count(&mut self, name: &'static str, k: u64) {
        if !self.in_window {
            return;
        }
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += k,
            None => self.counters.push((name, k)),
        }
    }

    /// The window total of counter `name` (0 if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Span time recorded inside operations.
    pub fn attributed_ns(&self) -> u64 {
        self.attributed_ns
    }

    fn series_mut(&mut self, name: &'static str) -> &mut Series {
        let i = match self.series.iter().position(|s| s.name == name) {
            Some(i) => i,
            None => {
                self.series.push(Series {
                    name,
                    samples: Vec::new(),
                    cpu_ns: 0,
                });
                self.series.len() - 1
            }
        };
        &mut self.series[i]
    }

    fn series(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Median nanoseconds per unit of work over the spans of `name`
    /// (0 when the layer was not called).
    pub fn p50_ns_per_work(&self, name: &str) -> f64 {
        let Some(s) = self.series(name) else {
            return 0.0;
        };
        let per: Vec<f64> = s
            .samples
            .iter()
            .map(|&(ns, w)| ns as f64 / w.max(1) as f64)
            .collect();
        quantile(&per, 0.5)
    }

    /// Total span time of `name`, in nanoseconds.
    fn total_ns(&self, name: &str) -> u64 {
        self.series(name)
            .map_or(0, |s| s.samples.iter().map(|&(ns, _)| ns).sum())
    }

    /// Process CPU time over wall time inside the spans of `name`
    /// (0 when the layer was not called).
    pub fn cpu_per_wall(&self, name: &str) -> f64 {
        let wall = self.total_ns(name);
        match self.series(name) {
            Some(s) if wall > 0 => s.cpu_ns as f64 / wall as f64,
            _ => 0.0,
        }
    }
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Quote `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values, which JSON cannot hold,
/// become `null`).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[1.0, 2.0], 1.0), 2.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(1.5), "1.5");
    }
}
