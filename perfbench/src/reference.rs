//! Host-speed reference kernel.
//!
//! The host's speed drifts by tens of percent over seconds and minutes as
//! neighbours share its cores. The harness times a fixed kernel, on as
//! many threads as the workload keeps busy, at points between blocks of
//! operations and between set-up samples, and reports each time as a
//! multiple of the kernel's time around it, in units of the kernel's
//! nominal time. A change to the library cannot change the kernel, so a
//! real slowdown still shows in full, while a slower host moves both sides
//! of the ratio.
//!
//! The kernel allocates, as the exact layers' rational arithmetic does. In
//! trials on the host the benchmark was defined on, the pass time of
//! `churn-replay` drifted by 25% (quartile distance over median, 150 s of
//! passes) and that of `cold-decompose` by 26%; relative to this kernel
//! they drifted by 7% and 6%, and relative to a register-only integer loop
//! by 24% and 19%.
//!
//! The memory-bound swarm workload uses plain wall time: no kernel tried,
//! this one included, narrowed its spread in trials on that host.

use std::hint::black_box;
use std::time::Instant;

/// Nominal time of the kernel: about what it takes on the host the
/// benchmark was defined on (Intel Xeon, 2 vCPUs) when the host is fast.
pub const NOMINAL_NS: f64 = 1e6;

/// Iterations of the kernel that take about [`NOMINAL_NS`] there.
const KERNEL_ITERS: u64 = 20_000;

/// Small vectors the kernel keeps alive, so that its frees interleave with
/// its allocations as a computation's temporaries do.
const LIVE: usize = 64;

/// Kernel runs per reference point; the point is their median, so one
/// preempted run does not skew the block it brackets.
const RUNS_PER_POINT: usize = 3;

/// Short-lived vectors of one to six words, each reduced by dependent
/// multiply, divide and shift steps: the allocation-heavy, divide-heavy
/// integer work under the exact layers.
fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 1;
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(LIVE);
    for i in 0..KERNEL_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let len = 1 + (x % 6) as usize;
        let words: Vec<u64> = (0..len).map(|j| x.rotate_left(j as u32) | 1).collect();
        for &w in &words {
            let d = (w >> 33) | 1;
            acc = acc.wrapping_mul(w) % d + acc / d;
        }
        if live.len() < LIVE {
            live.push(words);
        } else {
            live[i as usize % LIVE] = words;
        }
    }
    black_box(&live);
    acc
}

/// The reference a workload is timed against.
pub enum Reference {
    /// The kernel on this many threads at once.
    Kernel(usize),
    /// No kernel: times are plain wall time.
    Wall,
}

impl Reference {
    /// The kernel on `threads` threads.
    pub fn kernel(threads: usize) -> Self {
        Reference::Kernel(threads.max(1))
    }

    /// The reference for single-threaded work such as set-up: the kernel
    /// on one thread, or plain wall time if this is [`Reference::Wall`].
    pub fn single_threaded(&self) -> Self {
        match self {
            Reference::Wall => Reference::Wall,
            Reference::Kernel(_) => Reference::Kernel(1),
        }
    }

    /// One reference point: the median wall time, in nanoseconds, of a few
    /// back-to-back kernel runs ([`NOMINAL_NS`] for [`Reference::Wall`]).
    pub fn point(&mut self) -> f64 {
        if let Reference::Wall = self {
            return NOMINAL_NS;
        }
        let mut runs: Vec<f64> = (0..RUNS_PER_POINT).map(|_| self.run()).collect();
        runs.sort_by(f64::total_cmp);
        runs[RUNS_PER_POINT / 2]
    }

    /// Run the kernel once and return its wall time in nanoseconds.
    fn run(&mut self) -> f64 {
        let t = Instant::now();
        match self {
            Reference::Wall => return NOMINAL_NS,
            Reference::Kernel(1) => {
                black_box(kernel());
            }
            Reference::Kernel(threads) => std::thread::scope(|s| {
                for _ in 0..*threads {
                    s.spawn(|| black_box(kernel()));
                }
            }),
        }
        t.elapsed().as_nanos() as f64
    }
}
