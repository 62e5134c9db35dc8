//! Host-side probes: the counting allocator, peak resident memory, process
//! CPU time, and the host fingerprint printed with every result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counting is switched on only around the calls whose allocations are
/// measured, so the hot paths of the exact workloads (which allocate on
/// every rational operation) pay one relaxed load, not a contended add.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus an allocation counter that [`count_allocs`] switches on.
pub struct CountingAlloc;

// SAFETY: every operation defers to `System` with the caller's arguments;
// the counter is a statistic with no effect on the returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[inline]
fn bump() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Run `f` and return its result with the number of heap allocations
/// (including reallocations) made while it ran. Meant for single-threaded
/// calls: allocations by other threads in the window are counted too.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Peak resident set size of this process (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("malformed VmHWM line {line:?}: {e}"))?;
    Ok(kib * 1024.0 / 1e6)
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the
/// process, exited threads included.
const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;

/// CPU time consumed by the whole process so far, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration
    // of the call, and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The machine and build a result was measured on.
pub struct Fingerprint {
    /// `available_parallelism()`: the worker count the fan-outs use.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version` of the compiler that built this binary.
    pub rustc: &'static str,
    /// `git rev-parse HEAD` of the working directory, if it is a checkout.
    pub commit: String,
}

impl Fingerprint {
    /// Probe the current host.
    pub fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc,
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
            commit,
        }
    }
}
