//! What the benchmark reads from the host: a fixed calibration kernel
//! that says how noisy the box is, and the process's peak memory.

use std::hint::black_box;
use std::time::Instant;

/// Slots of the pointer-chase ring: 4 MiB of `u32`, larger than the L2
/// and about the size of a simulated LLC's tag arrays.
const CHASE_SLOTS: usize = 1 << 20;
const CHASE_STEPS: usize = 1 << 21;
const INT_STEPS: u64 = 1 << 23;

/// Fixed integer + pointer-chase kernel, best of `reps`; nanoseconds for
/// one pass. The work never changes, so two readings differ only by what
/// else the box was doing. Never used to normalise a result.
pub fn calib_ns(reps: usize) -> f64 {
    // A single-cycle permutation (Sattolo) from a fixed LCG stream.
    let mut ring: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for i in (1..CHASE_SLOTS).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((state >> 33) as usize) % i;
        ring.swap(i, j);
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let mut acc = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..INT_STEPS {
            acc = (acc ^ i).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(7);
        }
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = ring[at as usize];
        }
        black_box((acc, at));
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: returns free heap pages to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands set-up's garbage back and restarts the kernel's peak-resident-set
/// mark (`echo 5 > /proc/self/clear_refs`), so that `peak_rss_mib` is the
/// inputs plus what the simulator allocates on top of them. Without this
/// the peak is whatever the trace generators left behind — a graph under
/// construction is several times the trace it yields, and how much of the
/// freed heap stays resident varied by 20% from run to run. Where either
/// step is unavailable the peak simply includes set-up.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers and may be called at any
    // time from any thread; it only releases memory malloc holds as free.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc`
/// has no such line.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
