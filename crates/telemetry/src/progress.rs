//! Throttled live progress line for sweeps.
//!
//! [`Progress`] renders `cells done/total · sim-instr/s · dedup hit rate ·
//! ETA` as a stderr line. It is built to be *provably absent from result
//! bytes*:
//!
//! - rendering is a pure function ([`Progress::tick`] returns an
//!   `Option<String>`; the caller prints it to stderr and nowhere else),
//! - a disabled instance (quiet mode) returns `None` unconditionally, so
//!   not a single byte is produced,
//! - emission is rate-limited to one line per [`MIN_INTERVAL`].
//!
//! The engine enables it whenever it is verbose (not `--quiet`), and
//! prints each line after a `\r` when stderr is a terminal
//! ([`stderr_is_tty`]) and on a line of its own otherwise.

use std::io::IsTerminal;
use std::time::{Duration, Instant};

/// Minimum wall time between two rendered progress lines.
pub const MIN_INTERVAL: Duration = Duration::from_millis(200);

/// Whether stderr is attached to a terminal (where a progress line can be
/// redrawn in place; a file or pipe gets one line per render instead).
pub fn stderr_is_tty() -> bool {
    std::io::stderr().is_terminal()
}

/// Live sweep progress state and renderer.
#[derive(Debug)]
pub struct Progress {
    enabled: bool,
    total: u64,
    done: u64,
    /// Simulated instructions completed so far.
    instr: u64,
    /// Jobs satisfied by dedup (memory or store hits).
    dedup_hits: u64,
    started: Instant,
    last_emit: Option<Instant>,
    emitted: bool,
}

impl Progress {
    /// A progress tracker over `total` cells. When `enabled` is false the
    /// tracker never renders anything.
    pub fn new(total: u64, enabled: bool) -> Self {
        Progress {
            enabled,
            total,
            done: 0,
            instr: 0,
            dedup_hits: 0,
            started: Instant::now(),
            last_emit: None,
            emitted: false,
        }
    }

    /// Records dedup hits discovered before simulation started; they
    /// count as done cells.
    pub fn set_dedup_hits(&mut self, hits: u64) {
        self.done = self.done - self.dedup_hits + hits;
        self.dedup_hits = hits;
    }

    /// Advances progress by one completed cell that simulated `instr`
    /// instructions, returning the line to print (without the leading
    /// `\r`) when enough wall time passed — `None` when disabled,
    /// throttled, or done == 0.
    pub fn tick(&mut self, instr: u64) -> Option<String> {
        self.done += 1;
        self.instr += instr;
        if !self.enabled {
            return None;
        }
        let now = Instant::now();
        let due = match self.last_emit {
            None => true,
            Some(at) => now.duration_since(at) >= MIN_INTERVAL,
        } || self.done == self.total;
        if !due {
            return None;
        }
        self.last_emit = Some(now);
        self.emitted = true;
        Some(self.render(now.duration_since(self.started)))
    }

    /// Renders the line for a given elapsed wall time (pure; used by
    /// [`Progress::tick`] and directly by tests).
    pub fn render(&self, elapsed: Duration) -> String {
        let secs = elapsed.as_secs_f64().max(1e-9);
        let rate = self.instr as f64 / secs;
        // Over simulated cells only: a dedup hit costs no time.
        let simulated = self.done - self.dedup_hits;
        let eta = if simulated > 0 && self.total > self.done {
            let per_cell = secs / simulated as f64;
            per_cell * (self.total - self.done) as f64
        } else {
            0.0
        };
        let hit_rate = if self.total > 0 {
            100.0 * self.dedup_hits as f64 / self.total as f64
        } else {
            0.0
        };
        format!(
            "[sweep] {}/{} cells | {} instr/s | dedup {:.0}% | eta {}",
            self.done,
            self.total,
            human_rate(rate),
            hit_rate,
            human_secs(eta),
        )
    }

    /// Whether any line was emitted (the caller prints a trailing newline
    /// to leave the terminal clean if so).
    pub fn needs_newline(&self) -> bool {
        self.emitted
    }
}

fn human_rate(r: f64) -> String {
    if r >= 1e9 {
        format!("{:.1}G", r / 1e9)
    } else if r >= 1e6 {
        format!("{:.1}M", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}k", r / 1e3)
    } else {
        format!("{r:.0}")
    }
}

fn human_secs(s: f64) -> String {
    let s = s.round() as u64;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_progress_emits_zero_bytes() {
        // The `--quiet` contract: not one byte, ever.
        let mut p = Progress::new(10, false);
        p.set_dedup_hits(3);
        for _ in 0..10 {
            assert_eq!(p.tick(1_000_000), None);
        }
        assert!(!p.needs_newline());
    }

    #[test]
    fn enabled_progress_renders_and_throttles() {
        let mut p = Progress::new(100, true);
        let first = p.tick(50_000);
        assert!(first.is_some(), "first tick renders immediately");
        // Immediately after, the throttle suppresses output (well under
        // MIN_INTERVAL on any machine running this test).
        assert_eq!(p.tick(50_000), None);
        assert!(p.needs_newline());
    }

    #[test]
    fn final_cell_always_renders() {
        let mut p = Progress::new(2, true);
        let _ = p.tick(10);
        let last = p.tick(10);
        assert!(last.is_some(), "reaching total bypasses the throttle");
        assert!(last.unwrap().starts_with("[sweep] 2/2 cells"));
    }

    #[test]
    fn render_formats_all_fields() {
        let mut p = Progress::new(40, true);
        p.set_dedup_hits(10);
        let _ = p.tick(2_000_000);
        let line = p.render(Duration::from_secs(1));
        assert!(line.contains("11/40 cells"), "{line}");
        assert!(line.contains("2.0M instr/s"), "{line}");
        assert!(line.contains("dedup 25%"), "{line}");
        assert!(line.contains("eta 29s"), "{line}");
    }

    #[test]
    fn dedup_hits_count_as_done_cells() {
        let mut p = Progress::new(3, true);
        p.set_dedup_hits(2);
        let line = p.tick(1_000).expect("first tick renders");
        assert!(line.starts_with("[sweep] 3/3 cells"), "{line}");
    }

    #[test]
    fn human_units() {
        assert_eq!(human_rate(500.0), "500");
        assert_eq!(human_rate(1_500.0), "1.5k");
        assert_eq!(human_rate(2_500_000.0), "2.5M");
        assert_eq!(human_rate(3_000_000_000.0), "3.0G");
        assert_eq!(human_secs(59.0), "59s");
        assert_eq!(human_secs(61.0), "1m01s");
        assert_eq!(human_secs(3_700.0), "1h01m");
    }
}
