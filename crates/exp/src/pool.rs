//! A std-only worker pool.
//!
//! Workers are scoped `std::thread`s pulling item indices from a shared
//! atomic cursor and reporting `(index, result, timing)` over an mpsc
//! channel. The pool's *result order is the item order* regardless of
//! worker count or completion interleaving — callers receive a `Vec`
//! indexed like the input slice, which is what makes N-worker sweeps
//! bit-identical to single-threaded ones.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Wall-clock placement of one completed item: which worker ran it and
/// when it ran relative to the pool launch. This is what the engine's
/// span exporter turns into one Chrome trace-event track per worker.
#[derive(Clone, Copy, Debug)]
pub struct ItemTiming {
    /// Index of the worker thread that ran the item (`0..workers`).
    pub worker: usize,
    /// Offset of the item's start from the pool launch.
    pub start: Duration,
    /// How long the item ran.
    pub wall: Duration,
}

/// Runs `run` over every item across `workers` threads — the engine's
/// [`JobSpec`](crate::JobSpec)s, or any other `Sync` work items
/// (`secpref-check` fans its fuzzing and differential cells out here).
///
/// `on_done` fires on the *calling* thread once per completed item, in
/// completion order, and learns where the item ran ([`ItemTiming`]) — use
/// it for progress lines, store appends and artifact writes, which stay
/// single-threaded without extra locks. The returned vector is in item
/// order, each result beside the wall-clock its item took.
///
/// # Panics
///
/// Propagates a panic from any item once all workers have drained.
pub fn run_items<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    run: impl Fn(&T) -> R + Sync,
    mut on_done: impl FnMut(usize, &T, &R, ItemTiming),
) -> Vec<(R, Duration)> {
    if items.is_empty() {
        return Vec::new();
    }
    let workers = workers.clamp(1, items.len());
    let cursor = AtomicUsize::new(0);
    let launch = Instant::now();
    let (tx, rx) = mpsc::channel::<(usize, R, ItemTiming)>();

    let mut slots: Vec<Option<(R, Duration)>> = Vec::new();
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let run = &run;
        for worker in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            scope.spawn(move || loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(idx) else { break };
                let start = Instant::now();
                let result = run(item);
                let timing = ItemTiming {
                    worker,
                    start: start.duration_since(launch),
                    wall: start.elapsed(),
                };
                if tx.send((idx, result, timing)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // `rx` closes when every worker exits; if one panicked mid-item we
        // fall out of the loop early and `scope` re-raises the panic.
        for (idx, result, timing) in rx {
            on_done(idx, &items[idx], &result, timing);
            slots[idx] = Some((result, timing.wall));
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every item completes exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::scale::ExpScale;
    use secpref_types::SystemConfig;

    fn jobs(names: &[&str]) -> Vec<JobSpec> {
        names
            .iter()
            .map(|n| JobSpec::single(SystemConfig::baseline(1), n, ExpScale::Quick))
            .collect()
    }

    #[test]
    fn results_are_in_job_order_for_any_worker_count() {
        let js = jobs(&["leela_like", "gcc_like", "leela_like"]);
        let one = run_items(&js, 1, JobSpec::run, |_, _, _, _| {});
        let four = run_items(&js, 4, JobSpec::run, |_, _, _, _| {});
        assert_eq!(one.len(), 3);
        for ((a, _), (b, _)) in one.iter().zip(&four) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.cores[0].instructions, b.cores[0].instructions);
            assert_eq!(a.cores[0].cycles, b.cores[0].cycles);
        }
    }

    #[test]
    fn callback_sees_every_job_once() {
        let js = jobs(&["leela_like", "gcc_like"]);
        let mut seen = Vec::new();
        run_items(&js, 2, JobSpec::run, |idx, job, report, timing| {
            assert!(timing.worker < 2);
            seen.push((idx, job.workload.describe(), report.ipc()));
        });
        seen.sort_by_key(|(idx, _, _)| *idx);
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].1, "leela_like");
        assert_eq!(seen[1].1, "gcc_like");
        assert!(seen.iter().all(|(_, _, ipc)| *ipc > 0.0));
    }

    #[test]
    fn generic_items_pool_preserves_order() {
        let items: Vec<u64> = (0..17).collect();
        let out = run_items(&items, 4, |&x| x * x, |_, _, _, _| {});
        assert_eq!(out.len(), 17);
        for (i, (r, _)) in out.iter().enumerate() {
            assert_eq!(*r, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        assert!(run_items(&[], 8, JobSpec::run, |_, _, _, _| {}).is_empty());
    }

    #[test]
    fn oversized_worker_count_is_clamped() {
        let js = jobs(&["leela_like"]);
        assert_eq!(run_items(&js, 64, JobSpec::run, |_, _, _, _| {}).len(), 1);
    }
}
