//! Single-channel DRAM model: banks with open-page row buffers, FR-FCFS
//! scheduling, a shared data bus, and write-queue draining governed by a
//! high watermark (Table II, DRAM row).
//!
//! Reads and writes wait in two instances of one queue type. Each queued
//! request is one record holding the request, its precomputed
//! `(bank, row)` and a sequence number; the queue's per-bank index turns
//! the FR-FCFS pick into a scan over banks instead of over requests.

use secpref_types::config::DramConfig;
use secpref_types::{counters, Cycle, LineAddr, LINE_SIZE};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A request presented to the memory controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramRequest {
    /// Target line.
    pub line: LineAddr,
    /// True for a writeback; writes complete silently.
    pub is_write: bool,
    /// Caller-chosen identifier returned on completion (reads only).
    pub token: u64,
    /// Cycle the request entered the controller.
    pub arrival: Cycle,
}

/// A completed DRAM read as reported by [`DramModel::tick`]:
/// `(token, completion_cycle, arrival_cycle)`.
pub type DramCompletion = (u64, Cycle, Cycle);

#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    ready_at: Cycle,
}

/// One queued request: the request, its bank and row (computed once at
/// enqueue), and its sequence number in its queue. Sequence numbers
/// ascend along a queue, so seq → position is a binary search.
#[derive(Clone, Copy, Debug)]
struct Queued {
    req: DramRequest,
    bank: u32,
    row: u64,
    seq: u64,
}

/// Per-bank FR-FCFS index over one [`RequestQueue`]: ascending sequence
/// numbers of the bank's queued requests (FCFS order), plus the subset
/// that hits the bank's currently-open row. `hits` is rebuilt whenever
/// the bank's open row changes and maintained incrementally otherwise.
#[derive(Clone, Debug, Default)]
struct BankIndex {
    seqs: VecDeque<u64>,
    hits: VecDeque<u64>,
}

/// One request queue (the controller has a read and a write instance):
/// the queued records in arrival order and the per-bank index over them.
#[derive(Clone, Debug)]
struct RequestQueue {
    reqs: VecDeque<Queued>,
    by_bank: Vec<BankIndex>,
    next_seq: u64,
}

impl RequestQueue {
    fn new(banks: usize) -> Self {
        RequestQueue {
            reqs: VecDeque::new(),
            by_bank: vec![BankIndex::default(); banks],
            next_seq: 0,
        }
    }

    /// Appends `req` for `bank`'s `row`, indexed as a row hit if `hit`.
    fn push(&mut self, req: DramRequest, bank: u32, row: u64, hit: bool) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let bi = &mut self.by_bank[bank as usize];
        bi.seqs.push_back(seq);
        if hit {
            bi.hits.push_back(seq);
        }
        self.reqs.push_back(Queued {
            req,
            bank,
            row,
            seq,
        });
    }

    /// FR-FCFS pick: the oldest row hit whose bank is ready, else the
    /// oldest request with a ready bank. Each index list's head is its
    /// bank's oldest candidate, so this scans banks; the winner's queue
    /// position is recovered by binary search on the records' seq.
    fn pick(&self, banks: &[Bank], now: Cycle) -> Option<usize> {
        let mut best_hit: Option<u64> = None;
        let mut best_any: Option<u64> = None;
        for (bank, bi) in banks.iter().zip(&self.by_bank) {
            if bank.ready_at > now {
                continue;
            }
            if let Some(&s) = bi.hits.front() {
                if best_hit.is_none_or(|c| s < c) {
                    best_hit = Some(s);
                }
            }
            if let Some(&s) = bi.seqs.front() {
                if best_any.is_none_or(|c| s < c) {
                    best_any = Some(s);
                }
            }
        }
        let target = best_hit.or(best_any)?;
        let i = self.reqs.binary_search_by_key(&target, |q| q.seq);
        Some(i.expect("indexed seq is queued"))
    }

    /// The pre-index linear scan, kept as the debug-mode oracle: every
    /// `tick` in a debug build asserts the indexed pick matches it.
    #[cfg(debug_assertions)]
    fn pick_linear(&self, banks: &[Bank], now: Cycle) -> Option<usize> {
        let mut oldest_ready: Option<usize> = None;
        for (i, q) in self.reqs.iter().enumerate() {
            let bank = &banks[q.bank as usize];
            if bank.ready_at > now {
                continue;
            }
            if bank.open_row == Some(q.row) {
                return Some(i); // first (oldest) row hit wins
            }
            if oldest_ready.is_none() {
                oldest_ready = Some(i);
            }
        }
        oldest_ready
    }

    /// Removes and returns the record at position `i`, unindexing it.
    fn take(&mut self, i: usize) -> Option<Queued> {
        let q = self.reqs.remove(i)?;
        let bi = &mut self.by_bank[q.bank as usize];
        let j = bi.seqs.binary_search(&q.seq);
        bi.seqs.remove(j.expect("queued seq is indexed"));
        if let Ok(j) = bi.hits.binary_search(&q.seq) {
            bi.hits.remove(j);
        }
        Some(q)
    }

    /// Refills bank `b`'s row-hit list after its open row became `row`.
    fn rebuild_hits(&mut self, b: u32, row: u64) {
        let hits = &mut self.by_bank[b as usize].hits;
        hits.clear();
        for q in self.reqs.iter().filter(|q| (q.bank, q.row) == (b, row)) {
            hits.push_back(q.seq);
        }
    }
}

counters! {
    /// Aggregate DRAM statistics.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct DramStats {
        /// Reads completed.
        pub reads: u64,
        /// Writes completed.
        pub writes: u64,
        /// Row-buffer hits among all serviced requests.
        pub row_hits: u64,
        /// Row-buffer misses (activate or precharge+activate needed).
        pub row_misses: u64,
        /// Reads served by write-queue forwarding.
        pub wq_forwards: u64,
    }
}

/// The single-channel memory controller.
///
/// Call [`DramModel::enqueue`] to submit requests and [`DramModel::tick`]
/// once per cycle; completed read tokens are pushed into the output vector.
///
/// # Examples
///
/// ```
/// use secpref_mem::{DramModel, DramRequest};
/// use secpref_types::config::DramConfig;
/// use secpref_types::LineAddr;
///
/// let mut dram = DramModel::new(DramConfig::default());
/// dram.enqueue(DramRequest { line: LineAddr::new(0), is_write: false, token: 1, arrival: 0 })
///     .unwrap();
/// let mut done = Vec::new();
/// for now in 0..500 {
///     dram.tick(now, &mut done);
/// }
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].0, 1); // our token
/// ```
#[derive(Clone, Debug)]
pub struct DramModel {
    cfg: DramConfig,
    banks: Vec<Bank>,
    reads: RequestQueue,
    writes: RequestQueue,
    bus_free_at: Cycle,
    completions: BinaryHeap<Reverse<(Cycle, u64, Cycle)>>,
    draining_writes: bool,
    stats: DramStats,
}

impl DramModel {
    /// Creates a controller with the given timing parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.banks` is zero or `cfg.row_bytes` is not a nonzero
    /// whole number of 64 B lines, both of which
    /// `SystemConfig::validate` refuses.
    pub fn new(cfg: DramConfig) -> Self {
        let row = cfg.row_bytes as u64;
        assert!(
            cfg.banks > 0 && row > 0 && row.is_multiple_of(LINE_SIZE),
            "DRAM needs banks and whole-line rows: {cfg:?}"
        );
        DramModel {
            banks: vec![Bank::default(); cfg.banks],
            reads: RequestQueue::new(cfg.banks),
            writes: RequestQueue::new(cfg.banks),
            cfg,
            bus_free_at: 0,
            completions: BinaryHeap::new(),
            draining_writes: false,
            stats: DramStats::default(),
        }
    }

    /// Submits a request to the controller.
    ///
    /// Reads that find their line in the write queue are forwarded and
    /// complete after `t_cas` without occupying a bank, even when the
    /// read queue is full.
    ///
    /// # Errors
    ///
    /// Returns the request back when the respective queue is full; the
    /// caller must stall and retry.
    pub fn enqueue(&mut self, req: DramRequest) -> Result<(), DramRequest> {
        if !req.is_write && self.writes.reqs.iter().any(|q| q.req.line == req.line) {
            self.stats.wq_forwards += 1;
            self.completions.push(Reverse((
                req.arrival + self.cfg.t_cas,
                req.token,
                req.arrival,
            )));
            return Ok(());
        }
        let queue = if req.is_write {
            &mut self.writes
        } else {
            &mut self.reads
        };
        if queue.reqs.len() >= self.cfg.queue_depth {
            return Err(req);
        }
        let global_row = req.line.raw() / (self.cfg.row_bytes as u64 / LINE_SIZE);
        let nbanks = self.banks.len() as u64;
        let (bank, row) = ((global_row % nbanks) as u32, global_row / nbanks);
        let hit = self.banks[bank as usize].open_row == Some(row);
        queue.push(req, bank, row, hit);
        Ok(())
    }

    /// Number of buffered (unscheduled) requests.
    pub fn pending(&self) -> usize {
        self.reads.reqs.len() + self.writes.reqs.len()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    fn service(&mut self, q: Queued, now: Cycle) {
        let bank = &mut self.banks[q.bank as usize];
        let row_changed = bank.open_row != Some(q.row);
        // Access latency is when the data appears; bank *occupancy* is
        // shorter — column accesses pipeline behind an open row (t_ccd),
        // while activates hold the bank until the row is open.
        let t_ccd = 8;
        let (access_lat, busy) = match bank.open_row {
            Some(r) if r == q.row => {
                self.stats.row_hits += 1;
                (self.cfg.t_cas, t_ccd)
            }
            Some(_) => {
                self.stats.row_misses += 1;
                (
                    self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas,
                    self.cfg.t_rp + self.cfg.t_rcd + t_ccd,
                )
            }
            None => {
                self.stats.row_misses += 1;
                (self.cfg.t_rcd + self.cfg.t_cas, self.cfg.t_rcd + t_ccd)
            }
        };
        let transfer_start = (now + access_lat).max(self.bus_free_at);
        let done = transfer_start + self.cfg.bus_cycles_per_line;
        self.bus_free_at = done;
        bank.ready_at = now + busy;
        bank.open_row = Some(q.row);
        if row_changed {
            self.reads.rebuild_hits(q.bank, q.row);
            self.writes.rebuild_hits(q.bank, q.row);
        }
        if q.req.is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
            self.completions
                .push(Reverse((done, q.req.token, q.req.arrival)));
        }
    }

    /// Advances the controller to `now`: schedules at most one command and
    /// pushes `(token, completion_cycle, arrival_cycle)` for every read
    /// that finished at or before `now` (arrival rides along so callers
    /// can attribute the controller delay without tracking it per token).
    pub fn tick(&mut self, now: Cycle, completed: &mut Vec<DramCompletion>) {
        // Write-drain mode hysteresis around the high watermark.
        let (num, den) = self.cfg.write_watermark;
        let high = (self.cfg.queue_depth * num / den).max(1);
        if self.writes.reqs.len() >= high {
            self.draining_writes = true;
        }
        if self.writes.reqs.is_empty() {
            self.draining_writes = false;
        }

        // Writes while draining or while no read waits (with both queues
        // empty the pick is `None` either way).
        let queue = if self.draining_writes || self.reads.reqs.is_empty() {
            &mut self.writes
        } else {
            &mut self.reads
        };
        let i = queue.pick(&self.banks, now);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            i,
            queue.pick_linear(&self.banks, now),
            "indexed FR-FCFS must match the linear scan"
        );
        if let Some(q) = i.and_then(|i| queue.take(i)) {
            self.service(q, now);
        }

        while let Some(&Reverse((c, tok, arr))) = self.completions.peek() {
            if c > now {
                break;
            }
            self.completions.pop();
            completed.push((tok, c, arr));
        }
    }

    /// Earliest cycle strictly after `now` at which [`DramModel::tick`]
    /// could do anything: deliver a completion, or pick a queued request
    /// once its bank turns ready. `Cycle::MAX` when fully idle. May be
    /// conservatively early (e.g. a bank turns ready but the scheduler
    /// is in the other drain mode) — safe, because `tick` is a no-op
    /// when nothing is pickable or completable.
    pub fn next_event(&self, now: Cycle) -> Cycle {
        let mut at = Cycle::MAX;
        if let Some(&Reverse((c, _, _))) = self.completions.peek() {
            at = c.max(now + 1);
        }
        if self.pending() > 0 {
            let queued = self.reads.by_bank.iter().zip(&self.writes.by_bank);
            for (bank, (r, w)) in self.banks.iter().zip(queued) {
                if !(r.seqs.is_empty() && w.seqs.is_empty()) {
                    at = at.min(bank.ready_at.max(now + 1));
                    if at == now + 1 {
                        break;
                    }
                }
            }
        }
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(dram: &mut DramModel, cycles: Cycle) -> Vec<DramCompletion> {
        let mut out = Vec::new();
        for now in 0..cycles {
            dram.tick(now, &mut out);
        }
        out
    }

    fn read(line: u64, token: u64, arrival: Cycle) -> DramRequest {
        DramRequest {
            line: LineAddr::new(line),
            is_write: false,
            token,
            arrival,
        }
    }

    #[test]
    fn stats_delta_is_field_wise_and_saturating() {
        let now = DramStats::from_values([10, 20, 30, 40, 50]);
        let then = DramStats::from_values([1, 2, 3, 4, 99]);
        assert_eq!(now.delta(&then).values(), [9, 18, 27, 36, 0]);
    }

    #[test]
    fn single_read_completes_with_activate_latency() {
        let cfg = DramConfig::default();
        let mut dram = DramModel::new(cfg.clone());
        dram.enqueue(read(0, 7, 0)).unwrap();
        let done = run(&mut dram, 400);
        assert_eq!(done.len(), 1);
        let (tok, cycle, arrival) = done[0];
        assert_eq!(tok, 7);
        assert_eq!(arrival, 0);
        // Empty bank: t_rcd + t_cas + bus.
        assert_eq!(cycle, cfg.t_rcd + cfg.t_cas + cfg.bus_cycles_per_line);
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let cfg = DramConfig::default();
        let mut dram = DramModel::new(cfg.clone());
        // Two lines in the same row.
        dram.enqueue(read(0, 1, 0)).unwrap();
        dram.enqueue(read(1, 2, 0)).unwrap();
        let done = run(&mut dram, 600);
        assert_eq!(done.len(), 2);
        let first = done[0].1;
        let second = done[1].1;
        // Second access is a row hit: only t_cas + bus beyond the first
        // command issue; far less than a full activate.
        assert!(second - first < cfg.t_rcd + cfg.t_cas);
        assert_eq!(dram.stats().row_hits, 1);
        assert_eq!(dram.stats().row_misses, 1);
    }

    #[test]
    fn different_rows_same_bank_precharge() {
        let cfg = DramConfig::default();
        let rows_gap = (cfg.row_bytes as u64 / 64) * cfg.banks as u64;
        let mut dram = DramModel::new(cfg.clone());
        dram.enqueue(read(0, 1, 0)).unwrap();
        dram.enqueue(read(rows_gap, 2, 0)).unwrap(); // same bank, next row
        let done = run(&mut dram, 2000);
        assert_eq!(done.len(), 2);
        assert_eq!(dram.stats().row_misses, 2);
    }

    #[test]
    fn write_queue_forwarding() {
        let cfg = DramConfig::default();
        let mut dram = DramModel::new(cfg.clone());
        dram.enqueue(DramRequest {
            line: LineAddr::new(5),
            is_write: true,
            token: 0,
            arrival: 0,
        })
        .unwrap();
        dram.enqueue(read(5, 9, 3)).unwrap();
        // Forwarded read completes at arrival + t_cas regardless of banks.
        let done = run(&mut dram, 200);
        assert!(done
            .iter()
            .any(|&(t, c, a)| t == 9 && c == 3 + cfg.t_cas && a == 3));
        assert_eq!(dram.stats().wq_forwards, 1);
    }

    #[test]
    fn wq_forward_index_tracks_queue_boundary() {
        // Forwarding follows the write queue's contents across drains:
        // a read arriving while its write is queued forwards at
        // arrival + t_cas; once the write has drained out of the queue,
        // the same line must go to the banks instead of forwarding.
        let cfg = DramConfig::default();
        let mut dram = DramModel::new(cfg.clone());
        dram.enqueue(DramRequest {
            line: LineAddr::new(5),
            is_write: true,
            token: 0,
            arrival: 0,
        })
        .unwrap();
        // A read to a *different* line must not forward.
        dram.enqueue(read(6, 1, 0)).unwrap();
        // A read to the queued line forwards exactly.
        dram.enqueue(read(5, 2, 2)).unwrap();
        assert_eq!(dram.stats().wq_forwards, 1);
        let done = run(&mut dram, 2000);
        assert!(done.iter().any(|&(t, c, _)| t == 2 && c == 2 + cfg.t_cas));
        assert!(done.iter().any(|&(t, _, _)| t == 1));
        // The write has drained (queues idle → drain mode picks it up).
        assert_eq!(dram.stats().writes, 1);
        // Same line again: nothing left in the write queue to forward.
        dram.enqueue(read(5, 3, 2000)).unwrap();
        let done = run_from(&mut dram, 2000, 2000);
        assert_eq!(dram.stats().wq_forwards, 1, "no forward after drain");
        assert!(done.iter().any(|&(t, _, _)| t == 3), "read served by banks");
    }

    #[test]
    fn writes_drain_at_watermark() {
        let cfg = DramConfig {
            queue_depth: 8,
            ..DramConfig::default()
        };
        let mut dram = DramModel::new(cfg.clone());
        // Fill write queue to the 7/8 watermark.
        for i in 0..7 {
            dram.enqueue(DramRequest {
                line: LineAddr::new(i * 1000),
                is_write: true,
                token: 0,
                arrival: 0,
            })
            .unwrap();
        }
        // Also one read: drain mode should prefer writes first.
        dram.enqueue(read(99_999, 42, 0)).unwrap();
        run(&mut dram, 5000);
        assert_eq!(dram.stats().writes, 7);
        assert_eq!(dram.stats().reads, 1);
    }

    #[test]
    fn queue_full_rejects() {
        let cfg = DramConfig {
            queue_depth: 2,
            ..DramConfig::default()
        };
        let mut dram = DramModel::new(cfg);
        dram.enqueue(read(0, 1, 0)).unwrap();
        dram.enqueue(read(100_000, 2, 0)).unwrap();
        assert!(dram.enqueue(read(200_000, 3, 0)).is_err());
    }

    #[test]
    fn forwarding_is_decided_before_the_read_queue_is_full() {
        // The hierarchy wakes reads parked on a full read queue after
        // every write enqueue: a parked read whose line just entered the
        // write queue must forward even though the read queue is full.
        let cfg = DramConfig {
            queue_depth: 2,
            ..DramConfig::default()
        };
        let mut dram = DramModel::new(cfg);
        dram.enqueue(read(0, 1, 0)).unwrap();
        dram.enqueue(read(100_000, 2, 0)).unwrap();
        dram.enqueue(DramRequest {
            line: LineAddr::new(7),
            is_write: true,
            token: 0,
            arrival: 1,
        })
        .unwrap();
        assert!(dram.enqueue(read(7, 3, 2)).is_ok());
        assert_eq!(dram.stats().wq_forwards, 1);
        assert!(dram.enqueue(read(200_000, 4, 2)).is_err());
        assert_eq!(dram.stats().wq_forwards, 1);
    }

    #[test]
    fn bus_serializes_transfers() {
        let cfg = DramConfig::default();
        let mut dram = DramModel::new(cfg.clone());
        // Many row hits in the same row: completions spaced by bus time.
        for i in 0..4 {
            dram.enqueue(read(i, i, 0)).unwrap();
        }
        let done = run(&mut dram, 2000);
        assert_eq!(done.len(), 4);
        for w in done.windows(2) {
            assert!(w[1].1 >= w[0].1 + cfg.bus_cycles_per_line);
        }
    }

    /// Ticks `dram` over `[start, start + cycles)`, collecting completions.
    fn run_from(dram: &mut DramModel, start: Cycle, cycles: Cycle) -> Vec<DramCompletion> {
        let mut out = Vec::new();
        for now in start..start + cycles {
            dram.tick(now, &mut out);
        }
        out
    }

    #[test]
    fn fr_fcfs_younger_row_hit_bypasses_older_miss() {
        let cfg = DramConfig::default();
        let rows_gap = (cfg.row_bytes as u64 / 64) * cfg.banks as u64;
        let mut dram = DramModel::new(cfg);
        // Open row 0 of bank 0.
        dram.enqueue(read(0, 1, 0)).unwrap();
        run(&mut dram, 400);
        // Older request: same bank, different row (a conflict). Younger
        // request: the open row. FR-FCFS must service the hit first.
        dram.enqueue(read(rows_gap, 10, 400)).unwrap();
        dram.enqueue(read(1, 11, 401)).unwrap();
        let done = run_from(&mut dram, 400, 2000);
        let pos = |tok| done.iter().position(|&(t, _, _)| t == tok).unwrap();
        assert!(
            pos(11) < pos(10),
            "row hit must leapfrog the older row miss: {done:?}"
        );
        assert_eq!(dram.stats().row_hits, 1, "only the bypassing read hits");
    }

    #[test]
    fn fcfs_breaks_ties_when_no_row_hits() {
        let cfg = DramConfig::default();
        let rows_gap = (cfg.row_bytes as u64 / 64) * cfg.banks as u64;
        let mut dram = DramModel::new(cfg);
        // Two conflicting rows in the same bank, no open-row match for
        // either: the older one must go first (plain FCFS fallback).
        dram.enqueue(read(rows_gap, 20, 0)).unwrap();
        dram.enqueue(read(2 * rows_gap, 21, 1)).unwrap();
        let done = run(&mut dram, 3000);
        assert_eq!(done[0].0, 20);
        assert_eq!(done[1].0, 21);
    }

    #[test]
    fn row_buffer_transitions_hit_miss_conflict() {
        // The three row-buffer states, with exact latencies:
        //   closed bank  → activate:             t_rcd + t_cas
        //   open, same   → hit:                  t_cas
        //   open, other  → conflict (precharge): t_rp + t_rcd + t_cas
        let cfg = DramConfig::default();
        let rows_gap = (cfg.row_bytes as u64 / 64) * cfg.banks as u64;
        let mut dram = DramModel::new(cfg.clone());

        // Closed bank: first activate.
        dram.enqueue(read(0, 1, 0)).unwrap();
        let done = run_from(&mut dram, 0, 1000);
        assert_eq!(
            done,
            vec![(1, cfg.t_rcd + cfg.t_cas + cfg.bus_cycles_per_line, 0)]
        );
        assert_eq!((dram.stats().row_hits, dram.stats().row_misses), (0, 1));

        // Open row, same row: hit.
        dram.enqueue(read(1, 2, 1000)).unwrap();
        let done = run_from(&mut dram, 1000, 1000);
        assert_eq!(
            done,
            vec![(2, 1000 + cfg.t_cas + cfg.bus_cycles_per_line, 1000)]
        );
        assert_eq!((dram.stats().row_hits, dram.stats().row_misses), (1, 1));

        // Open row, different row: conflict pays the full precharge.
        dram.enqueue(read(rows_gap, 3, 2000)).unwrap();
        let done = run_from(&mut dram, 2000, 1000);
        assert_eq!(
            done,
            vec![(
                3,
                2000 + cfg.t_rp + cfg.t_rcd + cfg.t_cas + cfg.bus_cycles_per_line,
                2000
            )]
        );
        assert_eq!((dram.stats().row_hits, dram.stats().row_misses), (1, 2));

        // And back to a hit on the newly opened row.
        dram.enqueue(read(rows_gap + 1, 4, 3000)).unwrap();
        let done = run_from(&mut dram, 3000, 1000);
        assert_eq!(
            done,
            vec![(4, 3000 + cfg.t_cas + cfg.bus_cycles_per_line, 3000)]
        );
        assert_eq!((dram.stats().row_hits, dram.stats().row_misses), (2, 2));
    }

    mod props {
        use super::*;
        use secpref_types::rng::Xoshiro256ss;

        /// Stresses the per-bank FR-FCFS index against the linear-scan
        /// oracle (the `debug_assert_eq!` inside `tick`): mixed reads
        /// and writes arriving over time, hot rows forcing row hits,
        /// scattered lines forcing conflicts and open-row rebuilds.
        #[test]
        fn indexed_pick_matches_linear_oracle_under_stress() {
            for seed in 0..32u64 {
                let mut rng = Xoshiro256ss::seed_from_u64(seed);
                let mut dram = DramModel::new(DramConfig::default());
                let mut out = Vec::new();
                let mut token = 0u64;
                for now in 0..20_000u64 {
                    if rng.gen_index(3) == 0 {
                        // Half the traffic reuses a handful of hot rows.
                        let line = if rng.gen_flip() {
                            rng.gen_u64(4) * 4096 + rng.gen_u64(32)
                        } else {
                            rng.gen_u64(1_000_000)
                        };
                        token += 1;
                        let _ = dram.enqueue(DramRequest {
                            line: LineAddr::new(line),
                            is_write: rng.gen_flip(),
                            token,
                            arrival: now,
                        });
                    }
                    dram.tick(now, &mut out);
                }
            }
        }

        /// Every read that enters the controller eventually completes,
        /// exactly once, with completion >= arrival.
        #[test]
        fn all_reads_complete() {
            for seed in 0..48u64 {
                let mut rng = Xoshiro256ss::seed_from_u64(seed);
                let lines: Vec<u64> = (0..1 + rng.gen_index(39))
                    .map(|_| rng.gen_u64(1_000_000))
                    .collect();
                let mut dram = DramModel::new(DramConfig::default());
                let mut expected = Vec::new();
                for (i, l) in lines.iter().enumerate() {
                    if dram.enqueue(read(*l, i as u64, 0)).is_ok() {
                        expected.push(i as u64);
                    }
                }
                let done = run(&mut dram, 100_000);
                let mut tokens: Vec<u64> = done.iter().map(|&(t, _, _)| t).collect();
                tokens.sort_unstable();
                expected.sort_unstable();
                assert_eq!(tokens, expected);
                for &(_, c, a) in &done {
                    assert!(c > 0);
                    assert!(c >= a, "completion before arrival");
                }
            }
        }
    }
}
