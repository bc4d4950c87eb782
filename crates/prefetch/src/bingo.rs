//! Bingo spatial data prefetcher (Bakhshalipour et al., HPCA 2019),
//! Table III configuration: 2 KB regions, 64-entry filter table (FT),
//! 128-entry accumulation table (AT), 16 K-entry pattern history table
//! (PHT) — ≈124 KB. Placed at the L2 in the paper.
//!
//! Bingo associates each region's *footprint* (bitmap of touched lines)
//! with its trigger event, and looks footprints up with its
//! "PC+Address → PC+Offset" dual-key scheme: the long key (trigger PC and
//! full trigger address) is tried first; on a long-key miss the short key
//! (trigger PC and in-region offset) generalizes across regions.
//!
//! The FT and the AT are [`LruTable`]s keyed by region. A region's first
//! access inserts it into the FT, its second moves it to the AT (a
//! `remove` then an `insert`, which may evict the AT's least recently
//! used region and commit its footprint to the PHT), and later accesses
//! touch it in the AT. Each access stamps each table at most once, so
//! the tables' separate clocks order victims as one shared clock would.

use crate::{AccessEvent, FillEvent, PfBuf, Prefetcher};
use secpref_types::lru::LruTable;
use secpref_types::{Ip, LineAddr, PrefetchRequest};

const FT_SIZE: usize = 64;
const AT_SIZE: usize = 128;
/// Each of the two PHT halves (long- and short-key) holds 8 K entries,
/// totalling the paper's 16 K.
const PHT_SIZE: usize = 8192;
const REGION_LINES: u64 = 32;

/// A filtered region's trigger access.
#[derive(Clone, Copy, Debug, Default)]
struct FtEntry {
    ip: u64,
    offset: u32,
}

/// An accumulating region: its trigger and the footprint so far.
#[derive(Clone, Copy, Debug, Default)]
struct AtEntry {
    ip: u64,
    offset: u32,
    bitmap: u32,
}

#[derive(Clone, Copy, Debug, Default)]
struct PhtEntry {
    tag: u32,
    footprint: u32,
    valid: bool,
}

/// The Bingo prefetcher.
///
/// # Examples
///
/// ```
/// use secpref_prefetch::{Bingo, PfBuf, Prefetcher, simple_access};
///
/// let mut p = Bingo::new();
/// let mut out = PfBuf::new();
/// // Visit many regions with the same footprint {0,1,4} from IP 0x9;
/// // footprints commit to the PHT as regions age out of the AT.
/// let mut predicted = 0;
/// for r in 0..170u64 {
///     for off in [0u64, 1, 4] {
///         out.clear();
///         p.observe_access(&simple_access(0x9, r * 32 + off, r, false), &mut out);
///         predicted += out.len();
///     }
/// }
/// assert!(predicted > 0, "recurring footprint gets predicted");
/// ```
#[derive(Clone, Debug)]
pub struct Bingo {
    /// Filter table: regions accessed once, by region.
    ft: LruTable<u64, FtEntry>,
    /// Accumulation table: regions accessed more than once, by region.
    at: LruTable<u64, AtEntry>,
    pht_long: Vec<PhtEntry>,
    pht_short: Vec<PhtEntry>,
    /// TS-Bingo tempo knob: also prefetch the predicted footprint this
    /// many regions ahead in the stream direction.
    lookahead: u32,
    last_region: u64,
    region_dir: i64,
}

impl Default for Bingo {
    fn default() -> Self {
        Self::new()
    }
}

impl Bingo {
    /// Creates the Table III configuration.
    pub fn new() -> Self {
        Bingo {
            ft: LruTable::new(FT_SIZE),
            at: LruTable::new(AT_SIZE),
            pht_long: vec![PhtEntry::default(); PHT_SIZE],
            pht_short: vec![PhtEntry::default(); PHT_SIZE],
            lookahead: 0,
            last_region: 0,
            region_dir: 1,
        }
    }

    fn long_key(ip: u64, line: u64) -> (usize, u32) {
        let h = ip
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(line.wrapping_mul(0xC2B2AE3D27D4EB4F));
        ((h as usize) & (PHT_SIZE - 1), (h >> 40) as u32)
    }

    fn short_key(ip: u64, offset: u32) -> (usize, u32) {
        let h = ip
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(offset as u64 + 1);
        ((h as usize) & (PHT_SIZE - 1), (h >> 40) as u32)
    }

    fn commit_footprint(&mut self, region: u64, e: AtEntry) {
        if e.bitmap.count_ones() < 2 {
            return; // single-access regions teach nothing
        }
        let trigger_line = region * REGION_LINES + e.offset as u64;
        let (li, lt) = Self::long_key(e.ip, trigger_line);
        self.pht_long[li] = PhtEntry {
            tag: lt,
            footprint: e.bitmap,
            valid: true,
        };
        let (si, st) = Self::short_key(e.ip, e.offset);
        // Short-key entries aggregate: OR footprints of same-key regions.
        let s = &mut self.pht_short[si];
        if s.valid && s.tag == st {
            s.footprint |= e.bitmap;
        } else {
            *s = PhtEntry {
                tag: st,
                footprint: e.bitmap,
                valid: true,
            };
        }
    }

    fn predict(&self, ip: u64, line: u64, offset: u32) -> Option<u32> {
        let (li, lt) = Self::long_key(ip, line);
        let e = self.pht_long[li];
        if e.valid && e.tag == lt {
            return Some(e.footprint);
        }
        let (si, st) = Self::short_key(ip, offset);
        let e = self.pht_short[si];
        (e.valid && e.tag == st).then_some(e.footprint)
    }

    fn issue_footprint(
        &self,
        region: u64,
        skip_offset: Option<u32>,
        footprint: u32,
        ip: Ip,
        out: &mut PfBuf,
    ) {
        for bit in 0..REGION_LINES as u32 {
            if footprint & (1 << bit) == 0 {
                continue;
            }
            if skip_offset == Some(bit) {
                continue;
            }
            let line = LineAddr::new(region * REGION_LINES + bit as u64);
            out.push(PrefetchRequest::to_l2(line, ip));
        }
    }
}

impl Prefetcher for Bingo {
    fn name(&self) -> &'static str {
        "Bingo"
    }

    fn storage_bytes(&self) -> f64 {
        // 16 K PHT entries × ~60 bits + FT/AT — Table III lists 124 KB.
        (2.0 * PHT_SIZE as f64 * 60.0 + FT_SIZE as f64 * 90.0 + AT_SIZE as f64 * 120.0) / 8.0
    }

    fn observe_access(&mut self, ev: &AccessEvent, out: &mut PfBuf) {
        let region = ev.line.raw() / REGION_LINES;
        let offset = (ev.line.raw() % REGION_LINES) as u32;
        if region != self.last_region {
            self.region_dir = if region > self.last_region { 1 } else { -1 };
            self.last_region = region;
        }

        // Accumulating?
        if let Some(e) = self.at.get_mut(&region) {
            e.bitmap |= 1 << offset;
            return;
        }
        // Second access to a filtered region: move FT → AT.
        if let Some(f) = self.ft.remove(&region) {
            let e = AtEntry {
                ip: f.ip,
                offset: f.offset,
                bitmap: (1 << f.offset) | (1 << offset),
            };
            if let Some((victim, v)) = self.at.insert(region, e) {
                self.commit_footprint(victim, v);
            }
            return;
        }
        // Trigger access to a brand-new region: allocate FT and predict.
        let f = FtEntry {
            ip: ev.ip.raw(),
            offset,
        };
        self.ft.insert(region, f);
        if let Some(fp) = self.predict(ev.ip.raw(), ev.line.raw(), offset) {
            self.issue_footprint(region, Some(offset), fp, ev.ip, out);
            // TS-Bingo tempo: prefetch the same predicted footprint for
            // regions further along the stream to compensate commit delay.
            for k in 1..=self.lookahead {
                let r = region.wrapping_add_signed(self.region_dir * k as i64);
                self.issue_footprint(r, None, fp, ev.ip, out);
            }
        }
    }

    fn observe_fill(&mut self, _ev: &FillEvent) {}

    fn set_timeliness_knob(&mut self, k: u32) {
        self.lookahead = k.min(4);
    }

    fn timeliness_knob(&self) -> u32 {
        self.lookahead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple_access;

    /// Touch `footprint` offsets of `region` with trigger ip, discarding
    /// any predictions made along the way.
    fn visit(p: &mut Bingo, ip: u64, region: u64, offsets: &[u64]) {
        let mut scratch = PfBuf::new();
        for &o in offsets {
            scratch.clear();
            p.observe_access(
                &simple_access(ip, region * 32 + o, region, false),
                &mut scratch,
            );
        }
    }

    #[test]
    fn recurring_footprint_predicted_for_new_region() {
        let mut p = Bingo::new();
        let mut out = PfBuf::new();
        // Footprints commit to the PHT when regions leave the AT, so
        // visit more regions than the AT holds.
        for r in 0..(AT_SIZE as u64 + 40) {
            visit(&mut p, 0x5, r, &[3, 4, 9, 20]);
        }
        // New region, same trigger PC+offset: short key should hit.
        p.observe_access(&simple_access(0x5, 5000 * 32 + 3, 999, false), &mut out);
        let offs: Vec<u64> = out.iter().map(|r| r.line.raw() % 32).collect();
        assert!(
            offs.contains(&4) && offs.contains(&9) && offs.contains(&20),
            "{offs:?}"
        );
        // Trigger offset itself is not re-prefetched.
        assert!(!offs.contains(&3));
    }

    #[test]
    fn prefetches_target_l2() {
        let mut p = Bingo::new();
        let mut out = PfBuf::new();
        for r in 0..(AT_SIZE as u64 + 40) {
            visit(&mut p, 0x5, r, &[1, 2]);
        }
        p.observe_access(&simple_access(0x5, 500 * 32 + 1, 999, false), &mut out);
        assert!(!out.is_empty());
        assert!(out
            .iter()
            .all(|r| r.fill_level == secpref_types::CacheLevel::L2));
    }

    #[test]
    fn single_access_regions_not_learned() {
        let mut p = Bingo::new();
        let mut out = PfBuf::new();
        // 200 regions touched exactly once each.
        for r in 0..200 {
            visit(&mut p, 0x7, r, &[5]);
        }
        p.observe_access(&simple_access(0x7, 1000 * 32 + 5, 999, false), &mut out);
        assert!(out.is_empty(), "no footprint should exist");
    }

    #[test]
    fn lookahead_knob_prefetches_future_regions() {
        let mut p = Bingo::new();
        for r in 0..(AT_SIZE as u64 + 40) {
            visit(&mut p, 0x5, r, &[2, 6, 7]);
        }
        let mut out0 = PfBuf::new();
        let mut p0 = p.clone();
        p0.observe_access(&simple_access(0x5, 5000 * 32 + 2, 999, false), &mut out0);

        let mut out2 = PfBuf::new();
        p.set_timeliness_knob(2);
        p.observe_access(&simple_access(0x5, 5000 * 32 + 2, 999, false), &mut out2);
        assert!(
            out2.len() > out0.len(),
            "lookahead adds future-region prefetches"
        );
        let max_region = out2.iter().map(|r| r.line.raw() / 32).max().unwrap();
        assert!(max_region >= 5002);
    }

    #[test]
    fn long_key_beats_short_key() {
        let mut p = Bingo::new();
        let mut out = PfBuf::new();
        // Region 7 gets a specific footprint under trigger (ip, full addr).
        visit(&mut p, 0x9, 7, &[0, 10, 11]);
        // Many other regions (same ip, same offset 0) get a different one.
        for r in 100..130 {
            visit(&mut p, 0x9, r, &[0, 1]);
        }
        // Force region 7's AT entry out by filling the AT.
        for r in 200..(200 + AT_SIZE as u64 + 4) {
            visit(&mut p, 0x9, r, &[0, 1]);
        }
        // Re-trigger region 7 at offset 0: the long key (exact address)
        // should recall {10, 11}, not the generic {1}.
        p.observe_access(&simple_access(0x9, 7 * 32, 9999, false), &mut out);
        let offs: Vec<u64> = out.iter().map(|r| r.line.raw() % 32).collect();
        assert!(offs.contains(&10) && offs.contains(&11), "{offs:?}");
    }
}
