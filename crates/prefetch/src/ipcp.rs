//! IPCP: Instruction Pointer Classifier-based spatial Prefetching
//! (Pakalapati & Panda, ISCA 2020) — winner of DPC-3 and the paper's
//! Table III configuration: 128-entry IP table, 8-entry RST, 128-entry
//! CSPT (0.87 KB).
//!
//! Each load IP is classified into one of three classes, with this
//! precedence: **CS** (constant stride) → **GS** (global stream, from the
//! region stream table) → **CPLX** (complex stride, predicted by the
//! CSPT signature chain).
//!
//! The RST is an [`LruTable`] keyed by 2 KB region: every access touches
//! its region's row, allocating one over the least recently used region
//! on a miss.

use crate::{AccessEvent, FillEvent, PfBuf, Prefetcher};
use secpref_types::lru::LruTable;
use secpref_types::PrefetchRequest;

const IP_TABLE: usize = 128;
const CSPT_SIZE: usize = 128;
const RST_SIZE: usize = 8;
const CS_DEGREE: u32 = 4;
const GS_DEGREE: u32 = 4;
const CPLX_DEPTH: u32 = 3;
/// Region considered a dense stream when this many of its 32 lines were
/// touched.
const DENSE_THRESHOLD: u32 = 20;

#[derive(Clone, Copy, Debug, Default)]
struct IpEntry {
    tag: u16,
    valid: bool,
    last_line: u64,
    stride: i32,
    cs_conf: u8,
    signature: u8,
}

#[derive(Clone, Copy, Debug, Default)]
struct CsptEntry {
    stride: i32,
    conf: u8,
}

#[derive(Clone, Copy, Debug, Default)]
struct RstEntry {
    bitmap: u32,
    last_offset: u32,
    /// +1 ascending, -1 descending, 0 unknown.
    direction: i8,
}

/// The IPCP prefetcher (L1D).
///
/// # Examples
///
/// ```
/// use secpref_prefetch::{Ipcp, PfBuf, Prefetcher, simple_access};
///
/// let mut p = Ipcp::new();
/// let mut out = PfBuf::new();
/// for i in 0..10u64 {
///     p.observe_access(&simple_access(0x400, 64 + 3 * i, i, false), &mut out);
/// }
/// assert!(!out.is_empty()); // constant stride class kicks in
/// ```
#[derive(Clone, Debug)]
pub struct Ipcp {
    ip_table: Vec<IpEntry>,
    cspt: Vec<CsptEntry>,
    /// Region stream table, by region.
    rst: LruTable<u64, RstEntry>,
    distance: u32,
}

impl Default for Ipcp {
    fn default() -> Self {
        Self::new()
    }
}

impl Ipcp {
    /// Creates the Table III configuration.
    pub fn new() -> Self {
        Ipcp {
            ip_table: vec![IpEntry::default(); IP_TABLE],
            cspt: vec![CsptEntry::default(); CSPT_SIZE],
            rst: LruTable::new(RST_SIZE),
            distance: 4,
        }
    }

    fn ip_index(ip: u64) -> (usize, u16) {
        ((ip ^ (ip >> 7)) as usize & (IP_TABLE - 1), (ip >> 7) as u16)
    }

    /// Updates the region stream table; returns the stream direction if
    /// the region qualifies as a dense global stream.
    fn update_rst(&mut self, line: u64) -> Option<i8> {
        let region = line >> 5;
        let offset = (line & 31) as u32;
        // A new row starts at this offset with no direction, so the
        // update below leaves it one bit, undirected, below threshold.
        let e = self.rst.get_or_insert_with(region, || RstEntry {
            bitmap: 0,
            last_offset: offset,
            direction: 0,
        });
        e.bitmap |= 1 << offset;
        e.direction = match offset.cmp(&e.last_offset) {
            std::cmp::Ordering::Greater => 1,
            std::cmp::Ordering::Less => -1,
            std::cmp::Ordering::Equal => e.direction,
        };
        e.last_offset = offset;
        (e.bitmap.count_ones() >= DENSE_THRESHOLD && e.direction != 0).then_some(e.direction)
    }
}

impl Prefetcher for Ipcp {
    fn name(&self) -> &'static str {
        "IPCP"
    }

    fn storage_bytes(&self) -> f64 {
        // 128-entry IP table (~46 b), 8-entry RST (~45 b), 128-entry CSPT
        // (~9 b) ≈ 0.87 KB (Table III).
        (IP_TABLE as f64 * 46.0 + RST_SIZE as f64 * 45.0 + CSPT_SIZE as f64 * 9.0) / 8.0
    }

    fn observe_access(&mut self, ev: &AccessEvent, out: &mut PfBuf) {
        let stream_dir = self.update_rst(ev.line.raw());
        let (idx, tag) = Self::ip_index(ev.ip.raw());
        let e = &mut self.ip_table[idx];
        if !e.valid || e.tag != tag {
            *e = IpEntry {
                tag,
                valid: true,
                last_line: ev.line.raw(),
                stride: 0,
                cs_conf: 0,
                signature: 0,
            };
            return;
        }
        let delta = (ev.line.raw() as i64 - e.last_line as i64) as i32;
        e.last_line = ev.line.raw();
        if delta == 0 {
            return;
        }
        // Constant-stride training.
        if delta == e.stride {
            e.cs_conf = (e.cs_conf + 1).min(3);
        } else if e.cs_conf > 0 {
            e.cs_conf -= 1;
        } else {
            e.stride = delta;
        }
        // CSPT training on the previous signature.
        let sig_idx = e.signature as usize & (CSPT_SIZE - 1);
        let c = &mut self.cspt[sig_idx];
        if c.stride == delta {
            c.conf = (c.conf + 1).min(3);
        } else if c.conf > 0 {
            c.conf -= 1;
        } else {
            c.stride = delta;
        }
        let new_sig = (((e.signature as u32) << 2) ^ (delta as u32 & 0x3F)) as u8;
        e.signature = new_sig & 0x7F;

        // Classification precedence: CS → GS → CPLX.
        if e.cs_conf >= 2 && e.stride != 0 {
            let stride = e.stride as i64;
            for k in 0..CS_DEGREE {
                let target = ev.line.offset(stride * (self.distance as i64 + k as i64));
                out.push(PrefetchRequest::to_l1d(target, ev.ip));
            }
        } else if let Some(dir) = stream_dir {
            for k in 1..=GS_DEGREE {
                let target = ev
                    .line
                    .offset(dir as i64 * (self.distance as i64 + k as i64 - 1));
                out.push(PrefetchRequest::to_l1d(target, ev.ip));
            }
        } else {
            // CPLX chain through the CSPT.
            let mut sig = e.signature;
            let mut cum = 0i64;
            for _depth in 0..CPLX_DEPTH {
                let c = self.cspt[sig as usize & (CSPT_SIZE - 1)];
                if c.conf < 2 || c.stride == 0 {
                    break;
                }
                cum += c.stride as i64;
                out.push(PrefetchRequest::to_l1d(ev.line.offset(cum), ev.ip));
                sig = ((((sig as u32) << 2) ^ (c.stride as u32 & 0x3F)) & 0x7F) as u8;
            }
        }
    }

    fn observe_fill(&mut self, _ev: &FillEvent) {}

    fn set_timeliness_knob(&mut self, k: u32) {
        self.distance = k.max(1);
    }

    fn timeliness_knob(&self) -> u32 {
        self.distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple_access;

    fn drive(p: &mut Ipcp, ip: u64, lines: &[u64]) -> Vec<u64> {
        let mut out = PfBuf::new();
        let mut targets = Vec::new();
        for (i, &l) in lines.iter().enumerate() {
            out.clear();
            p.observe_access(&simple_access(ip, l, i as u64, false), &mut out);
            targets.extend(out.iter().map(|r| r.line.raw()));
        }
        targets
    }

    #[test]
    fn cs_class_prefetches_strided() {
        let mut p = Ipcp::new();
        let lines: Vec<u64> = (0..10).map(|i| 1000 + 5 * i).collect();
        let t = drive(&mut p, 0x40, &lines);
        assert!(!t.is_empty());
        assert!(t.iter().all(|&x| (x - 1000) % 5 == 0));
    }

    #[test]
    fn gs_class_detects_dense_region() {
        let mut p = Ipcp::new();
        // Touch 24 lines of one region ascending with *different* IPs so
        // no per-IP constant stride forms, leaving GS to classify.
        let mut out = PfBuf::new();
        for i in 0..24u64 {
            out.clear();
            p.observe_access(
                &simple_access(0x100 + i * 64, 32 * 50 + i, i, false),
                &mut out,
            );
        }
        // Now a fresh access in the same region from a noisy IP: GS fires.
        out.clear();
        p.observe_access(&simple_access(0x100, 32 * 50 + 25, 30, false), &mut out);
        p.observe_access(&simple_access(0x100, 32 * 50 + 26, 31, false), &mut out);
        assert!(!out.is_empty(), "dense ascending region triggers GS");
    }

    #[test]
    fn cplx_learns_repeating_delta_pattern() {
        let mut p = Ipcp::new();
        // Repeating +1,+2,+3 pattern: not constant stride, CSPT learns it.
        let mut lines = Vec::new();
        let mut cur = 10_000u64;
        for _ in 0..30 {
            for d in [1u64, 2, 3] {
                cur += d;
                lines.push(cur);
            }
        }
        let t = drive(&mut p, 0x99, &lines);
        assert!(!t.is_empty(), "CPLX chain should produce prefetches");
    }

    #[test]
    fn knob_controls_cs_distance() {
        let mut p = Ipcp::new();
        p.set_timeliness_knob(10);
        let lines: Vec<u64> = (0..10).map(|i| 1000 + i).collect();
        let t = drive(&mut p, 0x40, &lines);
        assert!(t.iter().any(|&x| x >= 1009 + 10 - 1));
        assert_eq!(p.timeliness_knob(), 10);
    }

    #[test]
    fn untrained_ip_is_quiet() {
        let mut p = Ipcp::new();
        let t = drive(&mut p, 0x1, &[7, 7777, 13, 999_999]);
        assert!(t.is_empty());
    }
}
