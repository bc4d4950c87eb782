//! SPEC-CPU2017-like synthetic kernels.
//!
//! Each kernel is a weighted mixture of access-pattern components chosen to
//! land in the same pattern class and MPKI regime as the memory-intensive
//! SPEC trace it is named after. The components cover the behaviours the
//! evaluated prefetchers are sensitive to:
//!
//! * [`Component::Stream`] — unit/long strides (bwaves, lbm, roms):
//!   IP-stride and Berti territory.
//! * [`Component::PointerChase`] — dependent random loads (mcf, omnetpp):
//!   high MPKI, little prefetchability, long serialized latencies.
//! * [`Component::RegionReuse`] — recurring spatial footprints over 2 KB
//!   regions (xalancbmk, gcc): Bingo/SPP territory.
//! * [`Component::Gather`] — indexed but independent loads (mcf arcs,
//!   fotonik): memory-level parallelism with irregular addresses.
//! * [`Component::StoreStream`] — streaming stores (lbm).

use crate::instr::{Instr, Trace};
use crate::sink::TraceSink;
use secpref_types::rng::Xoshiro256ss;
use secpref_types::LINE_SIZE;

/// One access-pattern component of a kernel mixture.
#[derive(Clone, Debug)]
pub enum Component {
    /// Strided loads over a circular buffer of `ws_lines` lines.
    Stream {
        /// Stride in cache lines between consecutive accesses.
        stride: i64,
        /// Working-set size in lines.
        ws_lines: u64,
    },
    /// A dependent random walk: each load's address comes from the
    /// previous load in the chain (serialized, unprefetchable).
    PointerChase {
        /// Working-set size in lines.
        ws_lines: u64,
    },
    /// Recurring footprints within 2 KB spatial regions: on each visit to
    /// a region, the same `footprint` line offsets are touched.
    RegionReuse {
        /// Number of distinct regions cycled over.
        regions: u64,
        /// Lines touched per region visit (1..=32).
        footprint: u32,
    },
    /// Independent irregular loads (index-array gathers): random addresses
    /// but no dependence, so the OoO window overlaps their misses.
    Gather {
        /// Working-set size in lines.
        ws_lines: u64,
    },
    /// Streaming stores with the given line stride.
    StoreStream {
        /// Stride in cache lines.
        stride: i64,
        /// Working-set size in lines.
        ws_lines: u64,
    },
}

/// A weighted mixture defining one SPEC-like kernel.
#[derive(Clone, Debug)]
pub struct SpecKernel {
    /// Trace name (e.g. `mcf_like_a`).
    pub name: String,
    /// RNG seed (fixed per kernel for reproducibility).
    pub seed: u64,
    /// Mixture components with integer weights.
    pub components: Vec<(Component, u32)>,
    /// ALU instructions inserted between memory operations.
    pub alu_per_mem: usize,
    /// Emit a loop-control branch every `branch_every` instructions.
    pub branch_every: usize,
    /// Probability a branch outcome is data-dependent noise (mispredicts).
    pub branch_noise: f64,
}

/// Distinct virtual-address bases per component slot, far apart so
/// components never alias.
const COMPONENT_BASE: u64 = 1 << 34;

struct ComponentState {
    comp: Component,
    base: u64,
    pos: u64,
    /// Instruction index (into the emitted trace) of the previous load of
    /// a pointer-chase chain, for dependency distances.
    last_chase_idx: Option<usize>,
    /// Per-component IP base so prefetchers see stable IPs.
    ip_base: u64,
    /// RegionReuse: which region is being visited and the offset cursor.
    region_cursor: u32,
    current_region: u64,
    /// Footprint pattern offsets (fixed per component).
    footprint_offsets: Vec<u32>,
}

impl ComponentState {
    fn new(comp: Component, slot: usize, rng: &mut Xoshiro256ss) -> Self {
        let footprint_offsets = match &comp {
            Component::RegionReuse { footprint, .. } => {
                // A fixed, sorted set of line offsets within the region.
                let mut offs: Vec<u32> = (0..32).collect();
                rng.shuffle(&mut offs);
                offs.truncate(*footprint as usize);
                offs.sort_unstable();
                offs
            }
            _ => Vec::new(),
        };
        ComponentState {
            comp,
            base: (slot as u64 + 1) * COMPONENT_BASE,
            pos: 0,
            last_chase_idx: None,
            ip_base: 0x40_0000 + (slot as u64) * 0x1000,
            region_cursor: 0,
            current_region: 0,
            footprint_offsets,
        }
    }

    /// Emits the next memory instruction of this component.
    fn emit(&mut self, trace_len: usize, rng: &mut Xoshiro256ss) -> Instr {
        match &self.comp {
            Component::Stream { stride, ws_lines } => {
                // Element-granular (8 B) streaming: consecutive accesses
                // share a cache line, like real array sweeps.
                let offset = (self.pos * 8) % (ws_lines * LINE_SIZE);
                self.pos = self.pos.wrapping_add(stride.unsigned_abs());
                let addr = self.base + offset;
                Instr::load(self.ip_base, addr)
            }
            Component::PointerChase { ws_lines } => {
                // LCG walk: the next address is a deterministic function of
                // the previous one, modelling `p = p->next`.
                let line = (self
                    .pos
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407))
                    % ws_lines;
                self.pos = line;
                let addr = self.base + line * LINE_SIZE;
                let dep = match self.last_chase_idx {
                    Some(prev) => (trace_len - prev).min(u16::MAX as usize) as u16,
                    None => 0,
                };
                self.last_chase_idx = Some(trace_len);
                Instr::load_dep(self.ip_base + 8, addr, dep)
            }
            Component::RegionReuse { regions, footprint } => {
                if self.region_cursor as usize >= self.footprint_offsets.len() {
                    self.region_cursor = 0;
                    // Visit regions in a shuffled but recurring order.
                    self.current_region = (self
                        .current_region
                        .wrapping_mul(2862933555777941757)
                        .wrapping_add(3037000493))
                        % regions;
                }
                let off = self.footprint_offsets[self.region_cursor as usize];
                self.region_cursor += 1;
                let _ = footprint;
                let line = self.current_region * 32 + off as u64;
                let addr = self.base + line * LINE_SIZE;
                // Footprint accesses share a trigger IP per region-visit
                // position, like a loop body touching struct fields.
                Instr::load(self.ip_base + 16 + (off % 4) as u64 * 8, addr)
            }
            Component::Gather { ws_lines } => {
                let line = rng.gen_u64(*ws_lines);
                let addr = self.base + line * LINE_SIZE;
                Instr::load(self.ip_base + 24, addr)
            }
            Component::StoreStream { stride, ws_lines } => {
                let offset = (self.pos * 8) % (ws_lines * LINE_SIZE);
                self.pos = self.pos.wrapping_add(stride.unsigned_abs());
                let addr = self.base + offset;
                Instr::store(self.ip_base + 32, addr)
            }
        }
    }
}

impl SpecKernel {
    /// Generates exactly `n` instructions of this kernel.
    ///
    /// # Panics
    ///
    /// Panics if the kernel has no components or all weights are zero.
    pub fn generate(&self, n: usize) -> Trace {
        Trace::build(self.name.clone(), n, |sink| self.generate_into(sink))
    }

    /// Streams this kernel into `sink` until the sink is full, without
    /// materializing the trace. Emission is prefix-stable: the first `k`
    /// instructions are identical whatever the sink capacity.
    ///
    /// # Panics
    ///
    /// Panics if the kernel has no components or all weights are zero.
    pub fn generate_into<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        assert!(!self.components.is_empty(), "kernel needs components");
        let total_weight: u32 = self.components.iter().map(|(_, w)| *w).sum();
        assert!(total_weight > 0, "kernel needs nonzero weights");

        let mut rng = Xoshiro256ss::seed_from_u64(self.seed);
        let mut states: Vec<ComponentState> = self
            .components
            .iter()
            .enumerate()
            .map(|(slot, (c, _))| ComponentState::new(c.clone(), slot, &mut rng))
            .collect();
        let weights: Vec<u32> = self.components.iter().map(|(_, w)| *w).collect();

        let mut alu_budget = 0usize;
        let mut since_branch = 0usize;
        let mut branch_phase = 0u64;
        while !sink.full() {
            since_branch += 1;
            if self.branch_every > 0 && since_branch >= self.branch_every {
                since_branch = 0;
                branch_phase += 1;
                let taken = if rng.gen_bool(self.branch_noise) {
                    rng.gen_bool(0.5)
                } else {
                    // Loop-style pattern: taken except every 16th.
                    !branch_phase.is_multiple_of(16)
                };
                sink.push(Instr::branch(0x50_0000 + (branch_phase % 8) * 4, taken));
                continue;
            }
            if alu_budget > 0 {
                alu_budget -= 1;
                sink.push(Instr::alu(0x60_0000));
                continue;
            }
            // Weighted component pick.
            let mut pick = rng.gen_u32(total_weight);
            let mut idx = 0;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    idx = i;
                    break;
                }
                pick -= *w;
            }
            let instr = states[idx].emit(sink.len(), &mut rng);
            sink.push(instr);
            alu_budget = self.alu_per_mem;
        }
    }
}

/// Returns the full SPEC-like kernel roster mirroring the paper's
/// memory-intensive trace list (names indicate the SPEC trace mimicked).
pub fn roster() -> Vec<SpecKernel> {
    let k = |name: &str,
             seed: u64,
             components: Vec<(Component, u32)>,
             alu_per_mem: usize,
             branch_every: usize,
             branch_noise: f64| SpecKernel {
        name: name.to_string(),
        seed,
        components,
        alu_per_mem,
        branch_every,
        branch_noise,
    };
    use Component::*;
    vec![
        // mcf: dominant pointer chasing + arc-array gathers, huge WS, the
        // pathological high-MPKI trace (Fig. 5's deep-dive subject).
        k(
            "mcf_like_a",
            11,
            vec![
                (PointerChase { ws_lines: 1 << 19 }, 2),
                (Gather { ws_lines: 1 << 20 }, 3),
                (
                    Stream {
                        stride: 1,
                        ws_lines: 1 << 20,
                    },
                    2,
                ), // arc-array sweep
                (
                    Stream {
                        stride: 1,
                        ws_lines: 384,
                    },
                    3,
                ), // hot set
            ],
            1,
            9,
            0.10,
        ),
        k(
            "mcf_like_b",
            12,
            vec![
                (PointerChase { ws_lines: 1 << 18 }, 2),
                (Gather { ws_lines: 1 << 20 }, 3),
                (
                    Stream {
                        stride: 1,
                        ws_lines: 512,
                    },
                    5,
                ),
            ],
            1,
            8,
            0.12,
        ),
        // bwaves: long unit-stride streams over a huge grid.
        k(
            "bwaves_like",
            13,
            vec![
                (
                    Stream {
                        stride: 1,
                        ws_lines: 1 << 21,
                    },
                    6,
                ),
                (
                    Stream {
                        stride: 3,
                        ws_lines: 1 << 20,
                    },
                    2,
                ),
            ],
            2,
            14,
            0.01,
        ),
        // lbm: streams + streaming stores.
        k(
            "lbm_like",
            14,
            vec![
                (
                    Stream {
                        stride: 1,
                        ws_lines: 1 << 21,
                    },
                    4,
                ),
                (
                    StoreStream {
                        stride: 1,
                        ws_lines: 1 << 21,
                    },
                    3,
                ),
            ],
            1,
            16,
            0.01,
        ),
        // omnetpp: heap pointer chasing over a hot event-queue core.
        k(
            "omnetpp_like",
            15,
            vec![
                (PointerChase { ws_lines: 1 << 16 }, 2),
                (
                    RegionReuse {
                        regions: 4096,
                        footprint: 6,
                    },
                    2,
                ),
                (
                    Stream {
                        stride: 1,
                        ws_lines: 640,
                    },
                    5,
                ),
            ],
            2,
            7,
            0.08,
        ),
        // xalancbmk: DOM-walk footprints over an LLC-sized region set plus
        // a hot symbol table.
        k(
            "xalancbmk_like",
            16,
            vec![
                (
                    RegionReuse {
                        regions: 2048,
                        footprint: 8,
                    },
                    3,
                ),
                (Gather { ws_lines: 1 << 13 }, 1),
                (
                    Stream {
                        stride: 1,
                        ws_lines: 512,
                    },
                    6,
                ),
            ],
            2,
            6,
            0.10,
        ),
        // gcc: a bit of everything over moderate working sets.
        k(
            "gcc_like",
            17,
            vec![
                (
                    RegionReuse {
                        regions: 1024,
                        footprint: 10,
                    },
                    2,
                ),
                (
                    Stream {
                        stride: 1,
                        ws_lines: 1 << 16,
                    },
                    2,
                ),
                (PointerChase { ws_lines: 1 << 13 }, 1),
                (
                    Stream {
                        stride: 1,
                        ws_lines: 768,
                    },
                    5,
                ),
            ],
            2,
            6,
            0.07,
        ),
        // cactuBSSN: multi-stride stencil.
        k(
            "cactu_like",
            18,
            vec![
                (
                    Stream {
                        stride: 1,
                        ws_lines: 1 << 20,
                    },
                    3,
                ),
                (
                    Stream {
                        stride: 7,
                        ws_lines: 1 << 20,
                    },
                    2,
                ),
                (
                    Stream {
                        stride: 49,
                        ws_lines: 1 << 20,
                    },
                    2,
                ),
            ],
            2,
            12,
            0.02,
        ),
        // roms: strided ocean-grid sweeps.
        k(
            "roms_like",
            19,
            vec![
                (
                    Stream {
                        stride: 2,
                        ws_lines: 1 << 20,
                    },
                    4,
                ),
                (
                    Stream {
                        stride: 16,
                        ws_lines: 1 << 19,
                    },
                    3,
                ),
            ],
            2,
            12,
            0.02,
        ),
        // fotonik3d: gathers + streams (FDTD with irregular boundaries).
        k(
            "fotonik_like",
            20,
            vec![
                (
                    Stream {
                        stride: 1,
                        ws_lines: 1 << 20,
                    },
                    5,
                ),
                (Gather { ws_lines: 1 << 18 }, 2),
            ],
            2,
            13,
            0.03,
        ),
        // wrf: stencils with medium strides over a hot tile.
        k(
            "wrf_like",
            21,
            vec![
                (
                    Stream {
                        stride: 4,
                        ws_lines: 1 << 19,
                    },
                    4,
                ),
                (
                    RegionReuse {
                        regions: 1024,
                        footprint: 12,
                    },
                    2,
                ),
                (
                    Stream {
                        stride: 1,
                        ws_lines: 512,
                    },
                    3,
                ),
            ],
            3,
            10,
            0.04,
        ),
        // xz: dictionary matching — LLC-resident random + hot window.
        k(
            "xz_like",
            22,
            vec![
                (Gather { ws_lines: 1 << 14 }, 3),
                (
                    Stream {
                        stride: 1,
                        ws_lines: 640,
                    },
                    5,
                ),
            ],
            2,
            8,
            0.09,
        ),
        // leela: cache-resident, low MPKI, branchy.
        k(
            "leela_like",
            23,
            vec![
                (
                    RegionReuse {
                        regions: 64,
                        footprint: 16,
                    },
                    4,
                ),
                (
                    Stream {
                        stride: 1,
                        ws_lines: 384,
                    },
                    5,
                ),
            ],
            3,
            5,
            0.12,
        ),
        // perlbench: small WS, pointer-ish, mostly hits.
        k(
            "perlbench_like",
            24,
            vec![
                (PointerChase { ws_lines: 1 << 11 }, 2),
                (
                    RegionReuse {
                        regions: 256,
                        footprint: 8,
                    },
                    3,
                ),
                (
                    Stream {
                        stride: 1,
                        ws_lines: 512,
                    },
                    4,
                ),
            ],
            3,
            6,
            0.08,
        ),
        // pop2: streams with stores, moderate.
        k(
            "pop2_like",
            25,
            vec![
                (
                    Stream {
                        stride: 1,
                        ws_lines: 1 << 18,
                    },
                    3,
                ),
                (
                    StoreStream {
                        stride: 2,
                        ws_lines: 1 << 18,
                    },
                    2,
                ),
                (
                    Stream {
                        stride: 1,
                        ws_lines: 512,
                    },
                    2,
                ),
            ],
            3,
            11,
            0.03,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::InstrKind;
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        let k = &roster()[0];
        let a = k.generate(5000);
        let b = k.generate(5000);
        assert_eq!(a.instrs, b.instrs);
    }

    #[test]
    fn exact_length() {
        for k in roster() {
            let t = k.generate(3000);
            assert_eq!(t.instrs.len(), 3000, "{}", k.name);
        }
    }

    #[test]
    fn streams_are_strided() {
        let k = SpecKernel {
            name: "s".into(),
            seed: 1,
            components: vec![(
                Component::Stream {
                    stride: 2,
                    ws_lines: 1 << 20,
                },
                1,
            )],
            alu_per_mem: 0,
            branch_every: 0,
            branch_noise: 0.0,
        };
        let t = k.generate(100);
        let addrs: Vec<u64> = t
            .instrs
            .iter()
            .filter_map(|i| match i.kind {
                InstrKind::Load { addr, .. } => Some(addr.raw()),
                _ => None,
            })
            .collect();
        // Element stride 2 → byte stride 16; every 4th access a new line.
        for w in addrs.windows(2) {
            assert_eq!(w[1] - w[0], 16);
        }
        let lines: Vec<u64> = addrs.iter().map(|a| a >> 6).collect();
        assert!(lines.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1));
    }

    #[test]
    fn pointer_chase_is_dependent() {
        let k = SpecKernel {
            name: "p".into(),
            seed: 1,
            components: vec![(Component::PointerChase { ws_lines: 1 << 16 }, 1)],
            alu_per_mem: 2,
            branch_every: 0,
            branch_noise: 0.0,
        };
        let t = k.generate(60);
        let deps: Vec<u16> = t
            .instrs
            .iter()
            .filter_map(|i| match i.kind {
                InstrKind::Load { dep_dist, .. } => Some(dep_dist),
                _ => None,
            })
            .collect();
        assert!(deps.len() > 2);
        assert_eq!(deps[0], 0, "first chase load has no producer");
        assert!(
            deps[1..].iter().all(|&d| d > 0),
            "chain loads depend on predecessors"
        );
    }

    #[test]
    fn region_reuse_repeats_footprints() {
        let k = SpecKernel {
            name: "r".into(),
            seed: 1,
            components: vec![(
                Component::RegionReuse {
                    regions: 4,
                    footprint: 8,
                },
                1,
            )],
            alu_per_mem: 0,
            branch_every: 0,
            branch_noise: 0.0,
        };
        let t = k.generate(400);
        // With only 4 regions × 8 lines, the distinct-line count is ≤ 32.
        let lines: HashSet<u64> = t
            .instrs
            .iter()
            .filter_map(|i| match i.kind {
                InstrKind::Load { addr, .. } => Some(addr.line().raw()),
                _ => None,
            })
            .collect();
        assert!(lines.len() <= 32);
    }

    #[test]
    fn components_do_not_alias() {
        let k = &roster()[1]; // three components
        let t = k.generate(10_000);
        let mut bases = HashSet::new();
        for i in t.instrs.iter() {
            if let InstrKind::Load { addr, .. } = i.kind {
                bases.insert(addr.raw() / COMPONENT_BASE);
            }
        }
        assert!(bases.len() >= 2, "distinct component address spaces");
    }

    #[test]
    fn branch_cadence() {
        let k = &roster()[2];
        let t = k.generate(10_000);
        let branches = t
            .instrs
            .iter()
            .filter(|i| matches!(i.kind, InstrKind::Branch { .. }))
            .count();
        assert!(branches > 10_000 / (k.branch_every + 2));
    }
}
