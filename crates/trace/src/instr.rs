//! The instruction/trace format consumed by the out-of-order core.

use crate::sink::{SliceSink, TraceSink};
use secpref_types::{Addr, Ip};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One traced instruction.
///
/// Like a ChampSim trace record, each instruction carries at most one
/// memory operand. Loads may declare a *dependency distance*: the number of
/// instructions back to the (load) producer of their address, which
/// serializes pointer-chasing chains in the core model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstrKind {
    /// A non-memory instruction (single-cycle ALU work).
    Alu,
    /// A demand load of `addr`. `dep_dist` > 0 means the address depends
    /// on the result of the load `dep_dist` instructions earlier.
    Load {
        /// Byte address accessed.
        addr: Addr,
        /// Distance (in instructions) back to the producing load, or 0.
        dep_dist: u16,
    },
    /// A demand store to `addr`.
    Store {
        /// Byte address accessed.
        addr: Addr,
    },
    /// A conditional branch with its architectural outcome.
    Branch {
        /// The branch's committed direction.
        taken: bool,
    },
}

/// One traced instruction: program counter plus operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Instr {
    /// Instruction pointer.
    pub ip: Ip,
    /// Operation performed.
    pub kind: InstrKind,
}

// A trace is an array of these: a tag, a 5-byte `Addr` and a `u16`
// distance fill the kind's 8 bytes, and a 32-bit `Ip` keeps the record
// at 12 bytes with no padding.
const _: () = assert!(std::mem::size_of::<InstrKind>() == 8);
const _: () = assert!(std::mem::size_of::<Instr>() == 12);

impl Instr {
    /// Shorthand for an ALU instruction.
    #[inline]
    pub fn alu(ip: u64) -> Self {
        Instr {
            ip: Ip::new(ip),
            kind: InstrKind::Alu,
        }
    }

    /// Shorthand for an independent load.
    #[inline]
    pub fn load(ip: u64, addr: u64) -> Self {
        Instr {
            ip: Ip::new(ip),
            kind: InstrKind::Load {
                addr: Addr::new(addr),
                dep_dist: 0,
            },
        }
    }

    /// Shorthand for a dependent load (pointer chase).
    #[inline]
    pub fn load_dep(ip: u64, addr: u64, dep_dist: u16) -> Self {
        Instr {
            ip: Ip::new(ip),
            kind: InstrKind::Load {
                addr: Addr::new(addr),
                dep_dist,
            },
        }
    }

    /// Shorthand for a store.
    #[inline]
    pub fn store(ip: u64, addr: u64) -> Self {
        Instr {
            ip: Ip::new(ip),
            kind: InstrKind::Store {
                addr: Addr::new(addr),
            },
        }
    }

    /// Shorthand for a branch.
    #[inline]
    pub fn branch(ip: u64, taken: bool) -> Self {
        Instr {
            ip: Ip::new(ip),
            kind: InstrKind::Branch { taken },
        }
    }
}

/// A complete workload trace.
///
/// The instruction stream is a shared `Arc<[Instr]>`, so cloning a trace
/// (e.g. handing it to every worker of an experiment sweep, or replaying
/// it on core restart) shares one decoded copy instead of duplicating
/// the stream per consumer.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Human-readable trace name (e.g. `mcf_like_a`).
    pub name: String,
    /// The committed instruction stream (shared, immutable once built).
    pub instrs: Arc<[Instr]>,
    /// Wrong-path loads: if the branch at index `i` *mispredicts* during
    /// simulation, the core transiently executes loads of these addresses
    /// and squashes them at branch resolve. Used by the Spectre security
    /// examples; performance traces leave this empty (like ChampSim, the
    /// paper's simulator does not replay the wrong path).
    pub wrong_path: BTreeMap<u32, Vec<Addr>>,
}

impl Trace {
    /// Creates a named trace from an instruction vector (one copy into
    /// the shared buffer; generators use [`Trace::build`] instead).
    pub fn new(name: impl Into<String>, instrs: Vec<Instr>) -> Self {
        Trace {
            name: name.into(),
            instrs: instrs.into(),
            wrong_path: BTreeMap::new(),
        }
    }

    /// Builds a named trace of exactly `n` instructions in place: the
    /// shared buffer is allocated once and `fill` writes every
    /// instruction straight into it through a [`SliceSink`], which drops
    /// pushes past `n`. No `Vec` is built and nothing is copied, so
    /// generating a trace peaks at one copy of it.
    ///
    /// # Panics
    ///
    /// Panics if `fill` returns before the sink is full.
    pub fn build(name: impl Into<String>, n: usize, fill: impl FnOnce(&mut SliceSink<'_>)) -> Self {
        // A `TrustedLen` iterator: std writes it straight into the
        // `Arc`'s own allocation.
        let mut instrs: Arc<[Instr]> = (0..n).map(|_| Instr::alu(0)).collect();
        let slots = Arc::get_mut(&mut instrs).expect("a just-collected Arc is unique");
        let mut sink = SliceSink { slots, len: 0 };
        fill(&mut sink);
        assert!(sink.full(), "fill wrote {} of {n} instructions", sink.len());
        Trace {
            name: name.into(),
            instrs,
            wrong_path: BTreeMap::new(),
        }
    }

    /// The largest distance any load reaches back to its producer (what
    /// a `.sct` store records in its header): with the ROB size it bounds
    /// the span of trace indices a core has live at once. One pass over
    /// the trace per call.
    pub fn max_dep_dist(&self) -> usize {
        self.instrs
            .iter()
            .map(|i| match i.kind {
                InstrKind::Load { dep_dist, .. } => dep_dist as usize,
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Attaches wrong-path loads to the branch at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not name a branch instruction.
    pub fn attach_wrong_path(&mut self, index: u32, addrs: Vec<Addr>) {
        assert!(
            matches!(self.instrs[index as usize].kind, InstrKind::Branch { .. }),
            "wrong-path loads attach to branches"
        );
        self.wrong_path.insert(index, addrs);
    }

    /// Number of loads in the trace.
    pub fn load_count(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| matches!(i.kind, InstrKind::Load { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert!(matches!(Instr::load(1, 2).kind, InstrKind::Load { .. }));
        assert!(matches!(Instr::store(1, 2).kind, InstrKind::Store { .. }));
        assert!(matches!(Instr::alu(1).kind, InstrKind::Alu));
        assert!(matches!(
            Instr::branch(1, true).kind,
            InstrKind::Branch { taken: true }
        ));
    }

    #[test]
    fn max_dep_dist_is_the_largest_load_distance() {
        assert_eq!(Trace::default().max_dep_dist(), 0);
        let t = Trace::new(
            "t",
            vec![
                Instr::load(1, 0),
                Instr::load_dep(2, 64, 1),
                Instr::alu(3),
                Instr::load_dep(4, 128, 3),
                Instr::store(5, 192),
            ],
        );
        assert_eq!(t.max_dep_dist(), 3);
    }

    #[test]
    fn counts() {
        let t = Trace::new(
            "t",
            vec![
                Instr::load(1, 0),
                Instr::alu(2),
                Instr::store(3, 64),
                Instr::branch(4, true),
                Instr::load(5, 128),
            ],
        );
        assert_eq!(t.load_count(), 2);
    }

    #[test]
    fn build_writes_into_the_buffer_the_trace_holds() {
        let mut written = std::ptr::null();
        let t = Trace::build("t", 3, |sink| {
            written = sink.slots.as_ptr();
            for ip in 1..=5 {
                sink.push(Instr::alu(ip));
            }
        });
        assert_eq!(t.name, "t");
        assert_eq!(t.instrs[..], [Instr::alu(1), Instr::alu(2), Instr::alu(3)]);
        assert_eq!(t.instrs.as_ptr(), written, "the trace holds a copy");
        assert!(Trace::build("e", 0, |_| {}).instrs.is_empty());
    }

    #[test]
    #[should_panic(expected = "fill wrote 1 of 2 instructions")]
    fn build_rejects_a_short_fill() {
        Trace::build("t", 2, |sink| sink.push(Instr::alu(1)));
    }

    #[test]
    fn wrong_path_attaches_to_branch() {
        let mut t = Trace::new("t", vec![Instr::branch(4, true)]);
        t.attach_wrong_path(0, vec![Addr::new(0x1000)]);
        assert_eq!(t.wrong_path[&0].len(), 1);
    }

    #[test]
    #[should_panic(expected = "attach to branches")]
    fn wrong_path_rejects_non_branch() {
        let mut t = Trace::new("t", vec![Instr::alu(1)]);
        t.attach_wrong_path(0, vec![Addr::new(0x1000)]);
    }
}
