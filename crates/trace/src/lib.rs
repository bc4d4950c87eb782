//! Workload traces for the trace-driven simulator.
//!
//! The paper evaluates on SPEC CPU2017 and GAP ChampSim traces, which are
//! not redistributable. This crate substitutes them with two families of
//! deterministic synthetic workloads (see DESIGN.md §4):
//!
//! * [`gen::spec`] — parameterized kernels that land in the same access-
//!   pattern classes and MPKI regimes as the memory-intensive SPEC traces
//!   the paper uses (pointer-chasing `mcf`-alikes, streaming `bwaves`/
//!   `lbm`-alikes, region-local `omnetpp`/`xalancbmk`-alikes, …).
//! * [`gen::gap`] — the actual GAP graph kernels (BFS, PR, CC, SSSP, BC,
//!   TC) executed over synthetic power-law graphs, emitting the real load/
//!   store address stream of the traversal.
//!
//! All generators are seeded and bit-for-bit reproducible.
//!
//! # Examples
//!
//! ```
//! use secpref_trace::suite;
//!
//! let gen = suite::trace_by_name("bfs_small").expect("registered");
//! let t = gen.generate(10_000);
//! assert_eq!(t.instrs.len(), 10_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gen;
pub mod instr;
pub mod sink;
pub mod suite;

pub use instr::{Instr, InstrKind, Trace};
pub use sink::{SliceSink, TraceSink};
pub use suite::TraceGenerator;
