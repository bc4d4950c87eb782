//! Memory-system building blocks: set-associative caches with LRU
//! replacement, miss status holding registers (MSHRs), cache-port
//! bandwidth scheduling, and a DRAM model with banks, open-page row
//! buffers, and FR-FCFS scheduling.
//!
//! These are the components ChampSim provides to the paper's authors; the
//! full hierarchy is assembled from them (plus the GhostMinion components)
//! by the `secpref-sim` crate.
//!
//! # Examples
//!
//! ```
//! use secpref_mem::SetAssocCache;
//! use secpref_types::LineAddr;
//!
//! let mut c = SetAssocCache::new(64, 8);
//! assert!(c.probe(LineAddr::new(42)).is_none());
//! c.fill(LineAddr::new(42), Default::default());
//! assert!(c.probe(LineAddr::new(42)).is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod dram;
pub mod mshr;
pub mod port;

pub use cache::{EvictedLine, FillAttrs, LineMeta, SetAssocCache};
pub use dram::{DramCompletion, DramModel, DramRequest};
pub use mshr::{AllocError, MshrEntry, MshrFile, MshrToken};
pub use port::PortScheduler;
