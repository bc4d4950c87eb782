//! Shared types and configuration for the secure-prefetch simulator.
//!
//! This crate defines the vocabulary used by every other crate in the
//! workspace: addresses and cache-line addresses, cache levels and the 2-bit
//! *hit level* encoding used by the Secure Update Filter (SUF), memory
//! request/access kinds, and the [`config`] module holding the Table II
//! baseline system parameters of the paper. It also holds the one
//! implementation of each format the other crates share: [`json`] (the
//! result store, manifests, span traces and recorder summaries) and
//! [`fnv`] (job keys, trace checksums and digest pins), and the one
//! fully-associative LRU table, [`lru::LruTable`] (the prefetchers'
//! small tables and the suite's trace cache).
//!
//! # Examples
//!
//! ```
//! use secpref_types::{Addr, LineAddr, HitLevel};
//!
//! let a = Addr::new(0x1234);
//! let line = a.line();
//! assert_eq!(line, LineAddr::new(0x48));
//! assert_eq!(HitLevel::L1d.encode(), 0b00);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod config;
pub mod counters;
pub mod fnv;
pub mod hist;
pub mod json;
pub mod level;
pub mod lru;
pub mod req;
pub mod rng;
pub mod sampling;
pub mod varint;

pub use addr::{Addr, Ip, LineAddr, LINE_SIZE, OFFSET_BITS};
pub use config::{
    CacheConfig, CoreConfig, CorePolicy, DramConfig, GmConfig, PrefetchMode, PrefetcherKind,
    SecureMode, SystemConfig, MAX_CACHE_LATENCY, MAX_CACHE_WAYS,
};
pub use hist::Hist;
pub use level::{CacheLevel, HitLevel};
pub use req::{CoreId, FillInfo, PrefetchRequest};
pub use sampling::{MetricStats, SamplingConfig, SamplingSummary};

/// Simulation time, measured in core clock cycles.
pub type Cycle = u64;
