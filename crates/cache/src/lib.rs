//! # corepart-cache
//!
//! Trace-driven cache, main-memory and bus substrate of `corepart` — the
//! reconstruction of the paper's WARTS-style trace tool + cache profiler
//! + analytical energy models (§3.5, §4).
//!
//! * [`config`] — cache geometry/policy configuration (the knobs §1 says
//!   must be re-tuned per partition).
//! * [`cache`] — a set-associative, LRU/FIFO/random, write-back or
//!   write-through cache simulator.
//! * [`hierarchy`] — I-cache + D-cache + main memory with per-event
//!   energy accounting and µP stall cycles.
//!
//! ## Example
//!
//! ```
//! use corepart_cache::config::CacheConfig;
//! use corepart_cache::hierarchy::Hierarchy;
//! use corepart_tech::process::CmosProcess;
//!
//! let mut h = Hierarchy::new(
//!     CacheConfig::default_icache(),
//!     CacheConfig::default_dcache(),
//!     &CmosProcess::cmos6(),
//!     1 << 20,
//! );
//! for i in 0..1000u32 {
//!     h.ifetch(0x0010_0000 + (i % 32) * 4);
//! }
//! let report = h.report();
//! assert!(report.icache.miss_ratio() < 0.05);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod hierarchy;

pub use cache::{AccessOutcome, Cache, CacheStats};
pub use config::{CacheConfig, Replacement, WritePolicy};
pub use hierarchy::{Hierarchy, HierarchyReport, MemEvent};
