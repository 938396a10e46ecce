//! # corepart
//!
//! A low-power hardware/software partitioning library for core-based
//! embedded systems — a from-scratch reproduction of J. Henkel's DAC'99
//! approach.
//!
//! `corepart` minimizes the energy of a whole SOC — µP core, I-cache,
//! D-cache, main memory, bus and an application-specific (ASIC) core —
//! by moving clusters of a behavioral description (loop nests,
//! conditionals, functions) onto a custom datapath that achieves a
//! higher *resource utilization rate* than the programmable core
//! (§3.1 of the paper: a non-gated core clocks its multiplier even
//! while executing `add`s; a tailored datapath keeps every unit busy).
//!
//! ## Pipeline
//!
//! 1. Parse + lower a behavioral description
//!    ([`corepart_ir`]) and profile it.
//! 2. Decompose into the cluster chain (Fig. 2 b).
//! 3. Pre-select clusters by the Fig.-3 bus-transfer estimate
//!    ([`preselect`]).
//! 4. For every candidate × designer resource set: list-schedule, bind
//!    (Fig. 4), compute `U_R^core`, and score with the objective
//!    function of Fig. 1 line 13 ([`partition`]).
//! 5. Verify the winner against the full simulation stack: ISS with
//!    instruction-level energies, trace-driven caches + memory, and a
//!    switching-activity ASIC estimate ([`evaluate`]).
//!
//! ## Quickstart
//!
//! ```
//! use corepart::flow::DesignFlow;
//! use corepart::prepare::Workload;
//!
//! let result = DesignFlow::new().run_source(
//!     r#"app fir; var x[64]; var y[64];
//!     func main() {
//!         for (var i = 1; i < 64; i = i + 1) {
//!             y[i] = x[i] * 5 + x[i - 1] * 3;
//!         }
//!     }"#,
//!     Workload::from_arrays([("x", (0..64).collect::<Vec<i64>>())]),
//! )?;
//! let saving = result.outcome.energy_saving_percent().unwrap_or(0.0);
//! println!("energy saving: {saving:.1}%");
//! # Ok::<(), corepart::error::CorepartError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod bus_transfer;
pub mod corpus;
pub mod engine;
pub mod error;
pub mod evaluate;
pub mod explore;
pub mod flow;
pub mod json;
pub mod multicore;
pub mod objective;
pub mod parallel;
pub mod partition;
pub mod prepare;
pub mod preselect;
pub mod report;
pub mod serve;
pub mod store;
pub mod system;
pub mod verify;

pub use corpus::{
    run_corpus_with, CorpusEntry, CorpusOptions, CorpusOutcome, CorpusRow, RemoteOptions,
};
pub use engine::{Baseline, Engine, Session, SessionStats};
pub use error::CorepartError;
pub use evaluate::{
    evaluate_initial, evaluate_partition, evaluate_partition_with, Partition, PartitionDetail,
};
pub use explore::{explore, explore_in, DesignPoint, Exploration};
pub use flow::{DesignFlow, FlowResult};
pub use multicore::{evaluate_multicore, split_search, MultiCorePartition};
pub use parallel::{par_map, resolve_threads};
pub use partition::{PartitionOutcome, Partitioner, ScheduleKey, SearchStats};
pub use prepare::{prepare, PreparedApp, Workload};
pub use report::{figure6, render_figure6, Figure6Point, Table1, Table1Entry};
pub use serve::{ServeOptions, Server};
pub use store::{ArtifactStore, PipelineStats, StoreOptions, StoreStats};
pub use system::{DesignMetrics, SystemConfig};
pub use verify::{ReplayEngine, VerifiedRun};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use corepart_cache as cache;
pub use corepart_ir as ir;
pub use corepart_isa as isa;
pub use corepart_sched as sched;
pub use corepart_tech as tech;
