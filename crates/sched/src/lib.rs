//! # corepart-sched
//!
//! The high-level-synthesis substrate of `corepart`: everything needed
//! to judge how well a cluster would fare as an ASIC core.
//!
//! * [`dfg`] — per-block data-flow graphs and the IR→resource-class map.
//! * [`list`] — ASAP/ALAP and the resource-constrained list scheduler of
//!   Fig. 1 line 8.
//! * [`binding`] — the Fig. 4 algorithm: instance binding,
//!   `GEQ_RS`, and the utilization rate `U_R^core` with profiled
//!   `#ex_cycs × #ex_times` weighting.
//! * [`datapath`] — register/mux/controller overhead on top of `GEQ_RS`.
//! * [`energy`] — the quick `E_R` estimate (Fig. 1 line 11) and the
//!   switching-activity "gate-level" verification estimate (line 15).
//! * [`cache`] — compute-once memoization of the schedule/bind/
//!   utilization trio for repeated estimate queries; a multi-cluster
//!   trio is [`merge_trios`] of its clusters' memoized trios.
//!
//! ## Example
//!
//! ```
//! use corepart_ir::{interp::Interpreter, lower::lower, parser::parse};
//! use corepart_sched::binding::{bind, schedule_cluster, utilization};
//! use corepart_tech::resource::{ResourceLibrary, ResourceSet};
//!
//! let app = lower(&parse(r#"
//!     app fir;
//!     var x[32]; var y[32];
//!     func main() {
//!         for (var i = 1; i < 32; i = i + 1) {
//!             y[i] = x[i] * 5 + x[i - 1] * 3;
//!         }
//!     }
//! "#)?)?;
//! let profile = Interpreter::new(&app).run(1_000_000)?;
//! let lib = ResourceLibrary::cmos6();
//! let set = &ResourceSet::default_family()[2];
//! let blocks = app.structure().iter().find(|n| n.is_loop()).unwrap().blocks().to_vec();
//! let sched = schedule_cluster(&app, &blocks, set, &lib)?;
//! let binding = bind(&sched, &lib);
//! let util = utilization(&sched, &binding, &profile, &lib);
//! assert!(util.u_r > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binding;
pub mod cache;
pub mod datapath;
pub mod dfg;
pub mod energy;
pub mod force;
pub mod gantt;
pub mod list;

pub use binding::{
    bind, merge_trios, schedule_cluster, schedule_cluster_with, utilization, Binding,
    ClusterSchedule, Utilization,
};
pub use cache::{HeapBytes, MemoCache, ScheduleCache, ScheduledCluster};
pub use datapath::{estimate_datapath, DatapathEstimate};
pub use dfg::{op_class_of, BlockDfg, BlockDfgs};
pub use energy::{estimate_energy, gate_level_energy, AsicEnergy};
pub use force::{force_directed_schedule, force_schedule_cluster};
pub use gantt::{render_block, render_cluster};
pub use list::{
    alap, asap, list_schedule, list_schedule_opts, BlockSchedule, OpSlot, SchedError, SchedOptions,
};
