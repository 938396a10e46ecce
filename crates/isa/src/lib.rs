//! # corepart-isa
//!
//! The µP-core substrate of `corepart`: a SPARC-like embedded RISC
//! instruction set, a compiler from the `corepart-ir` CDFG, a
//! cycle-accurate instruction-set simulator (ISS), and an
//! instruction-level (Tiwari-style) energy model — the reconstruction of
//! the paper's "Core Energy Estimation" flow block (§3.5) and SPARCLite
//! experimental platform (§4).
//!
//! * [`isa`] — registers, instructions, latencies, instruction classes.
//! * [`codegen`] — frequency-based register allocation and code
//!   generation from an [`corepart_ir::Application`].
//! * [`simulator`] — the ISS. One simulator evaluates both the initial
//!   and any partitioned design: blocks mapped to the ASIC core execute
//!   functionally but cost the µP nothing (see
//!   [`simulator::SimConfig::hw_blocks`]).
//! * [`decode`] — the per-pc decode table both the simulator and the
//!   trace replayer are driven from.
//! * [`energy`] — per-instruction base energies + circuit-state
//!   overhead.
//! * [`trace`] — reference-trace capture and bit-exact replay: one
//!   simulation per workload, arbitrarily many `hw_blocks` accountings.
//! * [`profile`] — the µP core's resource-utilization rate `U_µP`
//!   (Fig. 1 line 9).
//!
//! ## Example
//!
//! ```
//! use corepart_ir::{lower::lower, parser::parse};
//! use corepart_isa::codegen::compile;
//! use corepart_isa::simulator::{NullSink, SimConfig, Simulator};
//!
//! let app = lower(&parse(
//!     "app t; func main() { var s = 0; for (var i = 0; i < 10; i = i + 1) { s = s + i; } return s; }",
//! )?)?;
//! let prog = compile(&app);
//! let mut sim = Simulator::new(&prog, &app);
//! let stats = sim.run(&SimConfig::initial(1_000_000), &mut NullSink)?;
//! assert_eq!(stats.return_value, 45);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codegen;
pub mod decode;
pub mod energy;
pub mod isa;
pub mod profile;
pub mod simulator;
pub mod trace;

pub use codegen::{compile, compile_with_profile, MachProgram};
pub use decode::DecodeTable;
pub use energy::EnergyTable;
pub use isa::{AluOp, InstClass, MachInst, Reg, RegImm};
pub use profile::{CoreResource, CoreUtilization};
pub use simulator::{MemSink, NullSink, RunStats, SimConfig, SimError, Simulator};
pub use trace::{ReferenceTrace, TraceBuilder, TraceReplayer};
