//! The instruction-set simulator (ISS) of the µP core.
//!
//! This is the reconstruction of the paper's "instruction set simulator
//! tool … with the facility to calculate the energy consumption
//! depending on the instruction executed at a point in time" (§3.5,
//! Fig. 5 "Core Energy Estimation" block).
//!
//! One simulator serves both sides of a partition: it always executes
//! the *whole* program functionally (so control flow and data values
//! stay exact), but instructions belonging to blocks in
//! [`SimConfig::hw_blocks`] are **free** — they model work moved to the
//! ASIC core, so they consume no µP cycles/energy and emit no cache
//! traffic. Their shared-memory array accesses are tallied separately
//! (the ASIC reaches the memory directly over the bus, Fig. 2 a), and
//! entries into hardware regions are counted so the partitioner can
//! charge the µP↔ASIC communication of §3.3.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use corepart_ir::cdfg::Application;
use corepart_ir::op::BlockId;
use corepart_tech::units::{Cycles, Energy};

use crate::codegen::{MachProgram, DATA_BASE, SLOT_BASE};
use crate::decode::DecodeTable;
use crate::energy::EnergyTable;
use crate::isa::{InstClass, MachInst, Reg, RegImm};

/// Receiver of the µP core's memory reference stream (i-fetches plus
/// data reads/writes). Implemented by the cache hierarchy simulator.
pub trait MemSink {
    /// An instruction fetch from `addr`.
    fn ifetch(&mut self, addr: u32);
    /// A data read from `addr`.
    fn read(&mut self, addr: u32);
    /// A data write to `addr`.
    fn write(&mut self, addr: u32);

    /// Offers `count` consecutive word fetches (`addr`, `addr + 4`, …)
    /// as one batch. A sink accepts — returning `true` — only when it
    /// can prove the grouped delivery is observably identical to
    /// `count` interleaved [`MemSink::ifetch`] calls (a cache sink: all
    /// touched lines resident, so every fetch is a hit and no
    /// shared-accumulator event fires). On `false` the sink must be
    /// left untouched; the caller then delivers fetch by fetch.
    ///
    /// The default declines, so plain sinks keep the exact call
    /// sequence.
    fn ifetch_run_hits(&mut self, _addr: u32, _count: u32) -> bool {
        false
    }
}

/// A sink that drops all references (pure-core runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl MemSink for NullSink {
    fn ifetch(&mut self, _addr: u32) {}
    fn read(&mut self, _addr: u32) {}
    fn write(&mut self, _addr: u32) {}
    fn ifetch_run_hits(&mut self, _addr: u32, _count: u32) -> bool {
        // Dropping a batch is indistinguishable from dropping each.
        true
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Cycle budget; exceeding it aborts with
    /// [`SimError::CycleLimit`]. `0` means no limit.
    pub max_cycles: u64,
    /// IR blocks whose instructions execute on the ASIC core: free for
    /// the µP, tallied separately.
    pub hw_blocks: HashSet<BlockId>,
}

impl SimConfig {
    /// Config for an initial (unpartitioned) run with a cycle budget.
    pub fn initial(max_cycles: u64) -> Self {
        SimConfig {
            max_cycles,
            hw_blocks: HashSet::new(),
        }
    }

    /// Config for a partitioned run.
    pub fn partitioned(max_cycles: u64, hw_blocks: HashSet<BlockId>) -> Self {
        SimConfig {
            max_cycles,
            hw_blocks,
        }
    }
}

/// Statistics of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// µP core cycles (hardware-mapped instructions excluded).
    pub cycles: Cycles,
    /// µP core energy (base + inter-instruction overhead).
    pub energy: Energy,
    /// Executed µP instructions per class.
    pub inst_counts: BTreeMap<InstClass, u64>,
    /// µP cycles per class (latency-weighted).
    pub class_cycles: BTreeMap<InstClass, u64>,
    /// µP cycles per class, attributed to each IR block (indexed
    /// `[block][class as usize via InstClass::ALL order]`).
    pub block_class_cycles: Vec<[u64; 8]>,
    /// Inter-instruction class switches (circuit-state overhead events).
    pub class_switches: u64,
    /// Entry count of every IR block (functional, includes HW blocks).
    pub block_counts: Vec<u64>,
    /// µP cycles attributed to each IR block.
    pub block_cycles: Vec<u64>,
    /// µP energy attributed to each IR block.
    pub block_energy: Vec<Energy>,
    /// Entries into each hardware block from software (or start).
    pub hw_block_entries: HashMap<BlockId, u64>,
    /// Shared-memory loads executed inside hardware blocks.
    pub hw_loads: u64,
    /// Shared-memory stores executed inside hardware blocks.
    pub hw_stores: u64,
    /// µP-side data reads sent to the cache hierarchy.
    pub sw_reads: u64,
    /// µP-side data writes sent to the cache hierarchy.
    pub sw_writes: u64,
    /// µP-side instruction fetches.
    pub sw_ifetches: u64,
    /// `main`'s return value (register `r1` at `halt`).
    pub return_value: i64,
}

impl RunStats {
    /// All-zero statistics for an application of `n_blocks` blocks:
    /// every class present in the per-class maps, no hardware entries.
    pub(crate) fn zeroed(n_blocks: usize) -> Self {
        RunStats {
            cycles: Cycles::ZERO,
            energy: Energy::ZERO,
            inst_counts: InstClass::ALL.iter().map(|&c| (c, 0)).collect(),
            class_cycles: InstClass::ALL.iter().map(|&c| (c, 0)).collect(),
            block_class_cycles: vec![[0; 8]; n_blocks],
            class_switches: 0,
            block_counts: vec![0; n_blocks],
            block_cycles: vec![0; n_blocks],
            block_energy: vec![Energy::ZERO; n_blocks],
            hw_block_entries: HashMap::new(),
            hw_loads: 0,
            hw_stores: 0,
            sw_reads: 0,
            sw_writes: 0,
            sw_ifetches: 0,
            return_value: 0,
        }
    }

    /// Owned heap footprint of the per-block and per-class tables, in
    /// bytes. Map entries are charged a fixed per-node estimate; the
    /// point is stable byte accounting for store eviction, not
    /// allocator-exact numbers.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        const MAP_NODE_EST: usize = 48;
        size_of::<Self>()
            + (self.inst_counts.len() + self.class_cycles.len() + self.hw_block_entries.len())
                * MAP_NODE_EST
            + self.block_class_cycles.capacity() * size_of::<[u64; 8]>()
            + self.block_counts.capacity() * size_of::<u64>()
            + self.block_cycles.capacity() * size_of::<u64>()
            + self.block_energy.capacity() * size_of::<Energy>()
    }

    /// Total µP energy attributed to a set of blocks.
    pub fn energy_of(&self, blocks: &[BlockId]) -> Energy {
        blocks
            .iter()
            .map(|&b| self.block_energy[b.0 as usize])
            .sum()
    }
}

/// Errors of the instruction-set simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The configured cycle limit was exceeded.
    CycleLimit {
        /// The limit that was hit.
        limit: u64,
    },
    /// A data access touched an unmapped or misaligned address.
    BadAccess {
        /// The offending byte address.
        addr: u32,
        /// Program counter of the access.
        pc: u32,
    },
    /// The program counter left the code region.
    BadPc {
        /// The offending pc.
        pc: u32,
    },
    /// An unknown array name was passed to
    /// [`Simulator::set_array`]/[`Simulator::array`].
    UnknownArray {
        /// The requested name.
        name: String,
    },
    /// Input data longer than the target array.
    DataTooLong {
        /// The array name.
        name: String,
        /// Its capacity in words.
        capacity: u32,
        /// The data length provided.
        given: usize,
    },
    /// A reference trace failed an integrity check: its stored
    /// fingerprint does not match its columns, or replay walked a
    /// different number of events than the capture recorded
    /// (truncated or corrupted columns). Replay refuses to produce
    /// statistics from such a trace rather than silently diverge.
    TraceCorrupt {
        /// What the integrity check found.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CycleLimit { limit } => {
                write!(f, "cycle limit of {limit} exceeded")
            }
            SimError::BadAccess { addr, pc } => {
                write!(f, "bad memory access to {addr:#x} at pc {pc}")
            }
            SimError::BadPc { pc } => write!(f, "program counter {pc} out of code region"),
            SimError::UnknownArray { name } => write!(f, "no array named `{name}`"),
            SimError::DataTooLong {
                name,
                capacity,
                given,
            } => write!(f, "array `{name}` holds {capacity} words, {given} given"),
            SimError::TraceCorrupt { detail } => {
                write!(f, "reference trace corrupt: {detail}")
            }
        }
    }
}

impl Error for SimError {}

/// The instruction-set simulator, bound to a compiled program and its
/// source application.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    app: &'a Application,
    energy: EnergyTable,
    table: Arc<DecodeTable>,
    regs: [i64; Reg::COUNT as usize],
    data: Vec<i64>,
    slots: Vec<i64>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with zeroed memory, using the default
    /// SPARCLite/CMOS6 energy table.
    pub fn new(prog: &'a MachProgram, app: &'a Application) -> Self {
        Self::with_energy_table(prog, app, EnergyTable::default())
    }

    /// Creates a simulator with a custom energy table.
    pub fn with_energy_table(
        prog: &'a MachProgram,
        app: &'a Application,
        energy: EnergyTable,
    ) -> Self {
        let slot_words = prog
            .insts()
            .iter()
            .filter_map(|i| match i {
                MachInst::Ldw { offset, base, .. } | MachInst::Stw { offset, base, .. }
                    if *base == Reg::ZERO && *offset >= SLOT_BASE as i32 =>
                {
                    Some(((*offset as u32 - SLOT_BASE) / 4 + 1) as usize)
                }
                _ => None,
            })
            .max()
            .unwrap_or(0)
            // Slots can also be reached via non-zero bases in principle;
            // reserve one word per variable as the upper bound.
            .max(app.vars().len());
        Simulator {
            app,
            table: Arc::new(DecodeTable::new(prog, app, &energy)),
            energy,
            regs: [0; Reg::COUNT as usize],
            data: vec![0; app.memory_words() as usize],
            slots: vec![0; slot_words],
        }
    }

    /// Sets the contents of a named shared-memory array.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownArray`] or [`SimError::DataTooLong`].
    pub fn set_array(&mut self, name: &str, data: &[i64]) -> Result<(), SimError> {
        let info = self
            .app
            .arrays()
            .iter()
            .find(|a| a.name == name)
            .ok_or_else(|| SimError::UnknownArray { name: name.into() })?;
        if data.len() > info.len as usize {
            return Err(SimError::DataTooLong {
                name: name.into(),
                capacity: info.len,
                given: data.len(),
            });
        }
        let base = info.base_word as usize;
        self.data[base..base + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads the contents of a named array.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownArray`].
    pub fn array(&self, name: &str) -> Result<&[i64], SimError> {
        let info = self
            .app
            .arrays()
            .iter()
            .find(|a| a.name == name)
            .ok_or_else(|| SimError::UnknownArray { name: name.into() })?;
        let base = info.base_word as usize;
        Ok(&self.data[base..base + info.len as usize])
    }

    fn reg(&self, r: Reg) -> i64 {
        self.regs[r.0 as usize]
    }

    fn set_reg(&mut self, r: Reg, v: i64) {
        if r != Reg::ZERO {
            self.regs[r.0 as usize] = v;
        }
    }

    fn rhs(&self, ri: RegImm) -> i64 {
        match ri {
            RegImm::Reg(r) => self.reg(r),
            RegImm::Imm(i) => i,
        }
    }

    /// The effective address `reg(base) + offset` of a load or store.
    /// An address outside the 32-bit space is a
    /// [`SimError::BadAccess`] (reporting its low 32 bits), never a
    /// wrap onto mapped memory.
    fn effective_addr(&self, base: Reg, offset: i32, pc: u32) -> Result<u32, SimError> {
        let base = self.reg(base);
        base.checked_add(i64::from(offset))
            .and_then(|addr| u32::try_from(addr).ok())
            .ok_or(SimError::BadAccess {
                addr: base.wrapping_add(i64::from(offset)) as u32,
                pc,
            })
    }

    fn mem_read(&mut self, addr: u32, pc: u32) -> Result<i64, SimError> {
        if !addr.is_multiple_of(4) {
            return Err(SimError::BadAccess { addr, pc });
        }
        if addr >= SLOT_BASE {
            let idx = ((addr - SLOT_BASE) / 4) as usize;
            self.slots
                .get(idx)
                .copied()
                .ok_or(SimError::BadAccess { addr, pc })
        } else if addr >= DATA_BASE {
            let idx = ((addr - DATA_BASE) / 4) as usize;
            self.data
                .get(idx)
                .copied()
                .ok_or(SimError::BadAccess { addr, pc })
        } else {
            Err(SimError::BadAccess { addr, pc })
        }
    }

    fn mem_write(&mut self, addr: u32, value: i64, pc: u32) -> Result<(), SimError> {
        if !addr.is_multiple_of(4) {
            return Err(SimError::BadAccess { addr, pc });
        }
        if addr >= SLOT_BASE {
            let idx = ((addr - SLOT_BASE) / 4) as usize;
            match self.slots.get_mut(idx) {
                Some(w) => {
                    *w = value;
                    Ok(())
                }
                None => Err(SimError::BadAccess { addr, pc }),
            }
        } else if addr >= DATA_BASE {
            let idx = ((addr - DATA_BASE) / 4) as usize;
            match self.data.get_mut(idx) {
                Some(w) => {
                    *w = value;
                    Ok(())
                }
                None => Err(SimError::BadAccess { addr, pc }),
            }
        } else {
            Err(SimError::BadAccess { addr, pc })
        }
    }

    /// Runs the program to `halt`, streaming µP-side references into
    /// `sink`.
    ///
    /// Registers are cleared; data memory is kept so inputs set via
    /// [`Simulator::set_array`] survive. The hot loop is driven by the
    /// program's [`DecodeTable`].
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run<S: MemSink>(
        &mut self,
        config: &SimConfig,
        sink: &mut S,
    ) -> Result<RunStats, SimError> {
        self.regs = [0; Reg::COUNT as usize];

        // A local handle, so the table stays borrowed while `self`'s
        // registers and memory are written.
        let table = Arc::clone(&self.table);
        let n_blocks = table.n_blocks;
        let mut stats = RunStats::zeroed(n_blocks);
        // Integer tallies kept in flat arrays and folded into the maps
        // at `halt` (integer sums are order-free); the `f64` energy
        // adds stay per instruction, in execution order.
        let mut is_hw_block = vec![false; n_blocks];
        for b in &config.hw_blocks {
            if let Some(flag) = is_hw_block.get_mut(b.0 as usize) {
                *flag = true;
            }
        }
        let mut hw_entries = vec![0u64; n_blocks];
        let mut inst_counts = [0u64; 8];
        let mut class_cycles = [0u64; 8];

        let mut pc: u32 = 0;
        let mut cycles: u64 = 0;
        let mut prev_class: Option<InstClass> = None;
        let mut prev_block = usize::MAX;
        let mut prev_was_hw = false;

        loop {
            let info = table.info.get(pc as usize).ok_or(SimError::BadPc { pc })?;
            let bi = info.block_index;
            let is_hw = is_hw_block[bi];

            // Block-entry accounting.
            if prev_block != bi && info.is_block_start {
                stats.block_counts[bi] += 1;
                if is_hw && !prev_was_hw {
                    hw_entries[bi] += 1;
                }
            }
            prev_block = bi;
            prev_was_hw = is_hw;

            if !is_hw {
                cycles += info.latency;
                if config.max_cycles > 0 && cycles > config.max_cycles {
                    return Err(SimError::CycleLimit {
                        limit: config.max_cycles,
                    });
                }
                let mut e = info.base_energy;
                if let Some(p) = prev_class {
                    if p != info.class {
                        e += table.inter_inst_overhead;
                        stats.class_switches += 1;
                    }
                }
                prev_class = Some(info.class);
                stats.energy += e;
                stats.block_cycles[bi] += info.latency;
                stats.block_energy[bi] += e;
                inst_counts[info.class_index] += 1;
                class_cycles[info.class_index] += info.latency;
                stats.block_class_cycles[bi][info.class_index] += info.latency;
                stats.sw_ifetches += 1;
                sink.ifetch(info.inst_addr);
            } else {
                // Leaving the µP's instruction stream resets the
                // circuit-state history.
                prev_class = None;
            }

            let mut next_pc = pc + 1;
            match info.inst {
                MachInst::Alu { op, rd, rs1, rhs } => {
                    let v = op.eval(self.reg(rs1), self.rhs(rhs));
                    self.set_reg(rd, v);
                }
                MachInst::Mul { rd, rs1, rhs } => {
                    let v = self.reg(rs1).wrapping_mul(self.rhs(rhs));
                    self.set_reg(rd, v);
                }
                MachInst::Div { rd, rs1, rhs } => {
                    let b = self.rhs(rhs);
                    let v = if b == 0 {
                        0
                    } else {
                        self.reg(rs1).wrapping_div(b)
                    };
                    self.set_reg(rd, v);
                }
                MachInst::Rem { rd, rs1, rhs } => {
                    let b = self.rhs(rhs);
                    let v = if b == 0 {
                        0
                    } else {
                        self.reg(rs1).wrapping_rem(b)
                    };
                    self.set_reg(rd, v);
                }
                MachInst::Movi { rd, imm } => self.set_reg(rd, imm),
                MachInst::Ldw { rd, base, offset } => {
                    let addr = self.effective_addr(base, offset, pc)?;
                    let v = self.mem_read(addr, pc)?;
                    self.set_reg(rd, v);
                    if is_hw {
                        if addr < SLOT_BASE {
                            stats.hw_loads += 1;
                        }
                    } else {
                        stats.sw_reads += 1;
                        sink.read(addr);
                    }
                }
                MachInst::Stw { rs, base, offset } => {
                    let addr = self.effective_addr(base, offset, pc)?;
                    let v = self.reg(rs);
                    self.mem_write(addr, v, pc)?;
                    if is_hw {
                        if addr < SLOT_BASE {
                            stats.hw_stores += 1;
                        }
                    } else {
                        stats.sw_writes += 1;
                        sink.write(addr);
                    }
                }
                MachInst::Beqz { rs, target } => {
                    if self.reg(rs) == 0 {
                        next_pc = target;
                    }
                }
                MachInst::Bnez { rs, target } => {
                    if self.reg(rs) != 0 {
                        next_pc = target;
                    }
                }
                MachInst::Jmp { target } => next_pc = target,
                MachInst::Halt => {
                    stats.cycles = Cycles::new(cycles);
                    stats.return_value = self.reg(Reg(1));
                    stats.inst_counts = InstClass::ALL.into_iter().zip(inst_counts).collect();
                    stats.class_cycles = InstClass::ALL.into_iter().zip(class_cycles).collect();
                    stats.hw_block_entries = hw_entries
                        .iter()
                        .enumerate()
                        .filter(|&(_, &n)| n > 0)
                        .map(|(b, &n)| (BlockId(b as u32), n))
                        .collect();
                    return Ok(stats);
                }
                MachInst::Nop => {}
            }
            pc = next_pc;
        }
    }

    /// The energy table in use.
    pub fn energy_table(&self) -> &EnergyTable {
        &self.energy
    }

    /// The per-pc decode table driving this simulator — share it with
    /// [`crate::trace::TraceReplayer::from_table`] to replay traces of
    /// this program without decoding it again.
    pub fn decode_table(&self) -> &Arc<DecodeTable> {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::compile;
    use corepart_ir::lower::lower;
    use corepart_ir::parser::parse;

    fn setup(src: &str) -> (Application, MachProgram) {
        let app = lower(&parse(src).unwrap()).unwrap();
        let prog = compile(&app);
        (app, prog)
    }

    #[test]
    fn computes_return_value() {
        let (app, prog) = setup("app t; func main() { var x = 6; var y = 7; return x * y; }");
        let mut sim = Simulator::new(&prog, &app);
        let stats = sim
            .run(&SimConfig::initial(100_000), &mut NullSink)
            .unwrap();
        assert_eq!(stats.return_value, 42);
        assert!(stats.cycles.count() > 0);
        assert!(stats.energy.joules() > 0.0);
    }

    #[test]
    fn matches_ir_interpreter_semantics() {
        use corepart_ir::interp::Interpreter;
        let src = r#"app t; var x[16]; var y[16];
            func clamp(v, hi) { if (v > hi) { return hi; } return v; }
            func main() {
                for (var i = 0; i < 16; i = i + 1) {
                    y[i] = clamp(x[i] * 3 - 5, 20);
                }
                return y[7];
            }"#;
        let (app, prog) = setup(src);
        let input: Vec<i64> = (0..16).map(|i| (i * 7 % 13) - 3).collect();

        let mut interp = Interpreter::new(&app);
        interp.set_array("x", &input).unwrap();
        let ip = interp.run(1_000_000).unwrap();

        let mut sim = Simulator::new(&prog, &app);
        sim.set_array("x", &input).unwrap();
        let stats = sim
            .run(&SimConfig::initial(1_000_000), &mut NullSink)
            .unwrap();

        assert_eq!(Some(stats.return_value), ip.return_value);
        assert_eq!(sim.array("y").unwrap(), interp.array("y").unwrap());
    }

    #[test]
    fn loop_cycles_scale_with_trip_count() {
        let src_of = |n: u32| {
            format!(
                "app t; var acc = 0; func main() {{ for (var i = 0; i < {n}; i = i + 1) {{ acc = acc + i; }} return acc; }}"
            )
        };
        let (app_s, prog_s) = setup(&src_of(10));
        let (app_l, prog_l) = setup(&src_of(100));
        let small = Simulator::new(&prog_s, &app_s)
            .run(&SimConfig::initial(10_000_000), &mut NullSink)
            .unwrap();
        let large = Simulator::new(&prog_l, &app_l)
            .run(&SimConfig::initial(10_000_000), &mut NullSink)
            .unwrap();
        let ratio = large.cycles.count() as f64 / small.cycles.count() as f64;
        assert!((5.0..15.0).contains(&ratio), "ratio = {ratio}");
        assert!(large.energy > small.energy);
    }

    #[test]
    fn hw_blocks_are_free_but_functional() {
        let src = r#"app t; var a[32]; var acc = 0;
            func main() {
                for (var i = 0; i < 32; i = i + 1) { a[i] = a[i] * 3 + 1; }
                for (var j = 0; j < 32; j = j + 1) { acc = acc + a[j]; }
                return acc;
            }"#;
        let (app, prog) = setup(src);
        // Find the first loop's blocks via structure.
        let first_loop = app.structure().iter().find(|n| n.is_loop()).expect("loop");
        let hw: HashSet<BlockId> = first_loop.blocks().iter().copied().collect();

        let input: Vec<i64> = (0..32).map(|i| i % 5).collect();
        let mut full = Simulator::new(&prog, &app);
        full.set_array("a", &input).unwrap();
        let base = full
            .run(&SimConfig::initial(10_000_000), &mut NullSink)
            .unwrap();

        let mut part = Simulator::new(&prog, &app);
        part.set_array("a", &input).unwrap();
        let cut = part
            .run(
                &SimConfig::partitioned(10_000_000, hw.clone()),
                &mut NullSink,
            )
            .unwrap();

        // Same results, fewer µP cycles and energy.
        assert_eq!(base.return_value, cut.return_value);
        assert!(cut.cycles < base.cycles);
        assert!(cut.energy < base.energy);
        // The hardware region performed the array traffic.
        assert_eq!(cut.hw_loads, 32);
        assert_eq!(cut.hw_stores, 32);
        // It was entered once.
        let entries: u64 = cut.hw_block_entries.values().sum();
        assert_eq!(entries, 1);
        // Block counts identical (functional behaviour unchanged).
        assert_eq!(base.block_counts, cut.block_counts);
    }

    #[test]
    fn sink_sees_reference_stream() {
        #[derive(Default)]
        struct Counter {
            ifetch: u64,
            read: u64,
            write: u64,
        }
        impl MemSink for Counter {
            fn ifetch(&mut self, _a: u32) {
                self.ifetch += 1;
            }
            fn read(&mut self, _a: u32) {
                self.read += 1;
            }
            fn write(&mut self, _a: u32) {
                self.write += 1;
            }
        }
        let (app, prog) =
            setup("app t; var a[4]; func main() { a[0] = 3; var x = a[0]; return x; }");
        let mut sim = Simulator::new(&prog, &app);
        let mut sink = Counter::default();
        let stats = sim.run(&SimConfig::initial(100_000), &mut sink).unwrap();
        assert_eq!(sink.ifetch, stats.sw_ifetches);
        assert_eq!(sink.read, stats.sw_reads);
        assert_eq!(sink.write, stats.sw_writes);
        assert!(sink.read >= 1);
        assert!(sink.write >= 1);
    }

    #[test]
    fn cycle_limit_enforced() {
        let (app, prog) = setup("app t; var g = 1; func main() { while (g > 0) { g = 1; } }");
        let mut sim = Simulator::new(&prog, &app);
        let err = sim
            .run(&SimConfig::initial(1_000), &mut NullSink)
            .unwrap_err();
        assert!(matches!(err, SimError::CycleLimit { limit: 1_000 }));
    }

    #[test]
    fn mul_div_latencies_counted() {
        let (app_a, prog_a) = setup("app t; var g = 7; func main() { g = g + 3; return g; }");
        let (app_m, prog_m) = setup("app t; var g = 7; func main() { g = g * 3; return g; }");
        let a = Simulator::new(&prog_a, &app_a)
            .run(&SimConfig::initial(100_000), &mut NullSink)
            .unwrap();
        let m = Simulator::new(&prog_m, &app_m)
            .run(&SimConfig::initial(100_000), &mut NullSink)
            .unwrap();
        assert_eq!(
            m.cycles.count() - a.cycles.count(),
            4,
            "mul is 4 cycles longer than add"
        );
        assert_eq!(m.inst_counts[&InstClass::Mul], 1);
    }

    #[test]
    fn block_attribution_sums_to_totals() {
        let (app, prog) = setup(
            "app t; var acc = 0; func main() { for (var i = 0; i < 20; i = i + 1) { acc = acc + i * i; } return acc; }",
        );
        let stats = Simulator::new(&prog, &app)
            .run(&SimConfig::initial(1_000_000), &mut NullSink)
            .unwrap();
        let sum_cycles: u64 = stats.block_cycles.iter().sum();
        assert_eq!(sum_cycles, stats.cycles.count());
        let sum_energy: Energy = stats.block_energy.iter().copied().sum();
        assert!((sum_energy.joules() - stats.energy.joules()).abs() < 1e-15);
    }

    #[test]
    fn set_array_errors() {
        let (app, prog) = setup("app t; var a[2]; func main() { }");
        let mut sim = Simulator::new(&prog, &app);
        assert!(matches!(
            sim.set_array("b", &[1]),
            Err(SimError::UnknownArray { .. })
        ));
        assert!(matches!(
            sim.set_array("a", &[1, 2, 3]),
            Err(SimError::DataTooLong { .. })
        ));
    }

    #[test]
    fn effective_addresses_never_wrap_onto_mapped_memory() {
        use corepart_ir::interp::Interpreter;
        // The index comes from memory, so no pass can fold it. Indices
        // 2^30 and 2^30 + 1 used to wrap the 32-bit address onto x[0]
        // and x[1]; 2^61 - 1 overflows `i64` when the array base is
        // added; 2^62, 2^62 + 1 and -2^62 wrapped the index scaling
        // `i << 2` itself onto x[0] and x[1].
        let (app, prog) = setup(
            "app t; var idx[1]; var x[4]; func main() { x[0] = 7; x[1] = 9; return x[idx[0]]; }",
        );
        for index in [
            1i64,
            4,
            1 << 30,
            (1 << 30) + 1,
            (1 << 61) - 1,
            1 << 61,
            1 << 62,
            (1 << 62) + 1,
            -(1 << 62),
            i64::MAX,
            i64::MIN,
        ] {
            let mut sim = Simulator::new(&prog, &app);
            sim.set_array("idx", &[index]).unwrap();
            let iss = sim.run(&SimConfig::initial(100_000), &mut NullSink);
            let mut interp = Interpreter::new(&app);
            interp.set_array("idx", &[index]).unwrap();
            let ir = interp.run(100_000);
            if index == 1 {
                assert_eq!(iss.unwrap().return_value, 9);
                assert_eq!(ir.unwrap().return_value, Some(9));
            } else {
                assert!(
                    matches!(iss, Err(SimError::BadAccess { .. })),
                    "index {index}: {iss:?}"
                );
                assert!(ir.is_err(), "index {index}");
            }
        }
    }

    #[test]
    fn constant_indices_outside_the_offset_field_fault() {
        use corepart_ir::interp::Interpreter;
        // Constant indices fold into the load/store offset; these used
        // to truncate (2^30 onto x[0]) or overflow `i32`.
        for index in [1i64 << 29, 1 << 30, (1 << 30) + 1, 1 << 40, -(1 << 40)] {
            for access in [
                format!("return x[{index}];"),
                format!("x[{index}] = 5; return x[0];"),
            ] {
                let src =
                    format!("app t; var x[4]; func main() {{ x[0] = 7; x[1] = 9; {access} }}");
                let (app, prog) = setup(&src);
                let iss =
                    Simulator::new(&prog, &app).run(&SimConfig::initial(100_000), &mut NullSink);
                assert!(
                    matches!(iss, Err(SimError::BadAccess { .. })),
                    "{access}: {iss:?}"
                );
                assert!(Interpreter::new(&app).run(100_000).is_err(), "{access}");
            }
        }
    }

    #[test]
    fn class_switch_overhead_charged() {
        // Alternating classes -> switches close to instruction count.
        let (app, prog) = setup(
            "app t; var a[8]; var g = 1; func main() { for (var i = 0; i < 8; i = i + 1) { a[i] = g * i; g = g + a[i]; } }",
        );
        let stats = Simulator::new(&prog, &app)
            .run(&SimConfig::initial(1_000_000), &mut NullSink)
            .unwrap();
        assert!(stats.class_switches > 0);
    }
}
