//! The per-pc decode table shared by the simulator and the replayer.
//!
//! Everything the accounting of one executed instruction needs — its
//! class, latency, block, fetch address and base energy — is a pure
//! function of the program, the application's block structure and the
//! energy table.
//! [`DecodeTable`] computes it once per program; the
//! [`Simulator`](crate::simulator::Simulator) hot loop and the
//! [`TraceReplayer`](crate::trace::TraceReplayer) walk both index it by
//! pc instead of re-deriving it per executed instruction.

use corepart_ir::cdfg::Application;
use corepart_ir::op::BlockId;
use corepart_tech::units::Energy;

use crate::codegen::MachProgram;
use crate::energy::EnergyTable;
use crate::isa::{InstClass, MachInst};

/// Whether (and how) an instruction touches data memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessKind {
    None,
    Load,
    Store,
}

/// Everything the accounting loop needs about one pc, precomputed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PcInfo {
    pub(crate) inst: MachInst,
    pub(crate) class: InstClass,
    /// Position of `class` in [`InstClass::ALL`].
    pub(crate) class_index: usize,
    pub(crate) latency: u64,
    pub(crate) block: BlockId,
    pub(crate) block_index: usize,
    pub(crate) is_block_start: bool,
    pub(crate) inst_addr: u32,
    /// `EnergyTable::base(class, latency)` — a pure function of the
    /// two, so precomputing preserves the exact bits.
    pub(crate) base_energy: Energy,
    pub(crate) access: AccessKind,
}

/// The per-pc decode table of one compiled program under one energy
/// table. Every [`Simulator`](crate::simulator::Simulator) builds one
/// ([`Simulator::decode_table`](crate::simulator::Simulator::decode_table));
/// it is immutable, so any number of trace replayers can share it
/// ([`TraceReplayer::from_table`](crate::trace::TraceReplayer::from_table)).
#[derive(Debug, Clone)]
pub struct DecodeTable {
    pub(crate) info: Vec<PcInfo>,
    pub(crate) n_blocks: usize,
    pub(crate) inter_inst_overhead: Energy,
}

impl DecodeTable {
    /// Decodes every instruction of `prog`, whose blocks belong to
    /// `app`, with base energies from `energy`.
    pub(crate) fn new(prog: &MachProgram, app: &Application, energy: &EnergyTable) -> Self {
        let info = prog
            .insts()
            .iter()
            .enumerate()
            .map(|(pc, &inst)| {
                let pc = pc as u32;
                let block = prog.block_of(pc);
                let class = InstClass::of(&inst);
                let latency = inst.latency();
                PcInfo {
                    inst,
                    class,
                    class_index: InstClass::ALL
                        .iter()
                        .position(|&c| c == class)
                        .expect("class in ALL"),
                    latency,
                    block,
                    block_index: block.0 as usize,
                    is_block_start: prog.block_start(block) == pc,
                    inst_addr: prog.inst_addr(pc),
                    base_energy: energy.base(class, latency),
                    access: match inst {
                        MachInst::Ldw { .. } => AccessKind::Load,
                        MachInst::Stw { .. } => AccessKind::Store,
                        _ => AccessKind::None,
                    },
                }
            })
            .collect();
        DecodeTable {
            info,
            n_blocks: app.blocks().len(),
            inter_inst_overhead: energy.inter_inst_overhead(),
        }
    }

    /// Owned heap footprint in bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.info.capacity() * std::mem::size_of::<PcInfo>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::compile;
    use corepart_ir::lower::lower;
    use corepart_ir::parser::parse;

    #[test]
    fn entries_match_the_program() {
        let app = lower(
            &parse(
                "app t; var a[8]; func main() { var s = 0; for (var i = 0; i < 8; i = i + 1) { s = s + a[i] * 3; } return s; }",
            )
            .unwrap(),
        )
        .unwrap();
        let prog = compile(&app);
        let energy = EnergyTable::default();
        let table = DecodeTable::new(&prog, &app, &energy);
        assert_eq!(table.info.len(), prog.len());
        assert_eq!(table.n_blocks, app.blocks().len());
        for (pc, entry) in table.info.iter().enumerate() {
            let pc = pc as u32;
            let inst = prog.insts()[pc as usize];
            assert_eq!(entry.inst, inst);
            assert_eq!(InstClass::ALL[entry.class_index], InstClass::of(&inst));
            assert_eq!(entry.block, prog.block_of(pc));
            assert_eq!(entry.is_block_start, prog.block_start(entry.block) == pc);
            assert_eq!(entry.inst_addr, prog.inst_addr(pc));
            assert_eq!(
                entry.base_energy.joules().to_bits(),
                energy.base(entry.class, inst.latency()).joules().to_bits()
            );
        }
    }
}
