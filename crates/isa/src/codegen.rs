//! Compiler from the [`Application`] CDFG to the SPARC-like machine
//! code of the µP core.
//!
//! The generated code is what the "software part" of a partition
//! executes on the µP core. Register allocation is frequency-based:
//! the hottest scalars (optionally weighted by a profiling run) are kept
//! in registers, the rest live in memory *slots* accessed through
//! scratch registers — producing the instruction and data-reference
//! streams the instruction-set and cache simulators consume.
//!
//! ## Memory map (byte addresses)
//!
//! | region            | base          |
//! |-------------------|---------------|
//! | shared arrays     | `0x0000_1000` |
//! | scalar slots      | `0x0008_0000` |
//! | code (word/inst)  | `0x0010_0000` |

use std::collections::HashMap;

use corepart_ir::cdfg::Application;
use corepart_ir::interp::ExecProfile;
use corepart_ir::op::{BinOp, BlockId, Inst, Operand, Terminator, UnOp, VarId};

use crate::isa::{AluOp, MachInst, Reg, RegImm};

/// Base byte address of the shared-memory arrays.
pub const DATA_BASE: u32 = 0x0000_1000;
/// Base byte address of spilled scalar slots.
pub const SLOT_BASE: u32 = 0x0008_0000;
/// Base byte address of the code region (for i-fetch addresses).
pub const CODE_BASE: u32 = 0x0010_0000;

/// Where a scalar variable lives at machine level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarLoc {
    /// Pinned in a register.
    Reg(Reg),
    /// Spilled to the slot at this byte address.
    Slot(u32),
}

/// A compiled program plus the IR↔machine mapping the evaluators need.
#[derive(Debug, Clone, PartialEq)]
pub struct MachProgram {
    insts: Vec<MachInst>,
    /// First instruction index of each block.
    block_start: Vec<u32>,
    /// Owning block of each instruction.
    pc_block: Vec<BlockId>,
    /// Location of every IR variable.
    var_loc: Vec<VarLoc>,
}

impl MachProgram {
    /// The machine instructions.
    pub fn insts(&self) -> &[MachInst] {
        &self.insts
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True when the program is empty (never produced by `compile`).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The block owning instruction `pc`.
    pub fn block_of(&self, pc: u32) -> BlockId {
        self.pc_block[pc as usize]
    }

    /// First instruction index of `block`.
    pub fn block_start(&self, block: BlockId) -> u32 {
        self.block_start[block.0 as usize]
    }

    /// Where variable `v` lives.
    pub fn var_loc(&self, v: VarId) -> VarLoc {
        self.var_loc[v.0 as usize]
    }

    /// Locations of all variables, indexed by [`VarId`].
    pub fn var_locs(&self) -> &[VarLoc] {
        &self.var_loc
    }

    /// Byte address of instruction `pc` (for i-cache simulation).
    pub fn inst_addr(&self, pc: u32) -> u32 {
        CODE_BASE + pc * 4
    }

    /// Disassembles the program.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (pc, inst) in self.insts.iter().enumerate() {
            out.push_str(&format!("{pc:5}  {inst}\n"));
        }
        out
    }
}

/// Compiles an application with static frequency estimates.
///
/// Equivalent to [`compile_with_profile`] with no profile.
pub fn compile(app: &Application) -> MachProgram {
    compile_with_profile(app, None)
}

/// Compiles an application, using a profiling run (if given) to decide
/// which scalars deserve registers.
pub fn compile_with_profile(app: &Application, profile: Option<&ExecProfile>) -> MachProgram {
    let var_loc = allocate_vars(app, profile);
    let mut cg = Codegen {
        app,
        var_loc,
        insts: Vec::new(),
        pc_block: Vec::new(),
        block_start: vec![0; app.blocks().len()],
        fixups: Vec::new(),
    };
    cg.run();
    MachProgram {
        insts: cg.insts,
        block_start: cg.block_start,
        pc_block: cg.pc_block,
        var_loc: cg.var_loc,
    }
}

/// Registers available for pinning variables.
const HOT_REGS: std::ops::Range<u8> = 8..28;
/// Scratch registers used by the code generator.
const S1: Reg = Reg(1);
const S2: Reg = Reg(2);
const S3: Reg = Reg(3);
/// Address-computation scratch.
const SA: Reg = Reg(4);

fn allocate_vars(app: &Application, profile: Option<&ExecProfile>) -> Vec<VarLoc> {
    // Score every variable by (weighted) occurrence count.
    let mut score: HashMap<VarId, u64> = HashMap::new();
    for (bi, block) in app.blocks().iter().enumerate() {
        let weight = profile.map(|p| p.block_counts[bi].max(1)).unwrap_or(1);
        for inst in &block.insts {
            if let Some(d) = inst.def() {
                *score.entry(d).or_insert(0) += weight;
            }
            for u in inst.uses() {
                *score.entry(u).or_insert(0) += weight;
            }
        }
        if let Some(u) = block.term.use_var() {
            *score.entry(u).or_insert(0) += weight;
        }
    }
    let mut ranked: Vec<(VarId, u64)> = score.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut loc = vec![VarLoc::Slot(0); app.vars().len()];
    let mut next_reg = HOT_REGS.start;
    let mut pinned: Vec<VarId> = Vec::new();
    for (v, _) in ranked {
        if next_reg < HOT_REGS.end {
            loc[v.0 as usize] = VarLoc::Reg(Reg(next_reg));
            pinned.push(v);
            next_reg += 1;
        }
    }
    // Everything else gets a slot.
    let mut next_slot = SLOT_BASE;
    for (i, l) in loc.iter_mut().enumerate() {
        if matches!(l, VarLoc::Slot(_)) {
            *l = VarLoc::Slot(next_slot);
            next_slot += 4;
            let _ = i;
        }
    }
    loc
}

struct Codegen<'a> {
    app: &'a Application,
    var_loc: Vec<VarLoc>,
    insts: Vec<MachInst>,
    pc_block: Vec<BlockId>,
    block_start: Vec<u32>,
    /// (pc, target block) pairs to patch once layout is known.
    fixups: Vec<(u32, BlockId)>,
}

impl Codegen<'_> {
    fn emit(&mut self, block: BlockId, inst: MachInst) -> u32 {
        let pc = self.insts.len() as u32;
        self.insts.push(inst);
        self.pc_block.push(block);
        pc
    }

    fn run(&mut self) {
        let entry = self.app.entry();
        // Prologue: initialize global scalars (attributed to the entry
        // block, like crt0 would be).
        for &(v, init) in self.app.globals_init() {
            match self.var_loc[v.0 as usize] {
                VarLoc::Reg(r) => {
                    self.emit(entry, MachInst::Movi { rd: r, imm: init });
                }
                VarLoc::Slot(addr) => {
                    self.emit(entry, MachInst::Movi { rd: S1, imm: init });
                    self.emit(
                        entry,
                        MachInst::Stw {
                            rs: S1,
                            base: Reg::ZERO,
                            offset: addr as i32,
                        },
                    );
                }
            }
        }
        if entry.0 != 0 {
            let pc = self.emit(entry, MachInst::Jmp { target: 0 });
            self.fixups.push((pc, entry));
        }

        // Lay blocks out in id order; fall through where possible.
        for (bi, block) in self.app.blocks().iter().enumerate() {
            let bid = BlockId(bi as u32);
            self.block_start[bi] = self.insts.len() as u32;
            for inst in block.insts.clone() {
                self.lower_inst(bid, &inst);
            }
            match block.term.clone() {
                Terminator::Jump(t) => {
                    if t.0 as usize != bi + 1 {
                        let pc = self.emit(bid, MachInst::Jmp { target: 0 });
                        self.fixups.push((pc, t));
                    }
                }
                Terminator::Branch {
                    cond,
                    then_block,
                    else_block,
                } => {
                    let rc = self.operand_reg(bid, cond, S1);
                    let pc = self.emit(bid, MachInst::Bnez { rs: rc, target: 0 });
                    self.fixups.push((pc, then_block));
                    if else_block.0 as usize != bi + 1 {
                        let pc = self.emit(bid, MachInst::Jmp { target: 0 });
                        self.fixups.push((pc, else_block));
                    }
                }
                Terminator::Return(op) => {
                    if let Some(op) = op {
                        // Return value lands in r1 by convention.
                        let r = self.operand_reg(bid, op, S1);
                        if r != S1 {
                            self.emit(
                                bid,
                                MachInst::Alu {
                                    op: AluOp::Or,
                                    rd: S1,
                                    rs1: r,
                                    rhs: RegImm::Reg(Reg::ZERO),
                                },
                            );
                        }
                    }
                    self.emit(bid, MachInst::Halt);
                }
            }
        }
        // Patch branch targets.
        for &(pc, target) in &self.fixups {
            let t = self.block_start[target.0 as usize];
            match &mut self.insts[pc as usize] {
                MachInst::Jmp { target }
                | MachInst::Beqz { target, .. }
                | MachInst::Bnez { target, .. } => *target = t,
                other => unreachable!("fixup on non-branch {other}"),
            }
        }
    }

    /// Materializes an operand into a register (possibly `scratch`).
    fn operand_reg(&mut self, block: BlockId, op: Operand, scratch: Reg) -> Reg {
        match op {
            Operand::Const(0) => Reg::ZERO,
            Operand::Const(c) => {
                self.emit(
                    block,
                    MachInst::Movi {
                        rd: scratch,
                        imm: c,
                    },
                );
                scratch
            }
            Operand::Var(v) => match self.var_loc[v.0 as usize] {
                VarLoc::Reg(r) => r,
                VarLoc::Slot(addr) => {
                    self.emit(
                        block,
                        MachInst::Ldw {
                            rd: scratch,
                            base: Reg::ZERO,
                            offset: addr as i32,
                        },
                    );
                    scratch
                }
            },
        }
    }

    /// The register results for `v` should be computed into; spilled
    /// variables use `scratch` and get a store afterwards.
    fn dest_reg(&self, v: VarId, scratch: Reg) -> Reg {
        match self.var_loc[v.0 as usize] {
            VarLoc::Reg(r) => r,
            VarLoc::Slot(_) => scratch,
        }
    }

    fn finish_def(&mut self, block: BlockId, v: VarId, computed_in: Reg) {
        if let VarLoc::Slot(addr) = self.var_loc[v.0 as usize] {
            self.emit(
                block,
                MachInst::Stw {
                    rs: computed_in,
                    base: Reg::ZERO,
                    offset: addr as i32,
                },
            );
        }
    }

    /// Second-source operand: immediate stays immediate (SPARC
    /// reg-or-imm), register/slot is materialized.
    fn operand_rhs(&mut self, block: BlockId, op: Operand, scratch: Reg) -> RegImm {
        match op {
            Operand::Const(c) => RegImm::Imm(c),
            Operand::Var(v) => match self.var_loc[v.0 as usize] {
                VarLoc::Reg(r) => RegImm::Reg(r),
                VarLoc::Slot(addr) => {
                    self.emit(
                        block,
                        MachInst::Ldw {
                            rd: scratch,
                            base: Reg::ZERO,
                            offset: addr as i32,
                        },
                    );
                    RegImm::Reg(scratch)
                }
            },
        }
    }

    fn lower_inst(&mut self, block: BlockId, inst: &Inst) {
        match inst {
            Inst::Const { dst, value } => {
                let rd = self.dest_reg(*dst, S1);
                self.emit(block, MachInst::Movi { rd, imm: *value });
                self.finish_def(block, *dst, rd);
            }
            Inst::Copy { dst, src } => {
                let rs = self.operand_reg(block, *src, S1);
                let rd = self.dest_reg(*dst, S1);
                if rd != rs {
                    self.emit(
                        block,
                        MachInst::Alu {
                            op: AluOp::Or,
                            rd,
                            rs1: rs,
                            rhs: RegImm::Reg(Reg::ZERO),
                        },
                    );
                }
                self.finish_def(block, *dst, rd);
            }
            Inst::Unary { dst, op, src } => {
                let rd = self.dest_reg(*dst, S1);
                match op {
                    UnOp::Neg => {
                        let rhs = self.operand_rhs(block, *src, S2);
                        self.emit(
                            block,
                            MachInst::Alu {
                                op: AluOp::Sub,
                                rd,
                                rs1: Reg::ZERO,
                                rhs,
                            },
                        );
                    }
                    UnOp::Not => {
                        let rs = self.operand_reg(block, *src, S2);
                        self.emit(
                            block,
                            MachInst::Alu {
                                op: AluOp::Seq,
                                rd,
                                rs1: rs,
                                rhs: RegImm::Reg(Reg::ZERO),
                            },
                        );
                    }
                    UnOp::BitNot => {
                        let rs = self.operand_reg(block, *src, S2);
                        self.emit(
                            block,
                            MachInst::Alu {
                                op: AluOp::Xor,
                                rd,
                                rs1: rs,
                                rhs: RegImm::Imm(-1),
                            },
                        );
                    }
                }
                self.finish_def(block, *dst, rd);
            }
            Inst::Binary { dst, op, lhs, rhs } => {
                let rs1 = self.operand_reg(block, *lhs, S2);
                let rhs = self.operand_rhs(block, *rhs, S3);
                let rd = self.dest_reg(*dst, S1);
                let mi = match op {
                    BinOp::Add => alu(AluOp::Add, rd, rs1, rhs),
                    BinOp::Sub => alu(AluOp::Sub, rd, rs1, rhs),
                    BinOp::And => alu(AluOp::And, rd, rs1, rhs),
                    BinOp::Or => alu(AluOp::Or, rd, rs1, rhs),
                    BinOp::Xor => alu(AluOp::Xor, rd, rs1, rhs),
                    BinOp::Shl => alu(AluOp::Sll, rd, rs1, rhs),
                    BinOp::Shr => alu(AluOp::Sra, rd, rs1, rhs),
                    BinOp::Eq => alu(AluOp::Seq, rd, rs1, rhs),
                    BinOp::Ne => alu(AluOp::Sne, rd, rs1, rhs),
                    BinOp::Lt => alu(AluOp::Slt, rd, rs1, rhs),
                    BinOp::Le => alu(AluOp::Sle, rd, rs1, rhs),
                    BinOp::Gt => alu(AluOp::Sgt, rd, rs1, rhs),
                    BinOp::Ge => alu(AluOp::Sge, rd, rs1, rhs),
                    BinOp::Mul => MachInst::Mul { rd, rs1, rhs },
                    BinOp::Div => MachInst::Div { rd, rs1, rhs },
                    BinOp::Rem => MachInst::Rem { rd, rs1, rhs },
                };
                self.emit(block, mi);
                self.finish_def(block, *dst, rd);
            }
            Inst::Load { dst, array, index } => {
                let info = self.app.array(*array);
                let base_addr = DATA_BASE + info.base_word * 4;
                let rd = self.dest_reg(*dst, S1);
                match index {
                    Operand::Const(c) => {
                        self.emit(
                            block,
                            MachInst::Ldw {
                                rd,
                                base: Reg::ZERO,
                                offset: const_index_offset(base_addr, *c),
                            },
                        );
                    }
                    Operand::Var(_) => {
                        let ri = self.operand_reg(block, *index, SA);
                        self.emit(
                            block,
                            MachInst::Alu {
                                op: AluOp::SllSat,
                                rd: SA,
                                rs1: ri,
                                rhs: RegImm::Imm(2),
                            },
                        );
                        self.emit(
                            block,
                            MachInst::Ldw {
                                rd,
                                base: SA,
                                offset: base_addr as i32,
                            },
                        );
                    }
                }
                self.finish_def(block, *dst, rd);
            }
            Inst::Store {
                array,
                index,
                value,
            } => {
                let info = self.app.array(*array);
                let base_addr = DATA_BASE + info.base_word * 4;
                match index {
                    Operand::Const(c) => {
                        let rv = self.operand_reg(block, *value, S1);
                        self.emit(
                            block,
                            MachInst::Stw {
                                rs: rv,
                                base: Reg::ZERO,
                                offset: const_index_offset(base_addr, *c),
                            },
                        );
                    }
                    Operand::Var(_) => {
                        let ri = self.operand_reg(block, *index, SA);
                        self.emit(
                            block,
                            MachInst::Alu {
                                op: AluOp::SllSat,
                                rd: SA,
                                rs1: ri,
                                rhs: RegImm::Imm(2),
                            },
                        );
                        let rv = self.operand_reg(block, *value, S1);
                        self.emit(
                            block,
                            MachInst::Stw {
                                rs: rv,
                                base: SA,
                                offset: base_addr as i32,
                            },
                        );
                    }
                }
            }
            Inst::Call { .. } => {
                unreachable!("Call instructions are inlined before codegen")
            }
        }
    }
}

/// The byte offset, from the zero register, of constant index `c` into
/// the array at `base_addr`. An address that does not fit the `i32`
/// offset field gets `i32::MIN`, which lies outside the 32-bit address
/// space, so the access faults instead of truncating onto mapped memory.
fn const_index_offset(base_addr: u32, c: i64) -> i32 {
    c.checked_mul(4)
        .and_then(|bytes| bytes.checked_add(i64::from(base_addr)))
        .and_then(|addr| i32::try_from(addr).ok())
        .unwrap_or(i32::MIN)
}

fn alu(op: AluOp, rd: Reg, rs1: Reg, rhs: RegImm) -> MachInst {
    MachInst::Alu { op, rd, rs1, rhs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corepart_ir::lower::lower;
    use corepart_ir::parser::parse;

    fn compile_src(src: &str) -> MachProgram {
        let app = lower(&parse(src).unwrap()).unwrap();
        compile(&app)
    }

    #[test]
    fn compiles_straight_line() {
        let p = compile_src("app t; var g = 2; func main() { g = g * 3 + 1; }");
        assert!(!p.is_empty());
        assert!(p.insts().iter().any(|i| matches!(i, MachInst::Mul { .. })));
        assert!(p.insts().iter().any(|i| matches!(i, MachInst::Halt)));
    }

    #[test]
    fn branch_targets_resolve() {
        let p =
            compile_src("app t; var g = 1; func main() { if (g > 0) { g = 2; } else { g = 3; } }");
        for inst in p.insts() {
            match inst {
                MachInst::Jmp { target }
                | MachInst::Beqz { target, .. }
                | MachInst::Bnez { target, .. } => {
                    assert!((*target as usize) < p.len(), "target {target} out of range");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn loop_has_backward_branch() {
        let p = compile_src("app t; var g = 10; func main() { while (g > 0) { g = g - 1; } }");
        let backward = p.insts().iter().enumerate().any(|(pc, i)| match i {
            MachInst::Jmp { target }
            | MachInst::Beqz { target, .. }
            | MachInst::Bnez { target, .. } => (*target as usize) <= pc,
            _ => false,
        });
        assert!(backward);
    }

    #[test]
    fn hot_var_gets_register() {
        // `g` appears many times -> should be pinned.
        let p = compile_src(
            "app t; var g = 0; func main() { g = g + 1; g = g + 2; g = g + 3; g = g * g; }",
        );
        let g = VarId(0);
        assert!(matches!(p.var_loc(g), VarLoc::Reg(_)));
    }

    #[test]
    fn spilled_vars_get_distinct_slots() {
        // Force >20 variables so some spill.
        let mut body = String::new();
        for i in 0..30 {
            body.push_str(&format!("var x{i} = {i};\n"));
        }
        body.push_str("x0 = x29;");
        let p = compile_src(&format!("app t; func main() {{ {body} }}"));
        let mut slots = std::collections::HashSet::new();
        let mut spilled = 0;
        for loc in p.var_locs() {
            if let VarLoc::Slot(addr) = loc {
                assert!(slots.insert(*addr), "slot reused");
                assert!(*addr >= SLOT_BASE);
                spilled += 1;
            }
        }
        assert!(spilled > 0, "expected spills with 30 variables");
    }

    #[test]
    fn array_access_uses_data_base() {
        let p = compile_src("app t; var a[8]; func main() { a[2] = 7; }");
        let has_store_at = p.insts().iter().any(|i| match i {
            MachInst::Stw { base, offset, .. } => {
                *base == Reg::ZERO && *offset == (DATA_BASE + 8) as i32
            }
            _ => false,
        });
        assert!(has_store_at, "{}", p.disassemble());
    }

    #[test]
    fn dynamic_index_shifts_by_two() {
        let p = compile_src("app t; var a[8]; var g = 3; func main() { a[g] = 1; }");
        let has_sll2 = p.insts().iter().any(|i| {
            matches!(
                i,
                MachInst::Alu {
                    op: AluOp::SllSat,
                    rhs: RegImm::Imm(2),
                    ..
                }
            )
        });
        assert!(has_sll2);
    }

    #[test]
    fn block_mapping_covers_all_pcs() {
        let p = compile_src("app t; var g = 5; func main() { while (g > 0) { g = g - 1; } }");
        for pc in 0..p.len() as u32 {
            let b = p.block_of(pc);
            // Block ids must be valid (small).
            assert!(b.0 < 64);
            let _ = p.inst_addr(pc);
        }
        assert_eq!(p.inst_addr(0), CODE_BASE);
        assert_eq!(p.inst_addr(2), CODE_BASE + 8);
    }

    #[test]
    fn profile_guided_allocation_prefers_hot_blocks() {
        use corepart_ir::interp::Interpreter;
        let src = r#"app t; var cold = 0; var a[64];
            func main() {
                cold = 7;
                for (var i = 0; i < 64; i = i + 1) { a[i] = a[i] + i; }
            }"#;
        let app = lower(&parse(src).unwrap()).unwrap();
        let profile = Interpreter::new(&app).run(1_000_000).unwrap();
        let p = compile_with_profile(&app, Some(&profile));
        // The loop counter must be in a register.
        let i_var = VarId(
            app.vars()
                .iter()
                .position(|v| v.name.as_deref() == Some("i"))
                .unwrap() as u32,
        );
        assert!(matches!(p.var_loc(i_var), VarLoc::Reg(_)));
    }
}
