//! The SPARC-like machine instruction set of the modelled µP core.
//!
//! The paper's experiments run on a SPARCLite embedded core with an
//! instruction-level energy simulator (§4). This module defines a
//! 32-register RISC instruction set of the same flavour: three-operand
//! ALU ops with a register-or-immediate second source, multi-cycle
//! multiply/divide, displacement loads/stores, and compare-and-branch.

use std::fmt;

/// A machine register. `r0` is hardwired to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// The hardwired zero register.
    pub const ZERO: Reg = Reg(0);
    /// Number of architectural registers.
    pub const COUNT: u8 = 32;
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Second source operand: register or immediate (SPARC's reg-or-imm13,
/// widened here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegImm {
    /// A register source.
    Reg(Reg),
    /// An immediate source.
    Imm(i64),
}

impl fmt::Display for RegImm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegImm::Reg(r) => write!(f, "{r}"),
            RegImm::Imm(i) => write!(f, "{i}"),
        }
    }
}

impl From<Reg> for RegImm {
    fn from(r: Reg) -> RegImm {
        RegImm::Reg(r)
    }
}

impl From<i64> for RegImm {
    fn from(i: i64) -> RegImm {
        RegImm::Imm(i)
    }
}

/// ALU operations (single-cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left logical.
    Sll,
    /// Shift left, saturating to `i64::MIN`/`i64::MAX` when bits of the
    /// signed value shift out. Codegen scales array indices with it, so
    /// an index too large to scale becomes an address outside the
    /// 32-bit space (a [`crate::simulator::SimError::BadAccess`] at the
    /// access) instead of wrapping onto mapped memory.
    SllSat,
    /// Shift right arithmetic.
    Sra,
    /// Set if less than.
    Slt,
    /// Set if less or equal.
    Sle,
    /// Set if equal.
    Seq,
    /// Set if not equal.
    Sne,
    /// Set if greater than.
    Sgt,
    /// Set if greater or equal.
    Sge,
}

impl AluOp {
    /// Evaluates the operation.
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl((b & 63) as u32),
            AluOp::SllSat => {
                let shift = (b & 63) as u32;
                let v = a << shift;
                if v >> shift == a {
                    v
                } else if a < 0 {
                    i64::MIN
                } else {
                    i64::MAX
                }
            }
            AluOp::Sra => a.wrapping_shr((b & 63) as u32),
            AluOp::Slt => i64::from(a < b),
            AluOp::Sle => i64::from(a <= b),
            AluOp::Seq => i64::from(a == b),
            AluOp::Sne => i64::from(a != b),
            AluOp::Sgt => i64::from(a > b),
            AluOp::Sge => i64::from(a >= b),
        }
    }

    /// True for the shift operations (they exercise the core's barrel
    /// shifter rather than the adder).
    pub fn is_shift(self) -> bool {
        matches!(self, AluOp::Sll | AluOp::SllSat | AluOp::Sra)
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::SllSat => "slls",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sle => "sle",
            AluOp::Seq => "seq",
            AluOp::Sne => "sne",
            AluOp::Sgt => "sgt",
            AluOp::Sge => "sge",
        };
        f.write_str(s)
    }
}

/// One machine instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachInst {
    /// `rd = rs1 <op> rhs`
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rhs: RegImm,
    },
    /// `rd = rs1 * rhs` (multi-cycle).
    Mul {
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rhs: RegImm,
    },
    /// `rd = rs1 / rhs` (multi-cycle; 0 when dividing by zero).
    Div {
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rhs: RegImm,
    },
    /// `rd = rs1 % rhs` (multi-cycle; 0 when dividing by zero).
    Rem {
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rhs: RegImm,
    },
    /// `rd = imm`
    Movi {
        /// Destination.
        rd: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// `rd = mem[rs1 + offset]` (word).
    Ldw {
        /// Destination.
        rd: Reg,
        /// Base register.
        base: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// `mem[base + offset] = rs` (word).
    Stw {
        /// Source.
        rs: Reg,
        /// Base register.
        base: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// Branch to `target` when `rs == 0`.
    Beqz {
        /// Tested register.
        rs: Reg,
        /// Target instruction index.
        target: u32,
    },
    /// Branch to `target` when `rs != 0`.
    Bnez {
        /// Tested register.
        rs: Reg,
        /// Target instruction index.
        target: u32,
    },
    /// Unconditional jump.
    Jmp {
        /// Target instruction index.
        target: u32,
    },
    /// Stop execution (end of `main`).
    Halt,
    /// No operation.
    Nop,
}

impl MachInst {
    /// The latency of this instruction in core cycles (SPARCLite-era
    /// figures: single-cycle ALU, 5-cycle multiply, 20-cycle divide,
    /// single-cycle loads/stores assuming a cache hit — miss penalties
    /// are added by the memory hierarchy simulation).
    pub fn latency(&self) -> u64 {
        match self {
            MachInst::Mul { .. } => 5,
            MachInst::Div { .. } | MachInst::Rem { .. } => 20,
            MachInst::Ldw { .. } | MachInst::Stw { .. } => 1,
            _ => 1,
        }
    }
}

impl fmt::Display for MachInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachInst::Alu { op, rd, rs1, rhs } => write!(f, "{op} {rd}, {rs1}, {rhs}"),
            MachInst::Mul { rd, rs1, rhs } => write!(f, "smul {rd}, {rs1}, {rhs}"),
            MachInst::Div { rd, rs1, rhs } => write!(f, "sdiv {rd}, {rs1}, {rhs}"),
            MachInst::Rem { rd, rs1, rhs } => write!(f, "srem {rd}, {rs1}, {rhs}"),
            MachInst::Movi { rd, imm } => write!(f, "set {imm}, {rd}"),
            MachInst::Ldw { rd, base, offset } => write!(f, "ld [{base}+{offset}], {rd}"),
            MachInst::Stw { rs, base, offset } => write!(f, "st {rs}, [{base}+{offset}]"),
            MachInst::Beqz { rs, target } => write!(f, "beqz {rs}, {target}"),
            MachInst::Bnez { rs, target } => write!(f, "bnez {rs}, {target}"),
            MachInst::Jmp { target } => write!(f, "jmp {target}"),
            MachInst::Halt => f.write_str("halt"),
            MachInst::Nop => f.write_str("nop"),
        }
    }
}

/// Coarse instruction classes for the instruction-level energy model
/// (Tiwari-style base costs per class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstClass {
    /// Single-cycle ALU (arith/logic/compare).
    Alu,
    /// Shift (barrel shifter).
    Shift,
    /// Multiply.
    Mul,
    /// Divide/remainder.
    Div,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Branch/jump.
    Branch,
    /// Immediate move / nop / halt.
    Move,
}

impl InstClass {
    /// All classes in a stable order.
    pub const ALL: [InstClass; 8] = [
        InstClass::Alu,
        InstClass::Shift,
        InstClass::Mul,
        InstClass::Div,
        InstClass::Load,
        InstClass::Store,
        InstClass::Branch,
        InstClass::Move,
    ];

    /// Classifies a machine instruction.
    pub fn of(inst: &MachInst) -> InstClass {
        match inst {
            MachInst::Alu { op, .. } if op.is_shift() => InstClass::Shift,
            MachInst::Alu { .. } => InstClass::Alu,
            MachInst::Mul { .. } => InstClass::Mul,
            MachInst::Div { .. } | MachInst::Rem { .. } => InstClass::Div,
            MachInst::Ldw { .. } => InstClass::Load,
            MachInst::Stw { .. } => InstClass::Store,
            MachInst::Beqz { .. } | MachInst::Bnez { .. } | MachInst::Jmp { .. } => {
                InstClass::Branch
            }
            MachInst::Movi { .. } | MachInst::Halt | MachInst::Nop => InstClass::Move,
        }
    }
}

impl fmt::Display for InstClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstClass::Alu => "alu",
            InstClass::Shift => "shift",
            InstClass::Mul => "mul",
            InstClass::Div => "div",
            InstClass::Load => "load",
            InstClass::Store => "store",
            InstClass::Branch => "branch",
            InstClass::Move => "move",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_eval() {
        assert_eq!(AluOp::Add.eval(3, 4), 7);
        assert_eq!(AluOp::Sub.eval(3, 4), -1);
        assert_eq!(AluOp::Sll.eval(1, 3), 8);
        assert_eq!(AluOp::Sra.eval(-16, 2), -4);
        assert_eq!(AluOp::Slt.eval(1, 2), 1);
        assert_eq!(AluOp::Sge.eval(1, 2), 0);
        assert_eq!(AluOp::Xor.eval(0b101, 0b110), 0b011);
    }

    #[test]
    fn saturating_shift_never_wraps() {
        assert_eq!(AluOp::SllSat.eval(3, 2), 12);
        assert_eq!(AluOp::SllSat.eval(-3, 2), -12);
        assert_eq!(AluOp::SllSat.eval((1 << 61) - 1, 2), ((1 << 61) - 1) * 4);
        assert_eq!(AluOp::SllSat.eval(-(1 << 61), 2), i64::MIN);
        // Sll wraps 2^62 and 2^62 + 1 onto 0 and 4; SllSat does not.
        assert_eq!(AluOp::Sll.eval(1 << 62, 2), 0);
        assert_eq!(AluOp::SllSat.eval(1 << 61, 2), i64::MAX);
        assert_eq!(AluOp::SllSat.eval(1 << 62, 2), i64::MAX);
        assert_eq!(AluOp::SllSat.eval((1 << 62) + 1, 2), i64::MAX);
        assert_eq!(AluOp::SllSat.eval(-(1 << 62), 2), i64::MIN);
        assert_eq!(AluOp::SllSat.eval(i64::MIN, 2), i64::MIN);
        assert_eq!(AluOp::SllSat.eval(0, 63), 0);
    }

    #[test]
    fn latencies() {
        let mul = MachInst::Mul {
            rd: Reg(1),
            rs1: Reg(2),
            rhs: RegImm::Imm(3),
        };
        assert_eq!(mul.latency(), 5);
        let div = MachInst::Div {
            rd: Reg(1),
            rs1: Reg(2),
            rhs: RegImm::Imm(3),
        };
        assert_eq!(div.latency(), 20);
        assert_eq!(MachInst::Nop.latency(), 1);
    }

    #[test]
    fn classification() {
        let sll = MachInst::Alu {
            op: AluOp::Sll,
            rd: Reg(1),
            rs1: Reg(1),
            rhs: RegImm::Imm(2),
        };
        assert_eq!(InstClass::of(&sll), InstClass::Shift);
        let add = MachInst::Alu {
            op: AluOp::Add,
            rd: Reg(1),
            rs1: Reg(1),
            rhs: RegImm::Reg(Reg(2)),
        };
        assert_eq!(InstClass::of(&add), InstClass::Alu);
        assert_eq!(InstClass::of(&MachInst::Halt), InstClass::Move);
        assert_eq!(
            InstClass::of(&MachInst::Jmp { target: 0 }),
            InstClass::Branch
        );
    }

    #[test]
    fn display() {
        let i = MachInst::Alu {
            op: AluOp::Add,
            rd: Reg(3),
            rs1: Reg(1),
            rhs: RegImm::Imm(4),
        };
        assert_eq!(format!("{i}"), "add r3, r1, 4");
        let l = MachInst::Ldw {
            rd: Reg(2),
            base: Reg(5),
            offset: 8,
        };
        assert_eq!(format!("{l}"), "ld [r5+8], r2");
    }

    #[test]
    fn conversions() {
        let ri: RegImm = Reg(4).into();
        assert_eq!(ri, RegImm::Reg(Reg(4)));
        let ii: RegImm = 7i64.into();
        assert_eq!(ii, RegImm::Imm(7));
    }
}
