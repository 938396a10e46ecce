//! Operation and operand types of the three-address CDFG instruction
//! set.

use std::fmt;

/// Identifier of a scalar variable (named variable or compiler
/// temporary) inside one function/application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of a global array. Arrays live in the shared memory of the
/// target architecture (Fig. 2 a), so both cores can reach them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub u32);

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Identifier of a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Identifier of a function in a lowered program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

/// An instruction operand: a variable or an integer literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A scalar variable or temporary.
    Var(VarId),
    /// An integer constant.
    Const(i64),
}

impl Operand {
    /// Returns the variable if this operand is one.
    pub fn as_var(self) -> Option<VarId> {
        match self {
            Operand::Var(v) => Some(v),
            Operand::Const(_) => None,
        }
    }
}

impl From<VarId> for Operand {
    fn from(v: VarId) -> Operand {
        Operand::Var(v)
    }
}

impl From<i64> for Operand {
    fn from(c: i64) -> Operand {
        Operand::Const(c)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Var(v) => write!(f, "{v}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

/// Binary operators of the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (truncating; division by zero traps in the interpreter)
    Div,
    /// `%`
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>` (arithmetic)
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl BinOp {
    /// All binary operators.
    pub const ALL: [BinOp; 16] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];

    /// True for comparison operators producing 0/1.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Evaluates the operator on two values with the IR's wrapping
    /// semantics.
    ///
    /// Division/remainder by zero yields 0 (the interpreter separately
    /// flags it); shift amounts are masked to 0..63.
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
            BinOp::Eq => i64::from(a == b),
            BinOp::Ne => i64::from(a != b),
            BinOp::Lt => i64::from(a < b),
            BinOp::Le => i64::from(a <= b),
            BinOp::Gt => i64::from(a > b),
            BinOp::Ge => i64::from(a >= b),
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Unary operators of the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (`!x` is 1 when x == 0).
    Not,
    /// Bitwise complement.
    BitNot,
}

impl UnOp {
    /// Evaluates the operator.
    pub fn eval(self, a: i64) -> i64 {
        match self {
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Not => i64::from(a == 0),
            UnOp::BitNot => !a,
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
        };
        f.write_str(s)
    }
}

/// A three-address instruction inside a basic block.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `dst = value`
    Const {
        /// Destination variable.
        dst: VarId,
        /// The constant.
        value: i64,
    },
    /// `dst = src` (register move)
    Copy {
        /// Destination variable.
        dst: VarId,
        /// Source operand.
        src: Operand,
    },
    /// `dst = op src`
    Unary {
        /// Destination variable.
        dst: VarId,
        /// The operator.
        op: UnOp,
        /// Source operand.
        src: Operand,
    },
    /// `dst = lhs op rhs`
    Binary {
        /// Destination variable.
        dst: VarId,
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = array[index]`
    Load {
        /// Destination variable.
        dst: VarId,
        /// The array read.
        array: ArrayId,
        /// Element index.
        index: Operand,
    },
    /// `array[index] = value`
    Store {
        /// The array written.
        array: ArrayId,
        /// Element index.
        index: Operand,
        /// Value stored.
        value: Operand,
    },
    /// `dst = call func(args)` — present only before inlining.
    Call {
        /// Destination for the return value, if used.
        dst: Option<VarId>,
        /// Callee.
        func: FuncId,
        /// Argument operands.
        args: Vec<Operand>,
    },
}

impl Inst {
    /// The variable this instruction defines, if any.
    pub fn def(&self) -> Option<VarId> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Unary { dst, .. }
            | Inst::Binary { dst, .. }
            | Inst::Load { dst, .. } => Some(*dst),
            Inst::Store { .. } => None,
            Inst::Call { dst, .. } => *dst,
        }
    }

    /// Variables this instruction reads, in operand order.
    pub fn uses(&self) -> Vec<VarId> {
        let mut v = Vec::new();
        self.for_each_use(|x| v.push(x));
        v
    }

    /// Calls `f` on every variable this instruction reads, in operand
    /// order ([`Inst::uses`] without the allocation).
    pub fn for_each_use(&self, mut f: impl FnMut(VarId)) {
        let mut push = |o: &Operand| {
            if let Operand::Var(x) = o {
                f(*x);
            }
        };
        match self {
            Inst::Const { .. } => {}
            Inst::Copy { src, .. } => push(src),
            Inst::Unary { src, .. } => push(src),
            Inst::Binary { lhs, rhs, .. } => {
                push(lhs);
                push(rhs);
            }
            Inst::Load { index, .. } => push(index),
            Inst::Store { index, value, .. } => {
                push(index);
                push(value);
            }
            Inst::Call { args, .. } => args.iter().for_each(push),
        }
    }

    /// The array this instruction reads, if any.
    pub fn array_use(&self) -> Option<ArrayId> {
        match self {
            Inst::Load { array, .. } => Some(*array),
            _ => None,
        }
    }

    /// The array this instruction writes, if any.
    pub fn array_def(&self) -> Option<ArrayId> {
        match self {
            Inst::Store { array, .. } => Some(*array),
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Const { dst, value } => write!(f, "{dst} = {value}"),
            Inst::Copy { dst, src } => write!(f, "{dst} = {src}"),
            Inst::Unary { dst, op, src } => write!(f, "{dst} = {op}{src}"),
            Inst::Binary { dst, op, lhs, rhs } => write!(f, "{dst} = {lhs} {op} {rhs}"),
            Inst::Load { dst, array, index } => write!(f, "{dst} = {array}[{index}]"),
            Inst::Store {
                array,
                index,
                value,
            } => write!(f, "{array}[{index}] = {value}"),
            Inst::Call { dst, func, args } => {
                if let Some(d) = dst {
                    write!(f, "{d} = call {func}(")?;
                } else {
                    write!(f, "call {func}(")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// Basic-block terminator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on a condition operand (non-zero = taken).
    Branch {
        /// Condition.
        cond: Operand,
        /// Successor when the condition is non-zero.
        then_block: BlockId,
        /// Successor when the condition is zero.
        else_block: BlockId,
    },
    /// Function return.
    Return(Option<Operand>),
}

impl Terminator {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch {
                then_block,
                else_block,
                ..
            } => vec![*then_block, *else_block],
            Terminator::Return(_) => vec![],
        }
    }

    /// The variable read by the terminator, if any.
    pub fn use_var(&self) -> Option<VarId> {
        match self {
            Terminator::Branch { cond, .. } => cond.as_var(),
            Terminator::Return(Some(op)) => op.as_var(),
            _ => None,
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Jump(b) => write!(f, "jump {b}"),
            Terminator::Branch {
                cond,
                then_block,
                else_block,
            } => write!(f, "br {cond} ? {then_block} : {else_block}"),
            Terminator::Return(Some(op)) => write!(f, "ret {op}"),
            Terminator::Return(None) => f.write_str("ret"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_basics() {
        assert_eq!(BinOp::Add.eval(2, 3), 5);
        assert_eq!(BinOp::Sub.eval(2, 3), -1);
        assert_eq!(BinOp::Mul.eval(4, 3), 12);
        assert_eq!(BinOp::Div.eval(7, 2), 3);
        assert_eq!(BinOp::Rem.eval(7, 2), 1);
        assert_eq!(BinOp::Div.eval(7, 0), 0);
        assert_eq!(BinOp::Rem.eval(7, 0), 0);
        assert_eq!(BinOp::Shl.eval(1, 4), 16);
        assert_eq!(BinOp::Shr.eval(-8, 1), -4);
        assert_eq!(BinOp::Lt.eval(1, 2), 1);
        assert_eq!(BinOp::Ge.eval(1, 2), 0);
    }

    #[test]
    fn binop_wrapping() {
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), i64::MIN);
        assert_eq!(BinOp::Mul.eval(i64::MAX, 2), -2);
        // shift amounts masked
        assert_eq!(BinOp::Shl.eval(1, 64), 1);
    }

    #[test]
    fn unop_eval() {
        assert_eq!(UnOp::Neg.eval(5), -5);
        assert_eq!(UnOp::Not.eval(0), 1);
        assert_eq!(UnOp::Not.eval(7), 0);
        assert_eq!(UnOp::BitNot.eval(0), -1);
    }

    #[test]
    fn inst_def_use() {
        let i = Inst::Binary {
            dst: VarId(3),
            op: BinOp::Add,
            lhs: Operand::Var(VarId(1)),
            rhs: Operand::Const(2),
        };
        assert_eq!(i.def(), Some(VarId(3)));
        assert_eq!(i.uses(), vec![VarId(1)]);

        let s = Inst::Store {
            array: ArrayId(0),
            index: Operand::Var(VarId(1)),
            value: Operand::Var(VarId(2)),
        };
        assert_eq!(s.def(), None);
        assert_eq!(s.uses(), vec![VarId(1), VarId(2)]);
        assert_eq!(s.array_def(), Some(ArrayId(0)));
        assert_eq!(s.array_use(), None);

        let l = Inst::Load {
            dst: VarId(0),
            array: ArrayId(1),
            index: Operand::Const(0),
        };
        assert_eq!(l.array_use(), Some(ArrayId(1)));
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            cond: Operand::Var(VarId(0)),
            then_block: BlockId(1),
            else_block: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        assert_eq!(t.use_var(), Some(VarId(0)));
        assert!(Terminator::Return(None).successors().is_empty());
    }

    #[test]
    fn display_round_trip_smoke() {
        let i = Inst::Binary {
            dst: VarId(3),
            op: BinOp::Mul,
            lhs: Operand::Var(VarId(1)),
            rhs: Operand::Const(2),
        };
        assert_eq!(format!("{i}"), "v3 = v1 * 2");
        let t = Terminator::Jump(BlockId(7));
        assert_eq!(format!("{t}"), "jump bb7");
    }

    #[test]
    fn comparison_predicate() {
        assert!(BinOp::Eq.is_comparison());
        assert!(BinOp::Ge.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(!BinOp::Shl.is_comparison());
    }
}
