//! Data-flow graph extraction for scheduling.
//!
//! Each basic block of a cluster becomes one DFG: nodes are the block's
//! instructions, edges are intra-block def→use dependencies plus memory
//! ordering (stores serialize against loads/stores of the same array).
//! The list scheduler consumes these graphs block by block; the ASIC
//! datapath executes one block's schedule per control-flow step, exactly
//! like an HLS controller FSM.

use std::collections::HashMap;
use std::sync::OnceLock;

use corepart_ir::cdfg::Application;
use corepart_ir::op::{BinOp, BlockId, Inst, UnOp};
use corepart_tech::resource::OpClass;

/// Maps an IR instruction to the resource class that executes it.
pub fn op_class_of(inst: &Inst) -> OpClass {
    match inst {
        Inst::Const { .. } | Inst::Copy { .. } => OpClass::Move,
        Inst::Unary { op, .. } => match op {
            UnOp::Neg => OpClass::AddSub,
            UnOp::Not => OpClass::Compare,
            UnOp::BitNot => OpClass::Logic,
        },
        Inst::Binary { op, .. } => match op {
            BinOp::Add | BinOp::Sub => OpClass::AddSub,
            BinOp::Mul => OpClass::Multiply,
            BinOp::Div | BinOp::Rem => OpClass::Divide,
            BinOp::And | BinOp::Or | BinOp::Xor => OpClass::Logic,
            BinOp::Shl | BinOp::Shr => OpClass::Shift,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                OpClass::Compare
            }
        },
        Inst::Load { .. } | Inst::Store { .. } => OpClass::MemAccess,
        Inst::Call { .. } => OpClass::Move,
    }
}

/// The data-flow graph of one basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDfg {
    /// The block this DFG describes.
    pub block: BlockId,
    /// Operation class of each instruction.
    pub classes: Vec<OpClass>,
    /// `preds[i]` = indices of instructions that must complete before
    /// instruction `i` starts.
    pub preds: Vec<Vec<usize>>,
    /// `succs[i]` = reverse edges.
    pub succs: Vec<Vec<usize>>,
}

impl BlockDfg {
    /// Builds the DFG of `block` in `app`.
    pub fn build(app: &Application, block: BlockId) -> Self {
        let insts = &app.block(block).insts;
        let n = insts.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];

        // def→use edges via last-writer tracking.
        let mut last_def: HashMap<corepart_ir::op::VarId, usize> = HashMap::new();
        // Memory ordering per array: last store + loads since.
        let mut last_store: HashMap<corepart_ir::op::ArrayId, usize> = HashMap::new();
        let mut loads_since: HashMap<corepart_ir::op::ArrayId, Vec<usize>> = HashMap::new();

        for (i, inst) in insts.iter().enumerate() {
            for u in inst.uses() {
                if let Some(&d) = last_def.get(&u) {
                    if !preds[i].contains(&d) {
                        preds[i].push(d);
                    }
                }
            }
            if let Some(a) = inst.array_use() {
                if let Some(&s) = last_store.get(&a) {
                    if !preds[i].contains(&s) {
                        preds[i].push(s);
                    }
                }
                loads_since.entry(a).or_default().push(i);
            }
            if let Some(a) = inst.array_def() {
                if let Some(&s) = last_store.get(&a) {
                    if !preds[i].contains(&s) {
                        preds[i].push(s);
                    }
                }
                for &l in loads_since.get(&a).into_iter().flatten() {
                    if l != i && !preds[i].contains(&l) {
                        preds[i].push(l);
                    }
                }
                loads_since.insert(a, Vec::new());
                last_store.insert(a, i);
            }
            if let Some(d) = inst.def() {
                last_def.insert(d, i);
            }
        }

        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, ps) in preds.iter().enumerate() {
            for &p in ps {
                succs[p].push(i);
            }
        }

        BlockDfg {
            block,
            classes: insts.iter().map(op_class_of).collect(),
            preds,
            succs,
        }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True for an empty block.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// The DFGs of one application's blocks, each built on first request
/// and shared from then on. A block's DFG does not depend on the
/// resource set, so a search that schedules every cluster on every
/// candidate set builds each block's DFG once instead of once per set.
/// Safe to share between the threads of one search.
#[derive(Debug)]
pub struct BlockDfgs<'a> {
    app: &'a Application,
    dfgs: Vec<OnceLock<BlockDfg>>,
}

impl<'a> BlockDfgs<'a> {
    /// An empty memo over the blocks of `app`.
    pub fn new(app: &'a Application) -> Self {
        BlockDfgs {
            app,
            dfgs: (0..app.blocks().len()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The DFG of `block`, built on the first call.
    pub fn get(&self, block: BlockId) -> &BlockDfg {
        self.dfgs[block.0 as usize].get_or_init(|| BlockDfg::build(self.app, block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corepart_ir::lower::lower;
    use corepart_ir::parser::parse;

    fn first_nonempty_dfg(src: &str) -> (Application, BlockId) {
        let app = lower(&parse(src).unwrap()).unwrap();
        let bid = (0..app.blocks().len() as u32)
            .map(BlockId)
            .find(|&b| !app.block(b).insts.is_empty())
            .expect("nonempty block");
        (app, bid)
    }

    #[test]
    fn def_use_edges() {
        let (app, b) =
            first_nonempty_dfg("app t; var g = 0; func main() { var x = 1 + 2; g = x * 3; }");
        let dfg = BlockDfg::build(&app, b);
        // Find the Mul node; it must depend on something.
        let mul = dfg
            .classes
            .iter()
            .position(|&c| c == OpClass::Multiply)
            .expect("mul op");
        assert!(!dfg.preds[mul].is_empty());
    }

    #[test]
    fn independent_ops_have_no_edges() {
        let (app, b) = first_nonempty_dfg(
            "app t; var g = 0; var h = 0; var p = 3; var q = 4; func main() { g = p + 1; h = q + 2; }",
        );
        let dfg = BlockDfg::build(&app, b);
        let adds: Vec<usize> = dfg
            .classes
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == OpClass::AddSub)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(adds.len(), 2);
        assert!(!dfg.preds[adds[1]].contains(&adds[0]));
    }

    #[test]
    fn store_load_ordering() {
        let (app, b) = first_nonempty_dfg(
            "app t; var a[4]; func main() { a[0] = 5; var x = a[0]; a[1] = x; }",
        );
        let dfg = BlockDfg::build(&app, b);
        let mems: Vec<usize> = dfg
            .classes
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == OpClass::MemAccess)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(mems.len(), 3);
        // load (2nd mem op) depends on the first store.
        assert!(dfg.preds[mems[1]].contains(&mems[0]));
        // second store depends on the load's value chainwise.
        assert!(!dfg.preds[mems[2]].is_empty());
    }

    #[test]
    fn classes_mapped() {
        let (app, b) =
            first_nonempty_dfg("app t; var g = 2; func main() { g = (g * 3) / (g + 1) << 2; }");
        let dfg = BlockDfg::build(&app, b);
        assert!(dfg.classes.contains(&OpClass::Multiply));
        assert!(dfg.classes.contains(&OpClass::Divide));
        assert!(dfg.classes.contains(&OpClass::AddSub));
        assert!(dfg.classes.contains(&OpClass::Shift));
    }

    #[test]
    fn comparison_maps_to_compare() {
        use corepart_ir::op::{Operand, VarId};
        let i = Inst::Binary {
            dst: VarId(0),
            op: BinOp::Lt,
            lhs: Operand::Var(VarId(1)),
            rhs: Operand::Const(2),
        };
        assert_eq!(op_class_of(&i), OpClass::Compare);
        let c = Inst::Const {
            dst: VarId(0),
            value: 3,
        };
        assert_eq!(op_class_of(&c), OpClass::Move);
    }

    #[test]
    fn edges_point_forward() {
        let (app, b) = first_nonempty_dfg(
            "app t; var a[8]; var g = 1; func main() { a[g] = a[g - 1] + a[g + 1] * 2; g = g ^ 3; }",
        );
        let dfg = BlockDfg::build(&app, b);
        for (i, ps) in dfg.preds.iter().enumerate() {
            for &p in ps {
                assert!(p < i, "edge {p} -> {i} not forward");
            }
        }
        // succs consistent with preds
        for (i, ss) in dfg.succs.iter().enumerate() {
            for &s in ss {
                assert!(dfg.preds[s].contains(&i));
            }
        }
    }
}
