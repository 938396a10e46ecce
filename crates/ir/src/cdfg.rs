//! The lowered control/data-flow graph representation.
//!
//! [`crate::lower::lower`] turns a parsed [`crate::ast::Program`] into an
//! [`Application`]: a single, fully inlined control-flow graph of basic
//! blocks — the graph `G = {V, E}` that step 1 of the paper's
//! partitioning algorithm builds (Fig. 1). Alongside the raw graph, the
//! application carries a *structure tree* recording which blocks came
//! from which source construct (loop, branch, inlined call, straight-line
//! run); the cluster decomposition of Fig. 1 step 2 is "done by
//! structural information of the initial behavioral description solely"
//! (§3.2), and this tree is exactly that information.

use std::collections::BTreeMap;
use std::fmt;

use crate::op::{ArrayId, BlockId, Inst, Terminator, VarId};

/// Metadata of one scalar variable (named or temporary).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VarInfo {
    /// Source name, or `None` for compiler temporaries.
    pub name: Option<String>,
}

/// Metadata of one global array. Arrays live in the shared memory
/// (Fig. 2 a) at consecutive word addresses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayInfo {
    /// Source name.
    pub name: String,
    /// Element count (words).
    pub len: u32,
    /// Base address in words within the shared memory.
    pub base_word: u32,
}

/// A basic block: a run of instructions plus one terminator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Block {
    /// Straight-line instructions.
    pub insts: Vec<Inst>,
    /// The terminator. Blocks under construction use a placeholder
    /// `Return(None)` until sealed.
    pub term: Terminator,
}

/// A node of the structure tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StructNode {
    /// A maximal run of simple statements.
    Straight {
        /// Blocks owned by the run (in order).
        blocks: Vec<BlockId>,
    },
    /// A `while`/`for` loop.
    Loop {
        /// Human-readable label (e.g. `loop@3:5`).
        label: String,
        /// The condition-evaluation block(s).
        header_blocks: Vec<BlockId>,
        /// Structure of the loop body.
        body: Vec<StructNode>,
        /// All blocks owned by the loop (header + body + latch).
        all_blocks: Vec<BlockId>,
    },
    /// An `if`/`else`.
    Branch {
        /// Human-readable label.
        label: String,
        /// Blocks evaluating the condition.
        cond_blocks: Vec<BlockId>,
        /// Structure of the then-branch.
        then_body: Vec<StructNode>,
        /// Structure of the else-branch.
        else_body: Vec<StructNode>,
        /// All blocks owned by the branch construct.
        all_blocks: Vec<BlockId>,
    },
    /// The inlined body of a function called as a top-level statement.
    Inlined {
        /// The callee name.
        label: String,
        /// Structure of the inlined body.
        body: Vec<StructNode>,
        /// All blocks owned by the inlined call.
        all_blocks: Vec<BlockId>,
    },
}

impl StructNode {
    /// All blocks owned by this node, in creation order.
    pub fn blocks(&self) -> &[BlockId] {
        match self {
            StructNode::Straight { blocks } => blocks,
            StructNode::Loop { all_blocks, .. }
            | StructNode::Branch { all_blocks, .. }
            | StructNode::Inlined { all_blocks, .. } => all_blocks,
        }
    }

    /// A short label describing the node.
    pub fn label(&self) -> String {
        match self {
            StructNode::Straight { blocks } => format!(
                "straight@{}",
                blocks.first().map(|b| b.0).unwrap_or_default()
            ),
            StructNode::Loop { label, .. }
            | StructNode::Branch { label, .. }
            | StructNode::Inlined { label, .. } => label.clone(),
        }
    }

    /// Child structure nodes (loop body, both branch arms, inlined
    /// body); empty for straight runs.
    pub fn children(&self) -> Vec<&StructNode> {
        match self {
            StructNode::Straight { .. } => Vec::new(),
            StructNode::Loop { body, .. } | StructNode::Inlined { body, .. } => {
                body.iter().collect()
            }
            StructNode::Branch {
                then_body,
                else_body,
                ..
            } => then_body.iter().chain(else_body.iter()).collect(),
        }
    }

    /// True for loop nodes.
    pub fn is_loop(&self) -> bool {
        matches!(self, StructNode::Loop { .. })
    }
}

/// A fully inlined application: the unit the partitioner operates on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Application {
    name: String,
    vars: Vec<VarInfo>,
    arrays: Vec<ArrayInfo>,
    blocks: Vec<Block>,
    entry: BlockId,
    globals_init: Vec<(VarId, i64)>,
    structure: Vec<StructNode>,
}

impl Application {
    /// Assembles an application from parts. Intended for
    /// [`crate::lower::lower`] and tests; most users should lower a
    /// parsed program instead.
    ///
    /// # Panics
    ///
    /// Panics when a terminator references an out-of-range block, an
    /// instruction references an out-of-range variable or array, or the
    /// entry block is out of range — the invariants every later pass
    /// relies on.
    pub fn from_parts(
        name: String,
        vars: Vec<VarInfo>,
        arrays: Vec<ArrayInfo>,
        blocks: Vec<Block>,
        entry: BlockId,
        globals_init: Vec<(VarId, i64)>,
        structure: Vec<StructNode>,
    ) -> Self {
        let app = Application {
            name,
            vars,
            arrays,
            blocks,
            entry,
            globals_init,
            structure,
        };
        app.validate();
        app
    }

    fn validate(&self) {
        assert!(
            (self.entry.0 as usize) < self.blocks.len(),
            "entry block {} out of range",
            self.entry
        );
        for (bi, b) in self.blocks.iter().enumerate() {
            for succ in b.term.successors() {
                assert!(
                    (succ.0 as usize) < self.blocks.len(),
                    "bb{bi} jumps to out-of-range {succ}"
                );
            }
            for inst in &b.insts {
                if let Some(d) = inst.def() {
                    assert!((d.0 as usize) < self.vars.len(), "bb{bi}: {inst} bad def");
                }
                for u in inst.uses() {
                    assert!((u.0 as usize) < self.vars.len(), "bb{bi}: {inst} bad use");
                }
                for a in inst.array_use().into_iter().chain(inst.array_def()) {
                    assert!(
                        (a.0 as usize) < self.arrays.len(),
                        "bb{bi}: {inst} bad array"
                    );
                }
            }
        }
    }

    /// The application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All scalar variables (named + temporaries).
    pub fn vars(&self) -> &[VarInfo] {
        &self.vars
    }

    /// All global arrays.
    pub fn arrays(&self) -> &[ArrayInfo] {
        &self.arrays
    }

    /// Looks up an array's info.
    pub fn array(&self, id: ArrayId) -> &ArrayInfo {
        &self.arrays[id.0 as usize]
    }

    /// All basic blocks, indexed by [`BlockId`].
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// One block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Initial values of global scalars.
    pub fn globals_init(&self) -> &[(VarId, i64)] {
        &self.globals_init
    }

    /// The top-level structure tree.
    pub fn structure(&self) -> &[StructNode] {
        &self.structure
    }

    /// Total shared-memory footprint of the arrays, in words.
    pub fn memory_words(&self) -> u32 {
        self.arrays.iter().map(|a| a.len).sum()
    }

    /// Total number of instructions across all blocks.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Predecessor lists for every block.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (bi, b) in self.blocks.iter().enumerate() {
            for s in b.term.successors() {
                preds[s.0 as usize].push(BlockId(bi as u32));
            }
        }
        preds
    }

    /// Blocks in reverse postorder from the entry (a topological-ish
    /// order good for forward dataflow).
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::with_capacity(self.blocks.len());
        // Iterative DFS to survive deep graphs.
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry, 0)];
        visited[self.entry.0 as usize] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succs = self.blocks[b.0 as usize].term.successors();
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if !visited[s.0 as usize] {
                    visited[s.0 as usize] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// Pretty-prints the whole CFG (blocks, instructions, structure).
    pub fn dump(&self) -> String {
        format!("{self}")
    }
}

impl fmt::Display for Application {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "app {} (entry {})", self.name, self.entry)?;
        for (i, a) in self.arrays.iter().enumerate() {
            writeln!(f, "  array a{i} {}[{}] @w{}", a.name, a.len, a.base_word)?;
        }
        for (bi, b) in self.blocks.iter().enumerate() {
            writeln!(f, "bb{bi}:")?;
            for inst in &b.insts {
                writeln!(f, "  {inst}")?;
            }
            writeln!(f, "  {}", b.term)?;
        }
        fn node(f: &mut fmt::Formatter<'_>, n: &StructNode, indent: usize) -> fmt::Result {
            writeln!(
                f,
                "{}{} [{} blocks]",
                " ".repeat(indent),
                n.label(),
                n.blocks().len()
            )?;
            for c in n.children() {
                node(f, c, indent + 2)?;
            }
            Ok(())
        }
        writeln!(f, "structure:")?;
        for n in &self.structure {
            node(f, n, 2)?;
        }
        Ok(())
    }
}

/// Counts the operations in a set of blocks grouped by a classifying
/// function — a small helper shared by cluster statistics and reports.
pub fn count_ops_by<K: Ord, F: Fn(&Inst) -> K>(
    app: &Application,
    blocks: &[BlockId],
    classify: F,
) -> BTreeMap<K, usize> {
    let mut map = BTreeMap::new();
    for &b in blocks {
        for inst in &app.block(b).insts {
            *map.entry(classify(inst)).or_insert(0) += 1;
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Operand;

    fn tiny_app() -> Application {
        // bb0: v0 = 1; jump bb1
        // bb1: br v0 ? bb2 : bb3
        // bb2: v1 = v0 + 1; jump bb3
        // bb3: ret
        let blocks = vec![
            Block {
                insts: vec![Inst::Const {
                    dst: VarId(0),
                    value: 1,
                }],
                term: Terminator::Jump(BlockId(1)),
            },
            Block {
                insts: vec![],
                term: Terminator::Branch {
                    cond: Operand::Var(VarId(0)),
                    then_block: BlockId(2),
                    else_block: BlockId(3),
                },
            },
            Block {
                insts: vec![Inst::Binary {
                    dst: VarId(1),
                    op: crate::op::BinOp::Add,
                    lhs: Operand::Var(VarId(0)),
                    rhs: Operand::Const(1),
                }],
                term: Terminator::Jump(BlockId(3)),
            },
            Block {
                insts: vec![],
                term: Terminator::Return(None),
            },
        ];
        Application::from_parts(
            "tiny".into(),
            vec![VarInfo { name: None }, VarInfo { name: None }],
            vec![],
            blocks,
            BlockId(0),
            vec![],
            vec![StructNode::Straight {
                blocks: vec![BlockId(0), BlockId(1), BlockId(2), BlockId(3)],
            }],
        )
    }

    #[test]
    fn predecessors_computed() {
        let app = tiny_app();
        let preds = app.predecessors();
        assert_eq!(preds[0], vec![]);
        assert_eq!(preds[1], vec![BlockId(0)]);
        assert_eq!(preds[3], vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn reverse_postorder_starts_at_entry() {
        let app = tiny_app();
        let rpo = app.reverse_postorder();
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(rpo.len(), 4);
        // bb3 must come after bb1 and bb2.
        let pos = |b: BlockId| rpo.iter().position(|&x| x == b).unwrap();
        assert!(pos(BlockId(3)) > pos(BlockId(1)));
        assert!(pos(BlockId(3)) > pos(BlockId(2)));
    }

    #[test]
    fn inst_count_and_display() {
        let app = tiny_app();
        assert_eq!(app.inst_count(), 2);
        let text = app.dump();
        assert!(text.contains("bb0:"));
        assert!(text.contains("v1 = v0 + 1"));
        assert!(text.contains("structure:"));
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn validation_catches_bad_successor() {
        let blocks = vec![Block {
            insts: vec![],
            term: Terminator::Jump(BlockId(5)),
        }];
        let _ = Application::from_parts(
            "bad".into(),
            vec![],
            vec![],
            blocks,
            BlockId(0),
            vec![],
            vec![],
        );
    }

    #[test]
    #[should_panic(expected = "bad def")]
    fn validation_catches_bad_var() {
        let blocks = vec![Block {
            insts: vec![Inst::Const {
                dst: VarId(3),
                value: 0,
            }],
            term: Terminator::Return(None),
        }];
        let _ = Application::from_parts(
            "bad".into(),
            vec![],
            vec![],
            blocks,
            BlockId(0),
            vec![],
            vec![],
        );
    }

    #[test]
    fn struct_node_accessors() {
        let n = StructNode::Loop {
            label: "loop@1".into(),
            header_blocks: vec![BlockId(0)],
            body: vec![StructNode::Straight {
                blocks: vec![BlockId(1)],
            }],
            all_blocks: vec![BlockId(0), BlockId(1)],
        };
        assert!(n.is_loop());
        assert_eq!(n.blocks().len(), 2);
        assert_eq!(n.children().len(), 1);
        assert_eq!(n.label(), "loop@1");
    }

    #[test]
    fn count_ops_by_classifier() {
        let app = tiny_app();
        let by_kind = count_ops_by(&app, &[BlockId(0), BlockId(2)], |i| {
            matches!(i, Inst::Binary { .. })
        });
        assert_eq!(by_kind[&false], 1);
        assert_eq!(by_kind[&true], 1);
    }
}
