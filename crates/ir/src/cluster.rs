//! Cluster decomposition (Fig. 1 step 2).
//!
//! "A cluster in our definition is a set of operations which represents
//! code segments like nested loops, if-then-else constructs, functions
//! etc. … Decomposition is done by structural information of the
//! initial behavioral description solely" (§3.2).
//!
//! The decomposition walks the structure tree recorded during lowering:
//!
//! 1. If the application body is a single loop wrapping everything (the
//!    usual outer *frame loop* of a DSP application), descend into its
//!    body — the interesting clusters live inside, and the frame loop
//!    itself stays on the µP core as the scheduler of the cluster chain.
//! 2. Every remaining top-level construct becomes one cluster: a loop
//!    nest, an if/else, an inlined function, or a maximal straight-line
//!    run.
//!
//! The result is the *linear cluster chain* of Fig. 2 b: clusters
//! `c_1 … c_n` executed in order (possibly many times, per the frame
//! loop), each annotated with its `gen`/`use` summary for the
//! bus-transfer estimation of §3.3.

use std::fmt;

use crate::cdfg::{Application, StructNode};
use crate::dataflow::{region_gen_use_in, ControlFlow, GenUse};
use crate::op::BlockId;

/// Identifier of a cluster within a [`ClusterChain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u32);

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// What source construct a cluster came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterKind {
    /// A loop nest.
    LoopNest,
    /// An if/else region.
    Conditional,
    /// An inlined function body.
    Function,
    /// A maximal straight-line run.
    Straight,
}

impl fmt::Display for ClusterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ClusterKind::LoopNest => "loop-nest",
            ClusterKind::Conditional => "conditional",
            ClusterKind::Function => "function",
            ClusterKind::Straight => "straight",
        };
        f.write_str(s)
    }
}

/// One cluster `c_i` of the chain.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Position in the chain.
    pub id: ClusterId,
    /// Human-readable label from the source construct.
    pub label: String,
    /// The construct kind.
    pub kind: ClusterKind,
    /// Blocks owned by the cluster (disjoint across clusters).
    pub blocks: Vec<BlockId>,
    /// The block control enters through.
    pub entry: BlockId,
    /// `gen[c_i]` / `use[c_i]` summary.
    pub gen_use: GenUse,
    /// Static instruction count (a quick size measure).
    pub inst_count: usize,
}

impl Cluster {
    /// True when the cluster contains at least one loop (candidate hot
    /// spot).
    pub fn is_loop(&self) -> bool {
        self.kind == ClusterKind::LoopNest
    }
}

impl fmt::Display for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} ({}, {} blocks, {} insts)",
            self.id,
            self.label,
            self.kind,
            self.blocks.len(),
            self.inst_count
        )
    }
}

/// The linear cluster chain of Fig. 2 b.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterChain {
    clusters: Vec<Cluster>,
    /// Blocks not owned by any cluster (frame-loop headers, glue) —
    /// always executed by the µP core.
    residual_blocks: Vec<BlockId>,
    /// How many times the chain is traversed per application run (the
    /// frame-loop descent factor is only known after profiling; this
    /// stores the number of descended loop levels for reporting).
    descended_levels: u32,
}

impl ClusterChain {
    /// The clusters in chain order.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Looks up a cluster.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.0 as usize]
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// True when decomposition found no clusters (empty application).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Iterates over the clusters.
    pub fn iter(&self) -> impl Iterator<Item = &Cluster> {
        self.clusters.iter()
    }

    /// Blocks owned by no cluster (executed by the µP core in every
    /// partition).
    pub fn residual_blocks(&self) -> &[BlockId] {
        &self.residual_blocks
    }

    /// How many frame-loop levels the decomposition descended through.
    pub fn descended_levels(&self) -> u32 {
        self.descended_levels
    }

    /// The union `gen`/`use` summary of all clusters strictly before
    /// `id` — `C_pred^{c_i}` in Fig. 2 b / Fig. 3 step 1.
    pub fn preds_gen_use(&self, id: ClusterId) -> GenUse {
        let mut acc = GenUse::default();
        for c in &self.clusters[..id.0 as usize] {
            acc.union_with(&c.gen_use);
        }
        acc
    }

    /// The union summary of all clusters strictly after `id` —
    /// `C_succ^{c_i}` in Fig. 3 step 3.
    pub fn succs_gen_use(&self, id: ClusterId) -> GenUse {
        let mut acc = GenUse::default();
        for c in &self.clusters[id.0 as usize + 1..] {
            acc.union_with(&c.gen_use);
        }
        acc
    }

    /// The immediately preceding cluster, if any (`c_{i-1}`).
    pub fn prev(&self, id: ClusterId) -> Option<&Cluster> {
        id.0.checked_sub(1).map(|i| &self.clusters[i as usize])
    }

    /// The immediately following cluster, if any (`c_{i+1}`).
    pub fn next(&self, id: ClusterId) -> Option<&Cluster> {
        self.clusters.get(id.0 as usize + 1)
    }
}

/// How many times control *enters* a cluster from outside — the
/// per-invocation multiplier of the paper's bus-transfer scheme
/// (§3.3 a–d: one deposit/read-back round per call of the ASIC core).
///
/// For a loop cluster the entry block is the loop header, which also
/// executes once per iteration; the back-edge executions from blocks
/// inside the cluster are subtracted, leaving only the external
/// entries.
pub fn cluster_invocations(
    app: &Application,
    profile: &crate::interp::ExecProfile,
    cluster: &Cluster,
) -> u64 {
    let entry = cluster.entry;
    let backedges: u64 = cluster
        .blocks
        .iter()
        .filter(|&&b| app.block(b).term.successors().contains(&entry))
        .map(|&b| profile.count(b))
        .sum();
    profile.count(entry).saturating_sub(backedges)
}

/// Decomposes an application into its cluster chain.
///
/// See the module docs for the rules. The returned chain may be empty
/// for an application with an empty `main`.
pub fn decompose(app: &Application) -> ClusterChain {
    let mut nodes: &[StructNode] = app.structure();
    let mut descended = 0u32;
    let mut residual: Vec<BlockId> = Vec::new();

    // Frame-loop descent: while the whole body is one loop, look inside.
    loop {
        let loops: Vec<&StructNode> = nodes.iter().filter(|n| n.is_loop()).collect();
        let non_trivial: Vec<&StructNode> = nodes
            .iter()
            .filter(|n| !matches!(n, StructNode::Straight { .. }))
            .collect();
        if loops.len() == 1 && non_trivial.len() == 1 {
            if let StructNode::Loop {
                header_blocks,
                body,
                all_blocks,
                ..
            } = loops[0]
            {
                fn contains_loop(n: &StructNode) -> bool {
                    n.is_loop() || n.children().iter().any(|c| contains_loop(c))
                }
                // Only a *frame* loop — one that wraps further loops —
                // is dissolved; a leaf loop (even a branchy one) is
                // itself the hot cluster.
                if body.iter().any(contains_loop) {
                    // Straight nodes beside the frame loop stay residual.
                    for n in nodes {
                        if matches!(n, StructNode::Straight { .. }) {
                            residual.extend(n.blocks().iter().copied());
                        }
                    }
                    residual.extend(header_blocks.iter().copied());
                    // The latch/step blocks of the frame loop that are
                    // not owned by body children are residual as well;
                    // collect below by subtraction.
                    let mut owned: Vec<BlockId> = Vec::new();
                    for c in body.iter() {
                        owned.extend(c.blocks().iter().copied());
                    }
                    for b in all_blocks {
                        if !owned.contains(b) && !header_blocks.contains(b) {
                            residual.push(*b);
                        }
                    }
                    // Only blocks with instructions count as meaningful
                    // residual; harmless either way.
                    nodes = body;
                    descended += 1;
                    continue;
                }
            }
        }
        break;
    }

    let cfg = ControlFlow::of(app);
    let mut clusters = Vec::new();
    for node in nodes {
        let (kind, blocks) = match node {
            StructNode::Straight { blocks } => (ClusterKind::Straight, blocks.clone()),
            StructNode::Loop { all_blocks, .. } => (ClusterKind::LoopNest, all_blocks.clone()),
            StructNode::Branch { all_blocks, .. } => (ClusterKind::Conditional, all_blocks.clone()),
            StructNode::Inlined { all_blocks, .. } => (ClusterKind::Function, all_blocks.clone()),
        };
        if blocks.is_empty() {
            continue;
        }
        let inst_count: usize = blocks.iter().map(|&b| app.block(b).insts.len()).sum();
        if inst_count == 0 {
            residual.extend(blocks);
            continue;
        }
        let gen_use = region_gen_use_in(app, &cfg, &blocks);
        let id = ClusterId(clusters.len() as u32);
        clusters.push(Cluster {
            id,
            label: node.label(),
            kind,
            entry: blocks[0],
            blocks,
            gen_use,
            inst_count,
        });
    }

    ClusterChain {
        clusters,
        residual_blocks: residual,
        descended_levels: descended,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::parser::parse;

    fn app(src: &str) -> Application {
        lower(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn flat_body_yields_clusters_in_order() {
        let a = app(r#"app t; var g = 0; var buf[16];
            func main() {
                g = 1;
                for (var i = 0; i < 16; i = i + 1) { buf[i] = i; }
                if (g > 0) { g = 2; }
                g = 3;
            }"#);
        let chain = decompose(&a);
        let kinds: Vec<ClusterKind> = chain.iter().map(|c| c.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ClusterKind::Straight,
                ClusterKind::LoopNest,
                ClusterKind::Conditional,
                ClusterKind::Straight
            ]
        );
        assert_eq!(chain.descended_levels(), 0);
    }

    #[test]
    fn frame_loop_descent() {
        let a = app(r#"app t; var acc = 0; var buf[8];
            func main() {
                for (var frame = 0; frame < 100; frame = frame + 1) {
                    for (var i = 0; i < 8; i = i + 1) { buf[i] = buf[i] + 1; }
                    acc = acc + buf[0];
                }
            }"#);
        let chain = decompose(&a);
        assert_eq!(chain.descended_levels(), 1);
        // Inside: the inner loop + the straight acc update.
        assert!(chain.len() >= 2, "got {} clusters", chain.len());
        assert!(chain.iter().any(|c| c.is_loop()));
        // Frame-loop header blocks are residual.
        assert!(!chain.residual_blocks().is_empty());
    }

    #[test]
    fn single_leaf_loop_not_descended() {
        // A single loop whose body is pure straight-line code is itself
        // the hot cluster; don't dissolve it.
        let a = app(r#"app t; var buf[32];
            func main() {
                for (var i = 0; i < 32; i = i + 1) { buf[i] = i * i; }
            }"#);
        let chain = decompose(&a);
        assert_eq!(chain.descended_levels(), 0);
        // The `for` init forms a small straight cluster ahead of the
        // loop-nest cluster.
        assert_eq!(chain.len(), 2);
        assert!(chain.clusters()[1].is_loop());
    }

    #[test]
    fn function_statement_becomes_cluster() {
        let a = app(r#"app t; var g = 0;
            func work() { for (var i = 0; i < 4; i = i + 1) { g = g + i; } }
            func main() { g = 1; work(); g = 2; }"#);
        let chain = decompose(&a);
        assert!(chain
            .iter()
            .any(|c| c.kind == ClusterKind::Function && c.label == "work"));
    }

    #[test]
    fn clusters_own_disjoint_blocks() {
        let a = app(r#"app t; var g = 0; var buf[8];
            func main() {
                for (var f = 0; f < 10; f = f + 1) {
                    for (var i = 0; i < 8; i = i + 1) { buf[i] = i; }
                    if (g > 0) { g = 0; } else { g = 1; }
                    g = g + buf[0];
                }
            }"#);
        let chain = decompose(&a);
        let mut seen = std::collections::HashSet::new();
        for c in chain.iter() {
            for &b in &c.blocks {
                assert!(seen.insert(b), "{b} owned twice");
            }
        }
        for &b in chain.residual_blocks() {
            assert!(seen.insert(b), "residual {b} also owned by a cluster");
        }
    }

    #[test]
    fn preds_succs_summaries() {
        let a = app(r#"app t; var x = 0; var y = 0;
            func main() {
                x = 5;
                for (var i = 0; i < 4; i = i + 1) { y = y + x; }
                x = y;
            }"#);
        let chain = decompose(&a);
        assert!(chain.len() >= 3);
        let mid = ClusterId(1);
        let preds = chain.preds_gen_use(mid);
        let succs = chain.succs_gen_use(mid);
        // x generated before the loop; y used after it.
        use crate::dataflow::DataItem;
        let x = VarIdByName::get(&a, "x");
        let y = VarIdByName::get(&a, "y");
        assert!(preds.gen.contains(&DataItem::Scalar(x)));
        assert!(succs.use_.contains(&DataItem::Scalar(y)));
        // Transfers into the loop cluster: it uses x (and i from init).
        let inbound = preds.transfers_to(&chain.cluster(mid).gen_use);
        assert!(inbound >= 1);
    }

    struct VarIdByName;
    impl VarIdByName {
        fn get(a: &Application, name: &str) -> crate::op::VarId {
            crate::op::VarId(
                a.vars()
                    .iter()
                    .position(|v| v.name.as_deref() == Some(name))
                    .unwrap() as u32,
            )
        }
    }

    #[test]
    fn prev_next_navigation() {
        let a = app(r#"app t; var g = 0;
            func main() { g = 1; while (g > 0) { g = g - 1; } g = 2; }"#);
        let chain = decompose(&a);
        assert!(chain.prev(ClusterId(0)).is_none());
        assert_eq!(chain.next(ClusterId(0)).unwrap().id, ClusterId(1));
        let last = ClusterId(chain.len() as u32 - 1);
        assert!(chain.next(last).is_none());
    }

    #[test]
    fn empty_main_is_empty_chain() {
        let a = app("app t; func main() { }");
        let chain = decompose(&a);
        assert!(chain.is_empty());
        assert_eq!(chain.len(), 0);
    }
}
