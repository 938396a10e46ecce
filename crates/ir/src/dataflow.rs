//! `gen[·]` / `use[·]` dataflow analysis over block regions.
//!
//! The paper's bus-transfer estimation (§3.3, Fig. 3) counts
//! `|gen[C_pred] ∩ use[c_i]|` and `|gen[c_i] ∩ use[C_succ]|`, with
//! `gen`/`use` "as defined in [Aho/Sethi/Ullman]" (footnote 8). This
//! module computes those sets for an arbitrary region (set of basic
//! blocks) of an [`Application`]:
//!
//! * `use[R]` — data items that may be read in `R` before any definition
//!   inside `R` (upward-exposed across the region's internal control
//!   flow, computed to a fixed point).
//! * `gen[R]` — data items defined in `R` that may reach the region's
//!   exits.
//!
//! Scalars are tracked through the region's control flow; arrays are
//! treated as monolithic items (a load exposes the array, a store
//! generates it) because element-wise disambiguation is neither needed
//! by the paper's estimate nor decidable statically.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

use crate::cdfg::Application;
use crate::op::{ArrayId, BlockId, VarId};

/// A unit of data exchanged between clusters: a scalar variable or a
/// whole array.
///
/// Arrays already live in the shared memory (Fig. 2 a), so moving a
/// cluster to the ASIC core transfers a *reference* (one word), while a
/// scalar transfers its value (one word). Either way one item costs one
/// bus transfer, matching the paper's set-cardinality counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DataItem {
    /// A scalar variable.
    Scalar(VarId),
    /// A whole array (transferred by reference).
    Array(ArrayId),
}

impl DataItem {
    /// Number of bus words one transfer of this item costs.
    pub fn words(self) -> u64 {
        1
    }
}

impl fmt::Display for DataItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataItem::Scalar(v) => write!(f, "{v}"),
            DataItem::Array(a) => write!(f, "&{a}"),
        }
    }
}

/// The `gen`/`use` summary of a region.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GenUse {
    /// Items defined in the region that may reach its exits.
    pub gen: BTreeSet<DataItem>,
    /// Items that may be read before being defined in the region.
    pub use_: BTreeSet<DataItem>,
}

impl GenUse {
    /// `|self.gen ∩ other.use_|` — the transfer count between a
    /// producing and a consuming region (Fig. 3 steps 1/3).
    pub fn transfers_to(&self, consumer: &GenUse) -> u64 {
        self.gen
            .intersection(&consumer.use_)
            .map(|i| i.words())
            .sum()
    }

    /// Set union of two summaries (used to combine `C_pred`/`C_succ`).
    pub fn union(&self, other: &GenUse) -> GenUse {
        GenUse {
            gen: self.gen.union(&other.gen).copied().collect(),
            use_: self.use_.union(&other.use_).copied().collect(),
        }
    }
}

/// Per-block local sets: upward-exposed uses and definitions.
#[derive(Debug, Clone, Default)]
struct BlockLocal {
    /// Scalars read before written within the block (plus arrays
    /// loaded).
    upward_uses: BTreeSet<DataItem>,
    /// Scalars written (plus arrays stored).
    defs: BTreeSet<DataItem>,
}

fn block_local(app: &Application, b: BlockId) -> BlockLocal {
    let mut loc = BlockLocal::default();
    let mut written: HashSet<VarId> = HashSet::new();
    let block = app.block(b);
    for inst in &block.insts {
        for u in inst.uses() {
            if !written.contains(&u) {
                loc.upward_uses.insert(DataItem::Scalar(u));
            }
        }
        if let Some(a) = inst.array_use() {
            loc.upward_uses.insert(DataItem::Array(a));
        }
        if let Some(d) = inst.def() {
            written.insert(d);
            loc.defs.insert(DataItem::Scalar(d));
        }
        if let Some(a) = inst.array_def() {
            loc.defs.insert(DataItem::Array(a));
        }
    }
    if let Some(u) = block.term.use_var() {
        if !written.contains(&u) {
            loc.upward_uses.insert(DataItem::Scalar(u));
        }
    }
    loc
}

/// The whole-application control flow a region analysis reads: every
/// block's predecessors and the reverse postorder from the entry.
/// Computed once per application, it serves any number of regions
/// ([`crate::cluster::decompose`] analyses every cluster against one).
#[derive(Debug)]
pub(crate) struct ControlFlow {
    preds: Vec<Vec<BlockId>>,
    rpo: Vec<BlockId>,
}

impl ControlFlow {
    /// The control flow of `app`.
    pub(crate) fn of(app: &Application) -> Self {
        ControlFlow {
            preds: app.predecessors(),
            rpo: app.reverse_postorder(),
        }
    }
}

/// Computes the `gen`/`use` summary of the region formed by `blocks`.
///
/// The region is analysed with its own internal control flow; entries
/// are the region blocks with a predecessor outside the region (or the
/// application entry), exits are region blocks with a successor outside
/// (or a `ret` terminator).
///
/// Duplicate block ids are ignored. An empty region yields empty sets.
pub fn region_gen_use(app: &Application, blocks: &[BlockId]) -> GenUse {
    region_gen_use_in(app, &ControlFlow::of(app), blocks)
}

/// [`region_gen_use`] against an already computed [`ControlFlow`] of
/// `app`.
pub(crate) fn region_gen_use_in(
    app: &Application,
    cfg: &ControlFlow,
    blocks: &[BlockId],
) -> GenUse {
    let region: HashSet<BlockId> = blocks.iter().copied().collect();
    if region.is_empty() {
        return GenUse::default();
    }
    let preds_all = &cfg.preds;
    let locals: HashMap<BlockId, BlockLocal> =
        region.iter().map(|&b| (b, block_local(app, b))).collect();

    // --- use[R]: forward "may be unwritten since region entry" ---
    // exposed_in[b] = true for scalars that may still carry a value from
    // outside the region when b starts. We track the complement:
    // `killed_in[b]` = scalars definitely written on *every* path from a
    // region entry to b. A use of v contributes to use[R] when v is not
    // definitely killed. Arrays: loads always contribute (stores never
    // kill, element granularity unknown).
    let is_entry = |b: BlockId| {
        b == app.entry()
            || preds_all[b.0 as usize].iter().any(|p| !region.contains(p))
            || preds_all[b.0 as usize].is_empty()
    };

    // Iterate to a fixed point on killed-sets (must-analysis =>
    // intersection over predecessors; initialize to "everything killed"
    // except at entries).
    let all_scalars: BTreeSet<VarId> = locals
        .values()
        .flat_map(|l| {
            l.upward_uses
                .iter()
                .chain(l.defs.iter())
                .filter_map(|d| match d {
                    DataItem::Scalar(v) => Some(*v),
                    DataItem::Array(_) => None,
                })
        })
        .collect();

    let mut killed_out: HashMap<BlockId, BTreeSet<VarId>> =
        region.iter().map(|&b| (b, all_scalars.clone())).collect();
    let mut order_full: Vec<BlockId> = cfg
        .rpo
        .iter()
        .copied()
        .filter(|b| region.contains(b))
        .collect();
    // Include region blocks unreachable from the app entry (defensive).
    let mut ordered = vec![false; cfg.preds.len()];
    for &b in &order_full {
        ordered[b.0 as usize] = true;
    }
    for &b in &region {
        if !std::mem::replace(&mut ordered[b.0 as usize], true) {
            order_full.push(b);
        }
    }

    let block_defs = |b: BlockId| -> BTreeSet<VarId> {
        locals[&b]
            .defs
            .iter()
            .filter_map(|d| match d {
                DataItem::Scalar(v) => Some(*v),
                DataItem::Array(_) => None,
            })
            .collect()
    };

    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order_full {
            let killed_in: BTreeSet<VarId> = if is_entry(b) {
                BTreeSet::new()
            } else {
                let mut it = preds_all[b.0 as usize]
                    .iter()
                    .filter(|p| region.contains(p));
                match it.next() {
                    None => BTreeSet::new(),
                    Some(first) => {
                        let mut acc = killed_out[first].clone();
                        for p in it {
                            acc = acc.intersection(&killed_out[p]).copied().collect();
                        }
                        acc
                    }
                }
            };
            let mut out = killed_in.clone();
            out.extend(block_defs(b));
            if out != killed_out[&b] {
                killed_out.insert(b, out);
                changed = true;
            }
        }
    }

    let mut use_set: BTreeSet<DataItem> = BTreeSet::new();
    for &b in &order_full {
        let killed_in: BTreeSet<VarId> = if is_entry(b) {
            BTreeSet::new()
        } else {
            let mut it = preds_all[b.0 as usize]
                .iter()
                .filter(|p| region.contains(p));
            match it.next() {
                None => BTreeSet::new(),
                Some(first) => {
                    let mut acc = killed_out[first].clone();
                    for p in it {
                        acc = acc.intersection(&killed_out[p]).copied().collect();
                    }
                    acc
                }
            }
        };
        for item in &locals[&b].upward_uses {
            match item {
                DataItem::Scalar(v) => {
                    if !killed_in.contains(v) {
                        use_set.insert(*item);
                    }
                }
                DataItem::Array(_) => {
                    use_set.insert(*item);
                }
            }
        }
    }

    // --- gen[R]: definitions that may reach a region exit ---
    // A scalar def reaches the exit unless every path from the def to
    // every exit redefines it; we over-approximate cheaply and soundly
    // for the transfer estimate: every defined item is generated. (A
    // value recomputed later inside the region still existed at some
    // point; the paper's estimate is itself a static over-approximation.)
    let mut gen_set: BTreeSet<DataItem> = BTreeSet::new();
    for l in locals.values() {
        gen_set.extend(l.defs.iter().copied());
    }

    GenUse {
        gen: gen_set,
        use_: use_set,
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

    fn all_blocks(a: &Application) -> Vec<BlockId> {
        (0..a.blocks().len() as u32).map(BlockId).collect()
    }

    fn named_var(a: &Application, name: &str) -> VarId {
        VarId(
            a.vars()
                .iter()
                .position(|v| v.name.as_deref() == Some(name))
                .unwrap_or_else(|| panic!("no var `{name}`")) as u32,
        )
    }

    #[test]
    fn straight_line_use_before_def() {
        let a = app("app t; var g = 1; var h = 2; func main() { h = g + 1; g = 5; }");
        let gu = region_gen_use(&a, &all_blocks(&a));
        let g = named_var(&a, "g");
        let h = named_var(&a, "h");
        assert!(gu.use_.contains(&DataItem::Scalar(g)));
        // h is written before any read in main.
        assert!(!gu.use_.contains(&DataItem::Scalar(h)));
        assert!(gu.gen.contains(&DataItem::Scalar(g)));
        assert!(gu.gen.contains(&DataItem::Scalar(h)));
    }

    #[test]
    fn def_kills_following_use_in_block() {
        let a = app("app t; var g = 1; func main() { g = 2; var x = g + 1; }");
        let gu = region_gen_use(&a, &all_blocks(&a));
        let g = named_var(&a, "g");
        // g is defined first, so the later read is not upward-exposed.
        assert!(!gu.use_.contains(&DataItem::Scalar(g)));
    }

    #[test]
    fn loop_counter_is_region_internal() {
        let a = app(
            "app t; var acc = 0; func main() { for (var i = 0; i < 4; i = i + 1) { acc = acc + i; } }",
        );
        // Region = just the loop blocks (the loop structure node).
        let loop_node = a.structure().iter().find(|n| n.is_loop()).unwrap();
        let gu = region_gen_use(&a, loop_node.blocks());
        let i = named_var(&a, "i");
        let acc = named_var(&a, "acc");
        // `i` is initialized before the loop -> used by the region.
        assert!(gu.use_.contains(&DataItem::Scalar(i)));
        // `acc` read-modify-write -> both used and generated.
        assert!(gu.use_.contains(&DataItem::Scalar(acc)));
        assert!(gu.gen.contains(&DataItem::Scalar(acc)));
    }

    #[test]
    fn branch_partial_kill_still_exposed() {
        // g is only written on one branch before the read after the
        // join -> the read is still (may-)upward-exposed.
        let a = app(
            "app t; var g = 1; var c = 0; var o = 0; func main() { if (c > 0) { g = 2; } o = g; }",
        );
        let gu = region_gen_use(&a, &all_blocks(&a));
        let g = named_var(&a, "g");
        assert!(gu.use_.contains(&DataItem::Scalar(g)));
    }

    #[test]
    fn branch_full_kill_not_exposed() {
        let a = app(
            "app t; var g = 1; var c = 0; var o = 0; func main() { if (c > 0) { g = 2; } else { g = 3; } o = g; }",
        );
        // Restrict the region to blocks *after* initialization: use the
        // whole app here — g's read after the join is killed on both
        // paths, but the branch condition reads c first. The whole-app
        // region's entry is bb0 where c,g are defined... so compute on
        // all blocks: g must NOT be in use (both arms define it before
        // the join read, and bb0 has no reads).
        let gu = region_gen_use(&a, &all_blocks(&a));
        let g = named_var(&a, "g");
        assert!(!gu.use_.contains(&DataItem::Scalar(g)));
    }

    #[test]
    fn arrays_load_use_store_gen() {
        let a = app("app t; var x[4]; var y[4]; func main() { y[0] = x[0]; }");
        let gu = region_gen_use(&a, &all_blocks(&a));
        assert!(gu.use_.contains(&DataItem::Array(ArrayId(0))));
        assert!(gu.gen.contains(&DataItem::Array(ArrayId(1))));
        assert!(!gu.use_.contains(&DataItem::Array(ArrayId(1))));
        assert!(!gu.gen.contains(&DataItem::Array(ArrayId(0))));
    }

    #[test]
    fn transfers_to_counts_intersection() {
        let mut producer = GenUse::default();
        producer.gen.insert(DataItem::Scalar(VarId(0)));
        producer.gen.insert(DataItem::Scalar(VarId(1)));
        producer.gen.insert(DataItem::Array(ArrayId(0)));
        let mut consumer = GenUse::default();
        consumer.use_.insert(DataItem::Scalar(VarId(1)));
        consumer.use_.insert(DataItem::Array(ArrayId(0)));
        consumer.use_.insert(DataItem::Scalar(VarId(9)));
        assert_eq!(producer.transfers_to(&consumer), 2);
    }

    #[test]
    fn union_combines() {
        let mut a = GenUse::default();
        a.gen.insert(DataItem::Scalar(VarId(0)));
        let mut b = GenUse::default();
        b.use_.insert(DataItem::Scalar(VarId(1)));
        let u = a.union(&b);
        assert_eq!(u.gen.len(), 1);
        assert_eq!(u.use_.len(), 1);
    }

    #[test]
    fn empty_region_is_empty() {
        let a = app("app t; func main() { }");
        let gu = region_gen_use(&a, &[]);
        assert!(gu.gen.is_empty() && gu.use_.is_empty());
    }

    #[test]
    fn terminator_condition_counts_as_use() {
        let a = app("app t; var g = 1; func main() { while (g > 0) { g = g - 1; } }");
        let loop_node = a.structure().iter().find(|n| n.is_loop()).unwrap();
        let gu = region_gen_use(&a, loop_node.blocks());
        let g = named_var(&a, "g");
        assert!(gu.use_.contains(&DataItem::Scalar(g)));
    }
}
