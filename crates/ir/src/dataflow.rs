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

use std::collections::BTreeSet;
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

    /// Adds `other`'s items to both sets in place (how `C_pred` and
    /// `C_succ` accumulate their clusters).
    pub fn union_with(&mut self, other: &GenUse) {
        self.gen.extend(other.gen.iter().copied());
        self.use_.extend(other.use_.iter().copied());
    }
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

/// A slot of a dense index that holds nothing.
const ABSENT: u32 = u32::MAX;
/// A region block not yet given its place in the visiting order.
const UNORDERED: u32 = u32::MAX - 1;

/// [`region_gen_use`] against an already computed [`ControlFlow`] of
/// `app`.
///
/// The scalars the region mentions get a dense index, and each block
/// one row of bits over it. `use[R]` is a forward must-analysis:
/// `killed_in[b]`, the scalars written on *every* path from a region
/// entry to `b`, is the word-wise intersection of the predecessors'
/// `killed_out` (empty at entries), and `killed_out[b] = killed_in[b]
/// ∪ defs[b]`. Starting from "everything killed", the fixed point is
/// the greatest one, whatever the visiting order. A scalar read in `b`
/// before `b` writes it is in `use[R]` unless `killed_in[b]` holds it.
/// Arrays are monolithic: a load always exposes the array (a store
/// kills no element it can name), a store generates it.
///
/// `gen[R]` over-approximates cheaply and soundly for the transfer
/// estimate: every item the region defines is generated. A value
/// recomputed later inside the region still existed at some point; the
/// paper's estimate is itself a static over-approximation.
pub(crate) fn region_gen_use_in(
    app: &Application,
    cfg: &ControlFlow,
    blocks: &[BlockId],
) -> GenUse {
    // Region-local block index: the reverse postorder first, then the
    // region blocks unreachable from the entry (defensive), each once.
    let mut slot = vec![ABSENT; cfg.preds.len()];
    for &b in blocks {
        slot[b.0 as usize] = UNORDERED;
    }
    let mut order: Vec<BlockId> = Vec::with_capacity(blocks.len());
    for &b in cfg.rpo.iter().chain(blocks) {
        let s = &mut slot[b.0 as usize];
        if *s == UNORDERED {
            *s = order.len() as u32;
            order.push(b);
        }
    }
    if order.is_empty() {
        return GenUse::default();
    }

    // Dense index of the region's scalars.
    let mut index = vec![ABSENT; app.vars().len()];
    let mut scalars: Vec<VarId> = Vec::new();
    let mut intern = |v: VarId| {
        let i = &mut index[v.0 as usize];
        if *i == ABSENT {
            *i = scalars.len() as u32;
            scalars.push(v);
        }
    };
    for &b in &order {
        let block = app.block(b);
        for inst in &block.insts {
            inst.for_each_use(&mut intern);
            inst.def().into_iter().for_each(&mut intern);
        }
        block.term.use_var().into_iter().for_each(&mut intern);
    }
    let words = scalars.len().div_ceil(64);
    let bit = |i: u32| (i as usize / 64, 1u64 << (i % 64));

    // Block-local sets: each block's scalar defs as a row of bits, its
    // upward-exposed scalar reads as a list of indices. Array items and
    // every definition go straight into the result.
    let mut gen = BTreeSet::new();
    let mut use_ = BTreeSet::new();
    let mut defs = vec![0u64; order.len() * words];
    let mut exposed: Vec<u32> = Vec::new();
    let mut exposed_end: Vec<usize> = Vec::with_capacity(order.len());
    for (r, &b) in order.iter().enumerate() {
        let block = app.block(b);
        let row = &mut defs[r * words..(r + 1) * words];
        let mut read = |v: VarId, row: &[u64]| {
            let i = index[v.0 as usize];
            let (w, m) = bit(i);
            if row[w] & m == 0 {
                exposed.push(i);
            }
        };
        for inst in &block.insts {
            inst.for_each_use(|v| read(v, row));
            if let Some(a) = inst.array_use() {
                use_.insert(DataItem::Array(a));
            }
            if let Some(d) = inst.def() {
                let (w, m) = bit(index[d.0 as usize]);
                row[w] |= m;
                gen.insert(DataItem::Scalar(d));
            }
            if let Some(a) = inst.array_def() {
                gen.insert(DataItem::Array(a));
            }
        }
        if let Some(u) = block.term.use_var() {
            read(u, row);
        }
        exposed_end.push(exposed.len());
    }

    // Region-internal predecessors. The application entry, a block with
    // no predecessor and a block with one outside the region are region
    // entries.
    let mut preds: Vec<u32> = Vec::new();
    let mut preds_end: Vec<usize> = Vec::with_capacity(order.len());
    let mut entry = vec![false; order.len()];
    for (r, &b) in order.iter().enumerate() {
        let all = &cfg.preds[b.0 as usize];
        entry[r] =
            b == app.entry() || all.is_empty() || all.iter().any(|p| slot[p.0 as usize] == ABSENT);
        if !entry[r] {
            preds.extend(all.iter().map(|p| slot[p.0 as usize]));
        }
        preds_end.push(preds.len());
    }

    // The fixed point. The pass that changes nothing leaves every
    // block's final `killed_in` behind for the `use[R]` pass.
    let mut killed_in = vec![0u64; order.len() * words];
    let mut killed_out = vec![!0u64; order.len() * words];
    let mut changed = true;
    while changed {
        changed = false;
        let mut pred_start = 0;
        for r in 0..order.len() {
            let rows = r * words..(r + 1) * words;
            let kin = &mut killed_in[rows.clone()];
            if !entry[r] {
                kin.fill(!0);
                for &p in &preds[pred_start..preds_end[r]] {
                    let p = p as usize * words;
                    for (k, out) in kin.iter_mut().zip(&killed_out[p..p + words]) {
                        *k &= out;
                    }
                }
            }
            pred_start = preds_end[r];
            for ((out, k), d) in killed_out[rows.clone()]
                .iter_mut()
                .zip(&*kin)
                .zip(&defs[rows])
            {
                if *out != k | d {
                    *out = k | d;
                    changed = true;
                }
            }
        }
    }

    let mut exposed_start = 0;
    for (r, &end) in exposed_end.iter().enumerate() {
        for &i in &exposed[exposed_start..end] {
            let (w, m) = bit(i);
            if killed_in[r * words + w] & m == 0 {
                use_.insert(DataItem::Scalar(scalars[i as usize]));
            }
        }
        exposed_start = end;
    }

    GenUse { gen, use_ }
}

/// The set-based analysis the bit-set one replaced, kept as the
/// specification that the unit tests and the conformance harness's
/// `gen-use` oracle check [`region_gen_use`] against (`conform`
/// feature only). Not part of the supported API surface.
#[cfg(any(test, feature = "conform"))]
pub mod reference {
    use std::collections::{BTreeSet, HashMap, HashSet};

    use super::{ControlFlow, DataItem, GenUse};
    use crate::cdfg::Application;
    use crate::op::{BlockId, VarId};

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

    fn scalar(d: &DataItem) -> Option<VarId> {
        match d {
            DataItem::Scalar(v) => Some(*v),
            DataItem::Array(_) => None,
        }
    }

    /// [`super::region_gen_use`], computed over `BTreeSet`s: a fresh
    /// intersection per predecessor per pass, `killed_in` derived again
    /// by the `use[R]` pass.
    pub fn region_gen_use(app: &Application, blocks: &[BlockId]) -> GenUse {
        let cfg = ControlFlow::of(app);
        let region: HashSet<BlockId> = blocks.iter().copied().collect();
        if region.is_empty() {
            return GenUse::default();
        }
        let preds_all = &cfg.preds;
        let locals: HashMap<BlockId, BlockLocal> =
            region.iter().map(|&b| (b, block_local(app, b))).collect();
        let is_entry = |b: BlockId| {
            b == app.entry()
                || preds_all[b.0 as usize].iter().any(|p| !region.contains(p))
                || preds_all[b.0 as usize].is_empty()
        };
        let all_scalars: BTreeSet<VarId> = locals
            .values()
            .flat_map(|l| l.upward_uses.iter().chain(l.defs.iter()).filter_map(scalar))
            .collect();
        let mut killed_out: HashMap<BlockId, BTreeSet<VarId>> =
            region.iter().map(|&b| (b, all_scalars.clone())).collect();
        let mut order: Vec<BlockId> = cfg
            .rpo
            .iter()
            .copied()
            .filter(|b| region.contains(b))
            .collect();
        for &b in &region {
            if !order.contains(&b) {
                order.push(b);
            }
        }
        let killed_in = |b: BlockId, killed_out: &HashMap<BlockId, BTreeSet<VarId>>| {
            if is_entry(b) {
                return BTreeSet::new();
            }
            let mut it = preds_all[b.0 as usize]
                .iter()
                .filter(|p| region.contains(p));
            let Some(first) = it.next() else {
                return BTreeSet::new();
            };
            let mut acc = killed_out[first].clone();
            for p in it {
                acc = acc.intersection(&killed_out[p]).copied().collect();
            }
            acc
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                let mut out = killed_in(b, &killed_out);
                out.extend(locals[&b].defs.iter().filter_map(scalar));
                if out != killed_out[&b] {
                    killed_out.insert(b, out);
                    changed = true;
                }
            }
        }

        let mut use_ = BTreeSet::new();
        for &b in &order {
            let kin = killed_in(b, &killed_out);
            for item in &locals[&b].upward_uses {
                if scalar(item).is_none_or(|v| !kin.contains(&v)) {
                    use_.insert(*item);
                }
            }
        }
        let gen = locals
            .values()
            .flat_map(|l| l.defs.iter().copied())
            .collect();
        GenUse { gen, use_ }
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

    /// [`region_gen_use`], asserted equal to the set-based reference.
    fn pinned(a: &Application, blocks: &[BlockId]) -> GenUse {
        let gu = region_gen_use(a, blocks);
        assert_eq!(
            gu,
            reference::region_gen_use(a, blocks),
            "region {blocks:?}"
        );
        gu
    }

    fn loop_blocks(a: &Application) -> &[BlockId] {
        a.structure().iter().find(|n| n.is_loop()).unwrap().blocks()
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
        a.union_with(&b);
        assert_eq!(a.gen.len(), 1);
        assert_eq!(a.use_.len(), 1);
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

    /// Regions mentioning 2`n` + 6 scalars (each `o = o + v{k}` lowers
    /// through a temporary), on both sides of every word boundary of the
    /// dense index up to a sixth word (64, 128, 192, 256 and 320
    /// scalars), and one whose `v*` alone fill six words: a loop whose
    /// body writes every `v*` but those with `k % 3 == 1` on one branch
    /// and every `v*` on the other, then reads them all. Only those stay
    /// exposed. Three is prime to the 64-bit word, so `v*` one word
    /// apart never share their exposure, and a word read as another
    /// shows.
    #[test]
    fn multi_word_regions_match_the_reference() {
        for n in [
            28, 29, 30, 60, 61, 62, 92, 93, 94, 124, 125, 126, 156, 157, 158, 400,
        ] {
            let exposed = |k: usize| k % 3 == 1;
            let mut src = String::from("app t; var c = 0; var o = 0;");
            for k in 0..n {
                src += &format!(" var v{k} = {k};");
            }
            src += " func main() { for (var i = 0; i < 2; i = i + 1) { if (c > 0) {";
            for k in (0..n).filter(|&k| !exposed(k)) {
                src += &format!(" v{k} = i;");
            }
            src += " } else {";
            for k in 0..n {
                src += &format!(" v{k} = c;");
            }
            src += " }";
            for k in 0..n {
                src += &format!(" o = o + v{k};");
            }
            src += " } }";
            let a = app(&src);
            let gu = pinned(&a, loop_blocks(&a));
            for k in 0..n {
                let v = DataItem::Scalar(named_var(&a, &format!("v{k}")));
                assert_eq!(gu.use_.contains(&v), exposed(k), "n = {n}, v{k}");
                assert!(gu.gen.contains(&v));
            }
            pinned(&a, &all_blocks(&a));
        }
    }

    /// Blocks after a `return` are unreachable from the entry, so the
    /// analysis orders them after the reverse postorder.
    #[test]
    fn unreachable_blocks_match_the_reference() {
        for (body, exposed) in [("", true), ("g = 2;", false)] {
            let a = app(&format!(
                "app t; var g = 1; var o = 0; \
                 func main() {{ o = 1; return; {body} while (g > 0) {{ g = g - 1; }} o = g; }}"
            ));
            let reachable = a.reverse_postorder();
            let dead: Vec<BlockId> = all_blocks(&a)
                .into_iter()
                .filter(|b| !reachable.contains(b))
                .collect();
            assert!(dead.len() > 2, "the loop after `return` is unreachable");
            let gu = pinned(&a, &dead);
            let g = DataItem::Scalar(named_var(&a, "g"));
            assert_eq!(gu.use_.contains(&g), exposed, "body `{body}`");
            // Reachable and unreachable blocks in one region, given in
            // reverse order.
            let mut all = all_blocks(&a);
            all.reverse();
            pinned(&a, &all);
        }
    }

    /// A loop body that writes `g` on one branch only leaves `g`
    /// exposed at the read after the join; `h`, written on both, is
    /// killed there.
    #[test]
    fn one_branch_kill_in_a_loop_matches_the_reference() {
        let a = app(
            "app t; var c = 0; var g = 1; var h = 1; var o = 0; func main() { \
             for (var i = 0; i < 4; i = i + 1) { \
             if (c > i) { g = i; h = i; } else { h = c; } o = o + g + h; } }",
        );
        let gu = pinned(&a, loop_blocks(&a));
        assert!(gu.use_.contains(&DataItem::Scalar(named_var(&a, "g"))));
        assert!(!gu.use_.contains(&DataItem::Scalar(named_var(&a, "h"))));
        pinned(&a, &all_blocks(&a));
    }
}
