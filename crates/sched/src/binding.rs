//! Resource binding and the utilization rate `U_R^core` — the Fig. 4
//! algorithm (`Computing U_R^core and GEQ_RS`).
//!
//! A whole cluster (all its basic blocks) is scheduled onto one
//! candidate datapath. The binding walks the control steps, maintaining
//! the paper's global resource list (`Glob_RS_List[cs][rs][is]`): which
//! instance of which resource type is busy in which control step. Type
//! selection follows `Sorted_RS_List` (smallest usable resource first,
//! preferring already-instantiated types — footnote 13); here that rule
//! is applied during list scheduling, and the binding assigns concrete
//! instance indices (lowest free instance first, which concentrates work
//! on low-numbered instances exactly like the paper's search order).
//!
//! The utilization computation is Fig. 4 lines 19–24: each instance's
//! busy cycles are `#ex_cycs × #ex_times` (operation latency times how
//! often its control step executes, known from profiling), normalized by
//! `N_cyc^c`, the total cycles of the whole cluster.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use corepart_ir::cdfg::Application;
use corepart_ir::interp::ExecProfile;
use corepart_ir::op::BlockId;
use corepart_tech::resource::{ResourceKind, ResourceLibrary, ResourceSet};
use corepart_tech::units::GateEq;

use crate::cache::ScheduledCluster;
use crate::dfg::BlockDfg;
use crate::list::{list_schedule, BlockSchedule, SchedError};

/// The complete schedule of a cluster on one candidate resource set.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSchedule {
    /// The cluster's blocks, in chain order.
    pub blocks: Vec<BlockId>,
    /// Per-block schedules (same order as `blocks`).
    pub schedules: Vec<BlockSchedule>,
    /// The resource set scheduled against.
    pub set_name: String,
}

impl ClusterSchedule {
    /// Static schedule length summed over blocks (one pass through every
    /// block once).
    pub fn static_length(&self) -> u64 {
        self.schedules.iter().map(|s| s.length).sum()
    }
}

/// Schedules every block of a cluster on `set`.
///
/// # Errors
///
/// [`SchedError::NoResource`] when some operation cannot execute on any
/// resource of the set — the candidate set is infeasible for this
/// cluster.
pub fn schedule_cluster(
    app: &Application,
    blocks: &[BlockId],
    set: &ResourceSet,
    lib: &ResourceLibrary,
) -> Result<ClusterSchedule, SchedError> {
    schedule_cluster_with(blocks, set, lib, |b| BlockDfg::build(app, b))
}

/// [`schedule_cluster`] over DFGs the caller supplies: `dfg(b)` is the
/// DFG of block `b`, built or borrowed. A search schedules every
/// cluster on every candidate set, and a block's DFG does not depend
/// on the set, so it borrows them from a
/// [`BlockDfgs`](crate::dfg::BlockDfgs) memo. Blocks are drawn in
/// order; the first one the set cannot execute ends the walk.
///
/// # Errors
///
/// As [`schedule_cluster`].
pub fn schedule_cluster_with<D: Borrow<BlockDfg>>(
    blocks: &[BlockId],
    set: &ResourceSet,
    lib: &ResourceLibrary,
    mut dfg: impl FnMut(BlockId) -> D,
) -> Result<ClusterSchedule, SchedError> {
    let mut schedules = Vec::with_capacity(blocks.len());
    for &b in blocks {
        schedules.push(list_schedule(dfg(b).borrow(), set, lib)?);
    }
    Ok(ClusterSchedule {
        blocks: blocks.to_vec(),
        schedules,
        set_name: set.name().to_owned(),
    })
}

/// The instance binding of a cluster schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    /// Instantiated resources: `#(rs_π)` per kind (Fig. 4 line 18's
    /// counts).
    pub instances: BTreeMap<ResourceKind, u32>,
    /// Instance index of every operation, parallel to each block's
    /// instruction list.
    pub assignment: HashMap<BlockId, Vec<u32>>,
    /// `GEQ_RS = Σ #(rs_π) × GEQ(rs_π)` (Fig. 4 lines 16–18).
    pub geq_rs: GateEq,
}

impl Binding {
    /// Total instantiated instances across kinds.
    pub fn total_instances(&self) -> u32 {
        self.instances.values().sum()
    }
}

/// Binds the scheduled operations to concrete resource instances and
/// computes `GEQ_RS`.
pub fn bind(sched: &ClusterSchedule, lib: &ResourceLibrary) -> Binding {
    let mut instances: BTreeMap<ResourceKind, u32> = BTreeMap::new();
    let mut assignment: HashMap<BlockId, Vec<u32>> = HashMap::new();

    for (bi, block_sched) in sched.schedules.iter().enumerate() {
        let block = sched.blocks[bi];
        // Per-kind, per-instance busy intervals within this block's
        // schedule; instances are shared across blocks (one datapath),
        // but occupancy conflicts only exist within one block's control
        // steps (blocks execute sequentially).
        let mut busy: BTreeMap<ResourceKind, Vec<Vec<(u64, u64)>>> = BTreeMap::new();
        let mut assigned = Vec::with_capacity(block_sched.slots.len());
        for slot in &block_sched.slots {
            let lanes = busy.entry(slot.kind).or_default();
            let interval = (slot.step, slot.step + slot.latency);
            // Lowest free instance (the paper's search through the
            // sorted list settles on the first available entry).
            let mut chosen = None;
            for (i, lane) in lanes.iter().enumerate() {
                let overlaps = lane.iter().any(|&(s, e)| interval.0 < e && s < interval.1);
                if !overlaps {
                    chosen = Some(i);
                    break;
                }
            }
            let idx = match chosen {
                Some(i) => i,
                None => {
                    lanes.push(Vec::new());
                    lanes.len() - 1
                }
            };
            lanes[idx].push(interval);
            assigned.push(idx as u32);
            let count = instances.entry(slot.kind).or_insert(0);
            *count = (*count).max(idx as u32 + 1);
        }
        assignment.insert(block, assigned);
    }

    Binding {
        geq_rs: geq_of(&instances, lib),
        instances,
        assignment,
    }
}

/// `GEQ_RS = Σ #(rs_π) × GEQ(rs_π)` over the instantiated kinds.
fn geq_of(instances: &BTreeMap<ResourceKind, u32>, lib: &ResourceLibrary) -> GateEq {
    instances
        .iter()
        .map(|(&k, &n)| lib.expect_spec(k).geq() * u64::from(n))
        .sum()
}

/// The trio of a multi-cluster datapath, put together from its
/// clusters' single-cluster trios in cluster order: the block lists and
/// block schedules concatenated, each kind's instance count the max
/// over the parts, the assignments united, `GEQ_RS` recomputed and
/// [`utilization`] rerun on the merged result.
///
/// This equals [`schedule_cluster`] + [`bind`] + [`utilization`] over
/// the concatenated blocks, bit for bit: every block is list-scheduled
/// on its own, the binding restarts its busy lanes at every block, and
/// kinds couple across blocks only through the instance max. A failed
/// part's error is returned in place of the trio — the first in cluster
/// order, which is exactly the error `schedule_cluster` reports for the
/// first failing block. Parts after it are never drawn, so the caller
/// may compute them lazily.
///
/// # Errors
///
/// The first part's [`SchedError`], in part order.
pub fn merge_trios(
    parts: impl IntoIterator<Item = Result<Arc<ScheduledCluster>, SchedError>>,
    profile: &ExecProfile,
    lib: &ResourceLibrary,
) -> Result<ScheduledCluster, SchedError> {
    let parts = parts.into_iter().collect::<Result<Vec<_>, _>>()?;
    // Exact capacities: the merged trio weighs what `schedule_cluster`
    // would have allocated (`HeapBytes` reads capacities).
    let len = parts.iter().map(|p| p.sched.blocks.len()).sum();
    let mut blocks = Vec::with_capacity(len);
    let mut schedules = Vec::with_capacity(len);
    let mut instances: BTreeMap<ResourceKind, u32> = BTreeMap::new();
    let mut assignment: HashMap<BlockId, Vec<u32>> = HashMap::with_capacity(len);
    for part in &parts {
        blocks.extend_from_slice(&part.sched.blocks);
        schedules.extend_from_slice(&part.sched.schedules);
        for (&kind, &n) in &part.binding.instances {
            let count = instances.entry(kind).or_insert(0);
            *count = (*count).max(n);
        }
        assignment.extend(part.binding.assignment.iter().map(|(&b, a)| (b, a.clone())));
    }
    let sched = ClusterSchedule {
        blocks,
        schedules,
        set_name: parts
            .first()
            .map_or_else(String::new, |p| p.sched.set_name.clone()),
    };
    let binding = Binding {
        geq_rs: geq_of(&instances, lib),
        instances,
        assignment,
    };
    let util = utilization(&sched, &binding, profile, lib);
    Ok(ScheduledCluster {
        sched,
        binding,
        util,
    })
}

/// The utilization result of Fig. 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Utilization {
    /// `U_R^core` — uniform mean over instances (Equation 4; the
    /// paper's default, §3.4 closing note).
    pub u_r: f64,
    /// GEQ-weighted variant (the rejected alternative, kept for the
    /// ablation).
    pub u_r_weighted: f64,
    /// `N_cyc^c` — cycles to execute the whole cluster
    /// (schedule length × execution count, summed over blocks).
    pub n_cyc: u64,
    /// Busy cycles of each instance: `util[rs_i][is]`.
    pub busy: BTreeMap<(ResourceKind, u32), u64>,
}

impl Utilization {
    /// Per-instance utilization `u_rs[is]` in [0, 1].
    pub fn instance_util(&self, kind: ResourceKind, instance: u32) -> f64 {
        if self.n_cyc == 0 {
            0.0
        } else {
            (self.busy.get(&(kind, instance)).copied().unwrap_or(0) as f64 / self.n_cyc as f64)
                .min(1.0)
        }
    }
}

/// Computes `U_R^core` for a bound cluster schedule using profiled
/// execution counts (`#ex_times`, footnote 14).
pub fn utilization(
    sched: &ClusterSchedule,
    binding: &Binding,
    profile: &ExecProfile,
    lib: &ResourceLibrary,
) -> Utilization {
    let mut busy: BTreeMap<(ResourceKind, u32), u64> = BTreeMap::new();
    // Every instantiated instance appears, even if some block never
    // uses it.
    for (&kind, &n) in &binding.instances {
        for is in 0..n {
            busy.insert((kind, is), 0);
        }
    }

    let mut n_cyc: u64 = 0;
    for (bi, block_sched) in sched.schedules.iter().enumerate() {
        let block = sched.blocks[bi];
        let ex_times = profile.block_counts[block.0 as usize];
        n_cyc += block_sched.length * ex_times;
        let assigned = &binding.assignment[&block];
        for (slot, &inst) in block_sched.slots.iter().zip(assigned) {
            // #ex_cycs × #ex_times (Fig. 4 line 23 + footnote 14).
            *busy.get_mut(&(slot.kind, inst)).expect("instance") += slot.latency * ex_times;
        }
    }

    let (mut sum_u, mut sum_wu, mut sum_w) = (0.0f64, 0.0f64, 0.0f64);
    let count = busy.len().max(1);
    for (&(kind, _), &b) in &busy {
        let u = if n_cyc == 0 {
            0.0
        } else {
            (b as f64 / n_cyc as f64).min(1.0)
        };
        let w = lib.expect_spec(kind).geq().cells() as f64;
        sum_u += u;
        sum_wu += u * w;
        sum_w += w;
    }
    Utilization {
        u_r: sum_u / count as f64,
        u_r_weighted: if sum_w == 0.0 { 0.0 } else { sum_wu / sum_w },
        n_cyc,
        busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::HeapBytes;
    use corepart_ir::interp::Interpreter;
    use corepart_ir::lower::lower;
    use corepart_ir::parser::parse;
    use corepart_tech::resource::OpClass;

    fn setup(src: &str) -> (Application, ExecProfile) {
        let app = lower(&parse(src).unwrap()).unwrap();
        let profile = Interpreter::new(&app).run(10_000_000).unwrap();
        (app, profile)
    }

    fn loop_blocks(app: &Application) -> Vec<BlockId> {
        app.structure()
            .iter()
            .find(|n| n.is_loop())
            .expect("loop")
            .blocks()
            .to_vec()
    }

    #[test]
    fn schedules_and_binds_a_kernel() {
        let (app, profile) = setup(
            r#"app t; var x[64]; var y[64];
            func main() {
                for (var i = 1; i < 63; i = i + 1) {
                    y[i] = (x[i - 1] + 2 * x[i] + x[i + 1]) >> 2;
                }
            }"#,
        );
        let lib = ResourceLibrary::cmos6();
        let set = &ResourceSet::default_family()[2]; // m-dsp
        let blocks = loop_blocks(&app);
        let cs = schedule_cluster(&app, &blocks, set, &lib).unwrap();
        assert!(cs.static_length() > 0);
        let b = bind(&cs, &lib);
        assert!(b.total_instances() >= 1);
        assert!(b.geq_rs.cells() > 0);
        // Bound instances never exceed the designer's set.
        for (&k, &n) in &b.instances {
            assert!(
                n <= set.count(k),
                "{k}: bound {n} > allowed {}",
                set.count(k)
            );
        }
        let u = utilization(&cs, &b, &profile, &lib);
        assert!(u.u_r > 0.0 && u.u_r <= 1.0, "U_R = {}", u.u_r);
        assert!(u.n_cyc > 0);
    }

    #[test]
    fn geq_only_counts_used_instances() {
        // A cluster with no multiplies must not pay for the set's
        // multiplier (the synthesized core only instantiates what the
        // binding used).
        let (app, _) = setup(
            "app t; var a[16]; func main() { for (var i = 0; i < 16; i = i + 1) { a[i] = a[i] + 1; } }",
        );
        let lib = ResourceLibrary::cmos6();
        let set = &ResourceSet::default_family()[2]; // m-dsp incl. multiplier
        let blocks = loop_blocks(&app);
        let cs = schedule_cluster(&app, &blocks, set, &lib).unwrap();
        let b = bind(&cs, &lib);
        assert_eq!(b.instances.get(&ResourceKind::Multiplier), None);
        assert!(b.geq_rs < set.total_geq(&lib));
    }

    #[test]
    fn utilization_higher_on_smaller_set() {
        // The same kernel on a narrower datapath keeps its resources
        // busier — the core effect the partitioner exploits.
        let (app, profile) = setup(
            r#"app t; var x[64]; var y[64];
            func main() {
                for (var i = 0; i < 64; i = i + 1) {
                    y[i] = x[i] * 3 + (x[i] >> 1) + 7;
                }
            }"#,
        );
        let lib = ResourceLibrary::cmos6();
        let family = ResourceSet::default_family();
        let blocks = loop_blocks(&app);
        let u_of = |set: &ResourceSet| {
            let cs = schedule_cluster(&app, &blocks, set, &lib).unwrap();
            let b = bind(&cs, &lib);
            utilization(&cs, &b, &profile, &lib).u_r
        };
        let mid = u_of(&family[2]); // m-dsp
        let large = u_of(&family[4]); // xl-dsp
                                      // Unused instances are never instantiated (the binding only
                                      // pays for what it uses), so the difference is bounded; the
                                      // tight set must not be materially worse than the widest one.
        assert!(
            mid >= large - 0.05,
            "smaller set should utilize comparably or better: {mid} vs {large}"
        );
    }

    #[test]
    fn unexecuted_cluster_has_zero_utilization() {
        let (app, profile) =
            setup("app t; var g = 0; func main() { if (g > 0) { while (g > 1) { g = g - 1; } } }");
        let lib = ResourceLibrary::cmos6();
        let set = &ResourceSet::default_family()[1];
        // The inner while never runs (g == 0).
        let inner: Vec<BlockId> = app
            .structure()
            .iter()
            .flat_map(|n| n.children())
            .filter(|n| n.is_loop())
            .flat_map(|n| n.blocks().iter().copied())
            .collect();
        assert!(!inner.is_empty());
        let cs = schedule_cluster(&app, &inner, set, &lib).unwrap();
        let b = bind(&cs, &lib);
        let u = utilization(&cs, &b, &profile, &lib);
        assert_eq!(u.u_r, 0.0);
        assert_eq!(u.n_cyc, 0);
    }

    #[test]
    fn weighted_and_uniform_differ_on_mixed_datapath() {
        let (app, profile) = setup(
            r#"app t; var x[32]; var y[32];
            func main() {
                for (var i = 0; i < 32; i = i + 1) {
                    y[i] = x[i] * x[i] + i;
                }
            }"#,
        );
        let lib = ResourceLibrary::cmos6();
        let set = &ResourceSet::default_family()[2];
        let blocks = loop_blocks(&app);
        let cs = schedule_cluster(&app, &blocks, set, &lib).unwrap();
        let b = bind(&cs, &lib);
        let u = utilization(&cs, &b, &profile, &lib);
        // Both defined and in range; they generally differ.
        assert!(u.u_r_weighted > 0.0 && u.u_r_weighted <= 1.0);
        assert!(u.u_r > 0.0);
    }

    #[test]
    fn instance_util_accessor() {
        let (app, profile) = setup(
            "app t; var a[8]; func main() { for (var i = 0; i < 8; i = i + 1) { a[i] = a[i] + i; } }",
        );
        let lib = ResourceLibrary::cmos6();
        let set = &ResourceSet::default_family()[1];
        let blocks = loop_blocks(&app);
        let cs = schedule_cluster(&app, &blocks, set, &lib).unwrap();
        let b = bind(&cs, &lib);
        let u = utilization(&cs, &b, &profile, &lib);
        for &(k, is) in u.busy.keys() {
            let v = u.instance_util(k, is);
            assert!((0.0..=1.0).contains(&v));
        }
        assert_eq!(u.instance_util(ResourceKind::Divider, 9), 0.0);
    }

    /// The trio of `blocks` as one schedule, the reference
    /// [`merge_trios`] must reproduce.
    fn whole_trio(
        app: &Application,
        blocks: &[BlockId],
        set: &ResourceSet,
        profile: &ExecProfile,
        lib: &ResourceLibrary,
    ) -> Result<ScheduledCluster, SchedError> {
        let sched = schedule_cluster(app, blocks, set, lib)?;
        let binding = bind(&sched, lib);
        let util = utilization(&sched, &binding, profile, lib);
        Ok(ScheduledCluster {
            sched,
            binding,
            util,
        })
    }

    /// The block lists of the top-level structure nodes that own
    /// blocks: the clusters of a flat application.
    fn top_level_parts(app: &Application) -> Vec<Vec<BlockId>> {
        app.structure()
            .iter()
            .map(|n| n.blocks().to_vec())
            .filter(|blocks| !blocks.is_empty())
            .collect()
    }

    #[test]
    fn merged_trios_equal_the_whole_block_trio() {
        let (app, profile) = setup(
            r#"app t; var x[32]; var y[32]; var s = 0;
            func main() {
                for (var i = 1; i < 31; i = i + 1) {
                    y[i] = x[i - 1] * 3 + (x[i + 1] >> 1);
                }
                s = y[3] + 1;
                for (var j = 0; j < 32; j = j + 1) { s = s + y[j] * y[j]; }
                return s;
            }"#,
        );
        let lib = ResourceLibrary::cmos6();
        let parts = top_level_parts(&app);
        assert!(parts.len() >= 3, "{parts:?}");
        let all = parts.concat();
        let mut feasible = 0;
        for set in &ResourceSet::default_family() {
            let whole = whole_trio(&app, &all, set, &profile, &lib);
            let merged = merge_trios(
                parts
                    .iter()
                    .map(|blocks| whole_trio(&app, blocks, set, &profile, &lib).map(Arc::new)),
                &profile,
                &lib,
            );
            assert_eq!(merged, whole, "set {}", set.name());
            if let (Ok(merged), Ok(whole)) = (merged, whole) {
                assert_eq!(
                    merged.heap_bytes(),
                    whole.heap_bytes(),
                    "set {}",
                    set.name()
                );
                feasible += 1;
            }
        }
        assert!(feasible >= 2, "only {feasible} sets schedule the app");
    }

    #[test]
    fn merged_error_is_the_first_failing_parts() {
        // The first loop only adds; the second divides, the third
        // multiplies. On a set with neither divider nor multiplier the
        // second part fails first, as its blocks do in the whole list.
        let (app, profile) = setup(
            r#"app t; var a[8]; var g = 90; var h = 3;
            func main() {
                for (var i = 0; i < 8; i = i + 1) { a[i] = a[i] + i; }
                while (g > 1) { g = g / 2; }
                while (h < 50) { h = h * h; }
                return g + h;
            }"#,
        );
        let lib = ResourceLibrary::cmos6();
        let set = ResourceSet::builder("no-div-no-mul")
            .with(ResourceKind::Alu, 1)
            .with(ResourceKind::MemPort, 1)
            .build();
        let parts: Vec<Vec<BlockId>> = app
            .structure()
            .iter()
            .filter(|n| n.is_loop())
            .map(|n| n.blocks().to_vec())
            .collect();
        assert_eq!(parts.len(), 3);
        assert!(whole_trio(&app, &parts[0], &set, &profile, &lib).is_ok());

        let whole = schedule_cluster(&app, &parts.concat(), &set, &lib).unwrap_err();
        assert!(
            matches!(
                whole,
                SchedError::NoResource {
                    class: OpClass::Divide,
                    ..
                }
            ),
            "{whole:?}"
        );
        let mut drawn = 0;
        let merged = merge_trios(
            parts.iter().map(|blocks| {
                drawn += 1;
                whole_trio(&app, blocks, &set, &profile, &lib).map(Arc::new)
            }),
            &profile,
            &lib,
        )
        .unwrap_err();
        assert_eq!(merged, whole);
        assert_eq!(drawn, 2, "parts after the first failure are never drawn");
    }

    #[test]
    fn infeasible_set_propagates_error() {
        let (app, _) = setup("app t; var g = 9; func main() { while (g > 1) { g = g / 2; } }");
        let lib = ResourceLibrary::cmos6();
        let set = ResourceSet::builder("no-div")
            .with(ResourceKind::Alu, 1)
            .with(ResourceKind::MemPort, 1)
            .build();
        let blocks = loop_blocks(&app);
        assert!(schedule_cluster(&app, &blocks, &set, &lib).is_err());
    }
}
