//! Whole-system evaluation of design points.
//!
//! "It is an important feature of our approach that all system
//! components are taken into consideration to estimate energy savings"
//! (§4): a partition changes not only the µP and ASIC energies but the
//! access patterns — and therefore the energies — of both caches and
//! the main memory. This module runs the full simulation stack for the
//! initial design and for any candidate partition, producing the
//! Table-1 metrics.
//!
//! * [`evaluate_initial`] is the one run of the initial design. It
//!   captures the reference trace while it simulates and returns the
//!   [`Baseline`]: metrics, run statistics and the [`ReplayEngine`]
//!   over the capture. [`crate::engine::Session::baseline`] pools its
//!   result; no other library code builds a replay engine.
//! * [`evaluate_partition_with`] evaluates a candidate. Its µP and
//!   cache side is a [`ReplayEngine::verify`] when a capture exists and
//!   a direct simulation ([`run_iss`]) otherwise, bit-identical either
//!   way; [`evaluate_partition`] is the uncached reference, always
//!   direct.
//!
//! A partitioned run executes the *same* machine program with the
//! cluster blocks marked as hardware: the µP pays nothing for them, the
//! caches never see their references, the ASIC core's energy comes from
//! the bound schedule's switching-activity estimate, and the µP↔ASIC
//! communication of §3.3 is charged per invocation (the *additional*
//! transfers a/d of the shared-memory scheme: the µP's deposits and
//! read-backs; the ASIC-side accesses b/c "occur in any case" and are
//! already part of the ASIC's memory traffic).

use std::collections::HashSet;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};

use corepart_cache::hierarchy::{Hierarchy, MemEvent};
use corepart_ir::cluster::ClusterId;
use corepart_ir::op::BlockId;
use corepart_isa::isa::InstClass;
use corepart_isa::profile::CoreUtilization;
use corepart_isa::simulator::{MemSink, RunStats, SimConfig, SimError, Simulator};
use corepart_isa::trace::TraceBuilder;
use corepart_isa::DecodeTable;
use corepart_sched::binding::{bind, merge_trios, schedule_cluster_with, utilization};
use corepart_sched::cache::{ScheduleCache, ScheduledCluster};
use corepart_sched::datapath::{estimate_datapath, DatapathEstimate};
use corepart_sched::dfg::BlockDfgs;
use corepart_sched::energy::{estimate_energy, gate_level_energy, AsicEnergy};
use corepart_sched::list::SchedError;
use corepart_tech::energy::MemoryEnergyModel;
use corepart_tech::resource::ResourceSet;
use corepart_tech::units::{Cycles, Energy};

use crate::bus_transfer::transfer_counts;
use crate::engine::Baseline;
use crate::error::CorepartError;
use crate::parallel::resolve_threads;
use crate::partition::{schedule_key, ScheduleKey};
use crate::prepare::PreparedApp;
use crate::system::{DesignMetrics, SystemConfig};
use crate::verify::{ReplayEngine, VerifiedRun};

/// A candidate hardware/software partition: which clusters move to the
/// ASIC core and which designer resource set implements it.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Clusters mapped to the ASIC core.
    pub clusters: Vec<ClusterId>,
    /// The resource set of the ASIC datapath.
    pub set: ResourceSet,
}

impl Partition {
    /// A single-cluster partition.
    pub fn single(cluster: ClusterId, set: ResourceSet) -> Self {
        Partition {
            clusters: vec![cluster],
            set,
        }
    }
}

/// Everything measured about one evaluated partition.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionDetail {
    /// The Table-1 row.
    pub metrics: DesignMetrics,
    /// ASIC-core utilization `U_R^core`.
    pub u_r: f64,
    /// GEQ-weighted variant (ablation A1).
    pub u_r_weighted: f64,
    /// µP-core utilization `U_µP^core` while executing these clusters
    /// in the initial design (the per-cluster gate value).
    pub u_up: f64,
    /// Datapath hardware breakdown.
    pub datapath: DatapathEstimate,
    /// ASIC energy detail (active/idle).
    pub asic: AsicEnergy,
    /// Total µP↔ASIC communication words.
    pub comm_words: u64,
    /// The quick Fig.-1-line-11 estimate (for estimate-vs-gate-level
    /// comparisons).
    pub quick_estimate: Energy,
}

pub(crate) struct HierarchySink<'a>(pub(crate) &'a mut Hierarchy);

impl MemSink for HierarchySink<'_> {
    fn ifetch(&mut self, addr: u32) {
        self.0.ifetch(addr);
    }
    fn read(&mut self, addr: u32) {
        self.0.dread(addr);
    }
    fn write(&mut self, addr: u32) {
        self.0.dwrite(addr);
    }
    fn ifetch_run_hits(&mut self, addr: u32, count: u32) -> bool {
        self.0.ifetch_run_hits(addr, count)
    }
}

/// A fresh (cold) cache hierarchy for `config`'s caches, process and
/// main memory.
pub(crate) fn fresh_hierarchy(config: &SystemConfig) -> Hierarchy {
    Hierarchy::new(
        config.icache.clone(),
        config.dcache.clone(),
        &config.process,
        config.memory_bytes,
    )
}

/// References per chunk of a two-thread direct simulation's streamed
/// reference stream. A run that emits fewer never starts the helper
/// thread: its whole stream is applied on the caller's thread at the
/// end.
pub const STREAM_CHUNK_EVENTS: usize = 8 * 1024;

/// Full chunks the simulator may run ahead of the helper thread before
/// it blocks (the back-pressure bound on buffered references).
const CHUNKS_AHEAD: usize = 4;

/// The consumer end of a direct simulation: the cache hierarchy and,
/// while capturing, the reference-trace builder.
struct Tail {
    hierarchy: Hierarchy,
    builder: Option<TraceBuilder>,
}

impl Tail {
    /// Applies one chunk of references, in stream order, to the
    /// hierarchy and to the builder. The two share no state, so each
    /// takes the chunk in its own pass: two tight loops measured faster
    /// than one that alternates between them.
    fn apply(&mut self, chunk: &[MemEvent]) {
        for &event in chunk {
            self.hierarchy.apply(event);
        }
        if let Some(builder) = &mut self.builder {
            for &event in chunk {
                match event {
                    MemEvent::IFetch(addr) => builder.ifetch(addr),
                    MemEvent::Read(addr) => builder.read(addr),
                    MemEvent::Write(addr) => builder.write(addr),
                }
            }
        }
    }
}

/// The single-thread path: the simulator drives the tail directly.
impl MemSink for Tail {
    #[inline]
    fn ifetch(&mut self, addr: u32) {
        self.hierarchy.ifetch(addr);
        if let Some(builder) = &mut self.builder {
            builder.ifetch(addr);
        }
    }
    #[inline]
    fn read(&mut self, addr: u32) {
        self.hierarchy.dread(addr);
        if let Some(builder) = &mut self.builder {
            builder.read(addr);
        }
    }
    #[inline]
    fn write(&mut self, addr: u32) {
        self.hierarchy.dwrite(addr);
        if let Some(builder) = &mut self.builder {
            builder.write(addr);
        }
    }
}

/// The helper thread's end of the stream: full chunks go out over a
/// bounded channel, emptied buffers come back for reuse.
struct Helper<'scope> {
    full: SyncSender<Vec<MemEvent>>,
    empty: Receiver<Vec<MemEvent>>,
    handle: ScopedJoinHandle<'scope, Tail>,
}

/// The two-thread path's [`MemSink`]: buffers references into chunks
/// of [`STREAM_CHUNK_EVENTS`]. The first full chunk starts a helper
/// thread in `scope` that owns the tail from then on and applies every
/// chunk in order; a run that never fills a chunk applies its stream
/// on the caller's thread in [`ChunkSink::finish`]. Either way the
/// tail sees the same references in the same order.
struct ChunkSink<'scope, 'env> {
    chunk: Vec<MemEvent>,
    scope: &'scope Scope<'scope, 'env>,
    /// The tail, until the helper takes it.
    inline: Option<Tail>,
    helper: Option<Helper<'scope>>,
}

impl ChunkSink<'_, '_> {
    #[inline]
    fn push(&mut self, event: MemEvent) {
        self.chunk.push(event);
        if self.chunk.len() == STREAM_CHUNK_EVENTS {
            self.send_full();
        }
    }

    #[cold]
    fn send_full(&mut self) {
        let helper = match &self.helper {
            Some(helper) => helper,
            None => {
                let tail = self.inline.take().expect("the sink owns its tail");
                self.helper.insert(spawn_helper(self.scope, tail))
            }
        };
        let next = helper
            .empty
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(STREAM_CHUNK_EVENTS));
        let full = std::mem::replace(&mut self.chunk, next);
        // Fails only when the helper panicked; joining it re-raises that.
        let _ = helper.full.send(full);
    }

    /// Applies the last, partial chunk and hands back the tail, joining
    /// the helper thread when one was started.
    fn finish(mut self) -> Tail {
        let Some(helper) = self.helper.take() else {
            let mut tail = self.inline.take().expect("the sink owns its tail");
            tail.apply(&self.chunk);
            return tail;
        };
        if !self.chunk.is_empty() {
            let _ = helper.full.send(std::mem::take(&mut self.chunk));
        }
        drop(helper.full);
        helper
            .handle
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

/// Starts the helper thread: it applies every chunk it receives, in
/// order, returns each emptied buffer, and hands the tail back once
/// the sender is dropped.
fn spawn_helper<'scope>(scope: &'scope Scope<'scope, '_>, mut tail: Tail) -> Helper<'scope> {
    let (full, full_rx) = mpsc::sync_channel::<Vec<MemEvent>>(CHUNKS_AHEAD);
    let (empty_tx, empty) = mpsc::channel();
    let handle = scope.spawn(move || {
        for mut chunk in full_rx {
            tail.apply(&chunk);
            chunk.clear();
            // The simulator may have finished already; the buffer is
            // then simply dropped.
            let _ = empty_tx.send(chunk);
        }
        tail
    });
    Helper {
        full,
        empty,
        handle,
    }
}

impl MemSink for ChunkSink<'_, '_> {
    #[inline]
    fn ifetch(&mut self, addr: u32) {
        self.push(MemEvent::IFetch(addr));
    }
    #[inline]
    fn read(&mut self, addr: u32) {
        self.push(MemEvent::Read(addr));
    }
    #[inline]
    fn write(&mut self, addr: u32) {
        self.push(MemEvent::Write(addr));
    }
}

/// The one direct simulation: a fresh simulator with the workload
/// arrays initialized runs `sim_config` on the caller's thread and
/// streams its references through a fresh cache hierarchy (and into
/// `builder`, when capturing). With `threads >= 2` the references go
/// through a [`ChunkSink`], so a run that fills a chunk moves the
/// hierarchy and the builder onto a helper thread; otherwise the
/// simulator drives them directly.
fn simulate(
    prepared: &PreparedApp,
    config: &SystemConfig,
    sim_config: &SimConfig,
    threads: usize,
    builder: Option<TraceBuilder>,
) -> Result<(RunStats, Tail, Arc<DecodeTable>), CorepartError> {
    let mut sim =
        Simulator::with_energy_table(&prepared.prog, &prepared.app, config.energy_table.clone());
    for (name, data) in &prepared.workload.arrays {
        sim.set_array(name, data)?;
    }
    let mut tail = Tail {
        hierarchy: fresh_hierarchy(config),
        builder,
    };
    let (stats, tail) = if threads < 2 {
        (sim.run(sim_config, &mut tail)?, tail)
    } else {
        std::thread::scope(|scope| {
            let mut sink = ChunkSink {
                chunk: Vec::with_capacity(STREAM_CHUNK_EVENTS),
                scope,
                inline: Some(tail),
                helper: None,
            };
            // On an error the sink drops here, which ends the helper's
            // stream; the scope joins the helper before returning.
            let stats = sim.run(sim_config, &mut sink)?;
            Ok::<_, SimError>((stats, sink.finish()))
        })?
    };
    Ok((stats, tail, Arc::clone(sim.decode_table())))
}

/// Direct simulation of one partitioned run: a fresh simulator with
/// the workload arrays re-initialized, streaming through a fresh cache
/// hierarchy. The reference every replay oracle compares against —
/// trace replay ([`crate::verify`]) must reproduce it bit for bit —
/// and the fallback verification when no trace was captured.
///
/// # Errors
///
/// Simulation failures ([`CorepartError::Sim`]) or bad workload arrays.
pub fn run_iss(
    prepared: &PreparedApp,
    config: &SystemConfig,
    hw_blocks: &HashSet<BlockId>,
) -> Result<VerifiedRun, CorepartError> {
    let sim_config = SimConfig::partitioned(config.max_cycles, hw_blocks.clone());
    let (stats, tail, _) = simulate(
        prepared,
        config,
        &sim_config,
        resolve_threads(config.threads),
        None,
    )?;
    Ok(VerifiedRun {
        stats,
        report: tail.hierarchy.report(),
    })
}

/// Evaluates the initial (all-software) design — the one simulation of
/// it every search starts from — on `threads` workers, and returns the
/// [`Baseline`]: Table 1's "I" row, the per-block run statistics
/// (reused by pre-selection and `U_µP`), and the [`ReplayEngine`] that
/// verifies candidates from this run's reference trace.
///
/// The capture rides on the same simulation: the reference stream —
/// one fetch per executed instruction plus every load/store address —
/// is appended to the trace columns (allocating at most
/// [`SystemConfig::trace_cap_bytes`]) from the references the cache
/// hierarchy receives, and the engine replays it over the decode table
/// the simulation ran on. `replay` is `None` when the cap is 0 or the
/// columns would have outgrown it; verification then simulates
/// directly ([`run_iss`]). Metrics and statistics depend neither on
/// the capture nor on `threads`.
///
/// # Errors
///
/// Simulation failures ([`CorepartError::Sim`]) or bad workload arrays.
pub fn evaluate_initial(
    prepared: &PreparedApp,
    config: &SystemConfig,
    threads: usize,
) -> Result<Baseline, CorepartError> {
    let (stats, tail, table) = simulate(
        prepared,
        config,
        &SimConfig::initial(config.max_cycles),
        threads,
        Some(TraceBuilder::new(config.trace_cap_bytes)),
    )?;
    let replay = tail
        .builder
        .and_then(|builder| builder.finish(stats.return_value))
        .map(|trace| Arc::new(ReplayEngine::from_capture(table, trace)));
    let report = tail.hierarchy.report();
    let stall_energy = config.energy_table.stall_per_cycle() * report.stall_cycles.count();
    let metrics = DesignMetrics {
        icache: report.icache_energy,
        dcache: report.dcache_energy,
        mem: report.mem_energy,
        bus: Energy::ZERO,
        up_core: stats.energy + stall_energy,
        asic_core: None,
        up_cycles: stats.cycles + report.stall_cycles,
        asic_cycles: Cycles::ZERO,
        geq: corepart_tech::units::GateEq::ZERO,
        icache_miss_ratio: report.icache.miss_ratio(),
        dcache_miss_ratio: report.dcache.miss_ratio(),
    };
    Ok(Baseline {
        metrics,
        stats,
        replay,
    })
}

/// The blocks of `clusters`, in cluster order: the block list a
/// partition's datapath is scheduled over and, as a set, the
/// hardware-block set it is verified under.
pub(crate) fn cluster_blocks(
    prepared: &PreparedApp,
    clusters: impl IntoIterator<Item = ClusterId>,
) -> Vec<BlockId> {
    clusters
        .into_iter()
        .flat_map(|cid| prepared.chain.cluster(cid).blocks.iter().copied())
        .collect()
}

/// The schedule trio of `partition` over its `blocks` — list schedule,
/// binding, utilization (Fig. 1 lines 8–10) — served from and feeding
/// `cache` when one is given, computed afresh otherwise.
///
/// A single-cluster trio is scheduled block by block. A multi-cluster
/// trio is always [`merge_trios`] of its clusters' single-cluster
/// trios, in cluster order. Each part is read from `cache` with
/// [`MemoCache::peek`](corepart_sched::MemoCache::peek), which counts
/// neither a hit nor a miss; a part that is absent or still in flight
/// is computed in place and not inserted. So the value does not depend
/// on what the cache holds, and the counters move exactly as if the
/// merged key had been scheduled whole. Blocks are scheduled from the
/// `dfgs` memo, so each block's DFG is built once however many sets
/// it is scheduled on.
///
/// # Errors
///
/// [`CorepartError::Sched`] when the resource set cannot execute the
/// blocks.
pub(crate) fn schedule_trio(
    prepared: &PreparedApp,
    config: &SystemConfig,
    partition: &Partition,
    blocks: &[BlockId],
    cache: Option<&ScheduleCache<ScheduleKey>>,
    dfgs: &BlockDfgs,
) -> Result<Arc<ScheduledCluster>, CorepartError> {
    let trio = |blocks: &[BlockId]| -> Result<ScheduledCluster, SchedError> {
        let sched =
            schedule_cluster_with(blocks, &partition.set, &config.library, |b| dfgs.get(b))?;
        let binding = bind(&sched, &config.library);
        let util = utilization(&sched, &binding, &prepared.profile, &config.library);
        Ok(ScheduledCluster {
            sched,
            binding,
            util,
        })
    };
    let compute = || match partition.clusters.as_slice() {
        [] | [_] => trio(blocks),
        clusters => {
            // One part key, its cluster list rewritten per part.
            let mut key = schedule_key(partition);
            let parts = clusters.iter().map(|&cid| {
                key.0.clear();
                key.0.push(cid);
                match cache.and_then(|cache| cache.peek(&key)) {
                    Some(part) => part,
                    None => trio(&prepared.chain.cluster(cid).blocks).map(Arc::new),
                }
            });
            merge_trios(parts, &prepared.profile, &config.library)
        }
    };
    Ok(match cache {
        Some(cache) => cache.get_or_compute(schedule_key(partition), compute)?,
        None => Arc::new(compute()?),
    })
}

/// Evaluates a candidate partition end to end.
///
/// `initial_stats` is the initial run (for `U_µP`): the
/// [`Baseline::stats`] of [`evaluate_initial`].
///
/// # Errors
///
/// [`CorepartError::Sched`] when the resource set cannot execute the
/// cluster (the candidate is infeasible), or simulation failures.
pub fn evaluate_partition(
    prepared: &PreparedApp,
    partition: &Partition,
    initial_stats: &RunStats,
    config: &SystemConfig,
) -> Result<PartitionDetail, CorepartError> {
    evaluate_partition_with(prepared, partition, initial_stats, config, None, None)
}

/// [`evaluate_partition`] with the two memoization layers injected:
/// `schedules` serves the schedule/bind/utilization trio from the
/// estimate phase's [`ScheduleCache`], and `replay` serves the µP +
/// cache-hierarchy side by replaying the captured reference trace
/// ([`ReplayEngine`]) instead of re-running the instruction-set
/// simulator. Either layer may be absent; the computed
/// [`PartitionDetail`] is bit-identical in all four combinations.
///
/// # Errors
///
/// [`CorepartError::Sched`] when the resource set cannot execute the
/// cluster (the candidate is infeasible), or simulation failures.
pub fn evaluate_partition_with(
    prepared: &PreparedApp,
    partition: &Partition,
    initial_stats: &RunStats,
    config: &SystemConfig,
    schedules: Option<&ScheduleCache<ScheduleKey>>,
    replay: Option<&ReplayEngine>,
) -> Result<PartitionDetail, CorepartError> {
    if partition.clusters.is_empty() {
        return Err(CorepartError::Config {
            message: "a partition needs at least one cluster".into(),
        });
    }
    let hw_blocks = cluster_blocks(prepared, partition.clusters.iter().copied());
    let hw_set: HashSet<BlockId> = hw_blocks.iter().copied().collect();

    // --- ASIC side: schedule, bind, utilization, energy (Fig. 1
    // lines 8-11 and 14-15). ---
    let dfgs = BlockDfgs::new(&prepared.app);
    let synth = schedule_trio(prepared, config, partition, &hw_blocks, schedules, &dfgs)?;
    let ScheduledCluster {
        sched,
        binding,
        util,
    } = &*synth;
    let datapath = estimate_datapath(sched, binding, &config.library);
    let asic = gate_level_energy(
        &prepared.app,
        sched,
        binding,
        util,
        &prepared.profile,
        &config.library,
        &config.process,
    );
    let quick_estimate = estimate_energy(util, binding, &config.library);

    // --- µP + caches side: replay the reference trace when a capture
    // is available, simulate directly otherwise (bit-identical). ---
    let run = match replay {
        Some(engine) => engine.verify(config, &hw_set)?,
        None => Arc::new(run_iss(prepared, config, &hw_set)?),
    };
    let VerifiedRun { stats, report } = &*run;

    // --- Communication (§3.3): µP deposits inputs, reads back
    // outputs, once per invocation, with synergy between co-resident
    // clusters. ---
    let on_asic: HashSet<ClusterId> = partition.clusters.iter().copied().collect();
    let mut words_in_total = 0u64;
    let mut words_out_total = 0u64;
    let mut invocations_total = 0u64;
    for &cid in &partition.clusters {
        let cluster = prepared.chain.cluster(cid);
        let mut others = on_asic.clone();
        others.remove(&cid);
        let counts = transfer_counts(&prepared.chain, cid, &others);
        let inv =
            corepart_ir::cluster::cluster_invocations(&prepared.app, &prepared.profile, cluster);
        words_in_total += counts.words_in * inv;
        words_out_total += counts.words_out * inv;
        invocations_total += inv;
    }
    let comm_words = words_in_total + words_out_total;

    let mem_model = MemoryEnergyModel::analytical(&config.process, config.memory_bytes);
    // µP deposits (writes) and read-backs (reads) over the bus into the
    // shared memory.
    let comm_bus = config.bus.write() * words_in_total + config.bus.read() * words_out_total;
    let comm_mem =
        mem_model.write_word() * words_in_total + mem_model.read_word() * words_out_total;
    let comm_up_energy = config.energy_table.base(InstClass::Store, 1) * words_in_total
        + config.energy_table.base(InstClass::Load, 1) * words_out_total;
    let comm_cycles = Cycles::new(
        comm_words * config.comm_cycles_per_word + invocations_total * config.comm_handshake_cycles,
    );

    // --- The ASIC's own shared-memory traffic crosses the bus too. ---
    let asic_mem =
        mem_model.read_word() * stats.hw_loads + mem_model.write_word() * stats.hw_stores;
    let asic_bus = config.bus.read() * stats.hw_loads + config.bus.write() * stats.hw_stores;

    let stall_energy = config.energy_table.stall_per_cycle() * report.stall_cycles.count();
    // Per-cluster comparison value (what the Fig.-1-line-9 gate used).
    let u_up = CoreUtilization::for_blocks(initial_stats, &hw_blocks).mean();

    let metrics = DesignMetrics {
        icache: report.icache_energy,
        dcache: report.dcache_energy,
        mem: report.mem_energy + comm_mem + asic_mem,
        bus: comm_bus + asic_bus,
        up_core: stats.energy + stall_energy + comm_up_energy,
        asic_core: Some(asic.total()),
        up_cycles: stats.cycles + report.stall_cycles + comm_cycles,
        asic_cycles: asic.cycles,
        geq: datapath.total(),
        icache_miss_ratio: report.icache.miss_ratio(),
        dcache_miss_ratio: report.dcache.miss_ratio(),
    };

    Ok(PartitionDetail {
        metrics,
        u_r: util.u_r,
        u_r_weighted: util.u_r_weighted,
        u_up,
        datapath,
        asic,
        comm_words,
        quick_estimate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::{prepare, Workload};
    use corepart_ir::lower::lower;
    use corepart_ir::parser::parse;

    fn prepared(src: &str, workload: Workload) -> PreparedApp {
        let app = lower(&parse(src).unwrap()).unwrap();
        prepare(app, workload, &SystemConfig::new()).unwrap()
    }

    const DSP: &str = r#"app dsp; var x[128]; var y[128]; var s = 0;
        func main() {
            for (var i = 1; i < 127; i = i + 1) {
                y[i] = (x[i - 1] + 2 * x[i] + x[i + 1]) >> 2;
            }
            for (var j = 0; j < 128; j = j + 1) { s = s + y[j]; }
            return s;
        }"#;

    fn dsp_workload() -> Workload {
        Workload::from_arrays([("x", (0..128).map(|i| (i * 13) % 97).collect::<Vec<i64>>())])
    }

    #[test]
    fn initial_metrics_sensible() {
        let p = prepared(DSP, dsp_workload());
        let config = SystemConfig::new();
        let Baseline {
            metrics: m, stats, ..
        } = evaluate_initial(&p, &config, 1).unwrap();
        assert!(m.up_core.joules() > 0.0);
        assert!(m.icache.joules() > 0.0);
        assert!(m.dcache.joules() > 0.0);
        assert!(m.asic_core.is_none());
        assert_eq!(m.asic_cycles, Cycles::ZERO);
        assert!(m.up_cycles.count() >= stats.cycles.count());
        // The µP core should dominate system energy in the initial
        // design (as in every Table-1 "I" row).
        assert!(m.up_core.joules() > m.dcache.joules());
    }

    #[test]
    fn partition_moves_energy_to_asic() {
        let p = prepared(DSP, dsp_workload());
        let config = SystemConfig::new();
        let Baseline {
            metrics: initial,
            stats,
            ..
        } = evaluate_initial(&p, &config, 1).unwrap();
        let hot = p.chain.iter().find(|c| c.is_loop()).unwrap().id;
        let part = Partition::single(hot, config.resource_sets[2].clone());
        let d = evaluate_partition(&p, &part, &stats, &config).unwrap();

        assert!(d.metrics.asic_core.is_some());
        assert!(d.metrics.asic_cycles.count() > 0);
        assert!(d.metrics.geq.cells() > 0);
        // The µP sheds the hot loop.
        assert!(d.metrics.up_cycles < initial.up_cycles);
        assert!(d.metrics.up_core < initial.up_core);
        // Whole-system saving for this DSP kernel.
        let saving = d.metrics.energy_saving_vs(&initial).unwrap();
        assert!(saving > 0.0, "expected savings, got {saving:.1}%");
        // Utilization comparison available.
        assert!(d.u_r > 0.0 && d.u_up > 0.0);
        assert!(d.comm_words > 0);
    }

    #[test]
    fn icache_energy_collapses_when_hot_loop_leaves() {
        // The `trick`-row effect: i-cache energy drops by orders of
        // magnitude when the µP no longer fetches the hot loop.
        let p = prepared(DSP, dsp_workload());
        let config = SystemConfig::new();
        let Baseline {
            metrics: initial,
            stats,
            ..
        } = evaluate_initial(&p, &config, 1).unwrap();
        let hot = p.chain.iter().find(|c| c.is_loop()).unwrap().id;
        let part = Partition::single(hot, config.resource_sets[2].clone());
        let d = evaluate_partition(&p, &part, &stats, &config).unwrap();
        assert!(
            d.metrics.icache.joules() < initial.icache.joules() * 0.8,
            "i-cache {} vs initial {}",
            d.metrics.icache,
            initial.icache
        );
    }

    #[test]
    fn infeasible_set_is_sched_error() {
        let p = prepared(
            "app t; var g = 100; func main() { while (g > 1) { g = g / 3; } }",
            Workload::empty(),
        );
        let config = SystemConfig::new();
        let stats = evaluate_initial(&p, &config, 1).unwrap().stats;
        let hot = p.chain.iter().find(|c| c.is_loop()).unwrap().id;
        // s-scalar has no divider.
        let part = Partition::single(hot, config.resource_sets[1].clone());
        let err = evaluate_partition(&p, &part, &stats, &config).unwrap_err();
        assert!(matches!(err, CorepartError::Sched(_)));
    }

    #[test]
    fn empty_partition_rejected() {
        let p = prepared(DSP, dsp_workload());
        let config = SystemConfig::new();
        let stats = evaluate_initial(&p, &config, 1).unwrap().stats;
        let part = Partition {
            clusters: vec![],
            set: config.resource_sets[0].clone(),
        };
        assert!(matches!(
            evaluate_partition(&p, &part, &stats, &config),
            Err(CorepartError::Config { .. })
        ));
    }

    #[test]
    fn two_cluster_partition_shares_one_datapath() {
        let p = prepared(DSP, dsp_workload());
        let config = SystemConfig::new();
        let stats = evaluate_initial(&p, &config, 1).unwrap().stats;
        let loops: Vec<ClusterId> = p
            .chain
            .iter()
            .filter(|c| c.is_loop())
            .map(|c| c.id)
            .collect();
        assert!(loops.len() >= 2);
        let single = evaluate_partition(
            &p,
            &Partition::single(loops[0], config.resource_sets[2].clone()),
            &stats,
            &config,
        )
        .unwrap();
        let double = evaluate_partition(
            &p,
            &Partition {
                clusters: loops.clone(),
                set: config.resource_sets[2].clone(),
            },
            &stats,
            &config,
        )
        .unwrap();
        // Shared datapath: two clusters cost far less than 2x one
        // cluster's hardware.
        assert!(double.metrics.geq.cells() < 2 * single.metrics.geq.cells());
        // And more ASIC cycles get executed.
        assert!(double.metrics.asic_cycles > single.metrics.asic_cycles);
    }
}
