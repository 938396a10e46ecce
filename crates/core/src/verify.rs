//! The trace-replay verification engine.
//!
//! Verification (Fig. 1 lines 14–15) is the expensive end of the
//! search: a full instruction-set simulation plus the cache hierarchy
//! per candidate. But [`SimConfig::hw_blocks`] changes *accounting*
//! only — every candidate executes the identical instruction stream —
//! so the engine simulates **once** per prepared application/workload
//! (capturing the reference trace during the initial-design
//! evaluation, [`crate::evaluate::evaluate_initial_captured`]) and
//! verifies each candidate by *replaying* that capture with the
//! candidate's hardware-block set applied at replay time: no
//! re-interpretation, no `set_array` re-initialization.
//!
//! The capture is held in one form: the stretch and address columns
//! that [`corepart_isa::TraceBuilder`] appends during the run are the
//! columns the kernel walks, so no replay decodes anything first and a
//! warm [`ReplayEngine`] holds one copy of its trace. Every replay —
//! one candidate or K — is one walk of the batch kernel
//! ([`TraceReplayer::replay_batch`]) with one cache [`Hierarchy`] per
//! lane; threading splits the K lanes into contiguous groups, each its
//! own uninterrupted walk. Every entry point checks the trace's
//! fingerprint first ([`ReferenceTrace::validate`]: once per
//! [`ReplayEngine`], on every call of the one-shot functions). Replay
//! reproduces direct simulation ([`crate::evaluate::run_iss`]):
//! [`RunStats`] and [`HierarchyReport`] **bit for bit**, the same
//! `f64` operations in the same order.
//!
//! Results are memoized per (trace fingerprint, hardware-block set) in
//! the same compute-once [`MemoCache`] the schedule trio uses —
//! distinct candidates that induce the same hardware-block set (e.g.
//! the same clusters under different resource sets) share one replay.
//!
//! When the capture was discarded (byte cap exceeded, or capture
//! disabled), there is no engine and callers fall back to direct
//! simulation — see [`SystemConfig::trace_cap_bytes`].

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use corepart_cache::hierarchy::Hierarchy;
use corepart_cache::HierarchyReport;
use corepart_ir::op::BlockId;
use corepart_isa::simulator::{RunStats, SimConfig, SimError};
use corepart_isa::trace::{ReferenceTrace, TraceReplayer};
use corepart_isa::DecodeTable;
use corepart_sched::cache::MemoCache;

use crate::evaluate::{fresh_hierarchy, HierarchySink};
use crate::parallel::par_map;
use crate::prepare::PreparedApp;
use crate::system::SystemConfig;

/// The product of one verified partitioned run — the µP-side
/// statistics plus the cache-hierarchy report, whether obtained by
/// direct simulation or by trace replay (bit-identical by
/// construction, pinned by `tests/determinism.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedRun {
    /// µP-core run statistics.
    pub stats: RunStats,
    /// I-cache/D-cache/memory report.
    pub report: HierarchyReport,
}

/// Replays `trace` once under `hw_blocks`, uncached: validates the
/// capture, builds the per-pc replay table, and streams the µP-side
/// references through a fresh cache hierarchy in a one-lane batch
/// walk.
///
/// This is the one-shot path ([`ReplayEngine`] memoizes it); it is
/// also what benchmarks and equivalence tests call directly. Its
/// reference is direct simulation,
/// [`crate::evaluate::run_iss`].
///
/// # Errors
///
/// [`SimError::CycleLimit`] exactly when the equivalent direct
/// simulation would hit it; [`SimError::TraceCorrupt`] when the trace
/// fails its fingerprint validation or walks fewer events than it
/// recorded (damaged or truncated capture); other [`SimError`]s
/// only on a trace that does not belong to `prepared`.
pub fn replay_run(
    prepared: &PreparedApp,
    config: &SystemConfig,
    trace: &ReferenceTrace,
    hw_blocks: &HashSet<BlockId>,
) -> Result<VerifiedRun, SimError> {
    trace.validate()?;
    let replayer = TraceReplayer::new(&prepared.prog, &prepared.app, &config.energy_table);
    replay_one(&replayer, trace, config, hw_blocks)
}

/// One candidate through the batch kernel: a walk of one lane.
fn replay_one(
    replayer: &TraceReplayer,
    trace: &ReferenceTrace,
    config: &SystemConfig,
    hw_blocks: &HashSet<BlockId>,
) -> Result<VerifiedRun, SimError> {
    let mut lanes = walk(replayer, trace, config, &[hw_blocks])?;
    lanes.pop().expect("one lane")
}

/// One uninterrupted batch walk of `trace`: a fresh cache
/// [`Hierarchy`] per candidate, per-candidate results in candidate
/// order, a trace-level failure as the top-level `Err`.
fn walk(
    replayer: &TraceReplayer,
    trace: &ReferenceTrace,
    config: &SystemConfig,
    candidates: &[&HashSet<BlockId>],
) -> Result<Vec<Result<VerifiedRun, SimError>>, SimError> {
    let sim_configs: Vec<SimConfig> = candidates
        .iter()
        .map(|hw| SimConfig::partitioned(config.max_cycles, (*hw).clone()))
        .collect();
    let mut hierarchies: Vec<Hierarchy> =
        candidates.iter().map(|_| fresh_hierarchy(config)).collect();
    let mut sinks: Vec<HierarchySink<'_>> = hierarchies.iter_mut().map(HierarchySink).collect();
    let lanes = replayer.replay_batch(trace, &sim_configs, &mut sinks)?;
    drop(sinks);
    Ok(lanes
        .into_iter()
        .zip(&hierarchies)
        .map(|(lane, hierarchy)| {
            lane.map(|stats| VerifiedRun {
                stats,
                report: hierarchy.report(),
            })
        })
        .collect())
}

/// Verifies `candidates` against the *already validated* trace on up to
/// `threads` workers. The candidates are cut into contiguous lane
/// groups of at most `⌈K / threads⌉` lanes; each group is one
/// uninterrupted [`walk`] with its own hierarchies, and the group
/// outputs are concatenated in group order, which is candidate order.
/// Every lane performs exactly its own operation sequence whatever
/// group it lands in, so the output is bit-identical for every
/// `threads` value.
///
/// Trace-level errors are lane-independent, so every group that
/// reaches the damage hits the identical one; the lowest group's `Err`
/// wins, which keeps the result deterministic across thread counts.
fn batch_with(
    replayer: &TraceReplayer,
    trace: &ReferenceTrace,
    config: &SystemConfig,
    candidates: &[&HashSet<BlockId>],
    threads: usize,
) -> Result<Vec<Result<VerifiedRun, SimError>>, SimError> {
    let lanes_per_group = candidates.len().div_ceil(threads.max(1)).max(1);
    let groups: Vec<&[&HashSet<BlockId>]> = candidates.chunks(lanes_per_group).collect();
    let outputs = par_map(&groups, groups.len(), |_, group| {
        walk(replayer, trace, config, group)
    });
    let mut results = Vec::with_capacity(candidates.len());
    for group in outputs {
        results.extend(group?);
    }
    Ok(results)
}

/// Replays `trace` once for K candidate hardware-block sets, uncached:
/// validates the capture, then verifies every candidate in
/// a single batched walk — the K-candidate generalization of
/// [`replay_run`], bit-identical to K independent direct simulations
/// (pinned by `tests/determinism.rs` and the conform differential).
///
/// # Errors
///
/// All-or-nothing: the first failing candidate's [`SimError`] (in
/// candidate order) fails the whole batch — a batch never returns
/// partial results. Trace-level damage ([`SimError::TraceCorrupt`])
/// poisons every candidate alike.
pub fn replay_batch(
    prepared: &PreparedApp,
    config: &SystemConfig,
    trace: &ReferenceTrace,
    candidates: &[HashSet<BlockId>],
) -> Result<Vec<VerifiedRun>, SimError> {
    replay_batch_with(prepared, config, trace, candidates, 1)
}

/// [`replay_batch`] spread over up to `threads` contiguous lane groups,
/// each one uninterrupted walk. Bit-identical to [`replay_batch`] for
/// every `threads` value — threading changes scheduling, never results.
pub fn replay_batch_with(
    prepared: &PreparedApp,
    config: &SystemConfig,
    trace: &ReferenceTrace,
    candidates: &[HashSet<BlockId>],
    threads: usize,
) -> Result<Vec<VerifiedRun>, SimError> {
    trace.validate()?;
    let replayer = TraceReplayer::new(&prepared.prog, &prepared.app, &config.energy_table);
    let refs: Vec<&HashSet<BlockId>> = candidates.iter().collect();
    batch_with(&replayer, trace, config, &refs, threads)?
        .into_iter()
        .collect()
}

/// A memoizing replay engine bound to one captured reference trace.
///
/// The engine owns the capture, the precomputed per-pc replay table,
/// and a compute-once cache keyed by the sorted hardware-block set
/// (the trace fingerprint is fixed per engine, so the pair uniquely
/// identifies a verified run). Like the schedule cache, one engine
/// must only be shared across configurations with equal baseline
/// parameters (caches, process, memory, energy table, cycle guard) —
/// [`crate::engine`] guarantees this by pooling replay engines inside
/// the baseline artifact, keyed on the baseline fingerprint.
#[derive(Debug)]
pub struct ReplayEngine {
    trace: Arc<ReferenceTrace>,
    replayer: TraceReplayer,
    cache: MemoCache<Vec<BlockId>, VerifiedRun, SimError>,
    /// Batched walks executed.
    batches: AtomicU64,
    /// Trace events whose walk was *shared* instead of repeated:
    /// `events × (lanes − 1)`, summed over batches.
    batch_events_shared: AtomicU64,
    /// Wall time spent inside batched walks.
    batch_nanos: AtomicU64,
    /// Fingerprint validation of the capture, run once at
    /// construction; every [`ReplayEngine::verify`] refuses a trace
    /// that failed it.
    validated: Result<(), SimError>,
}

impl corepart_sched::cache::HeapBytes for VerifiedRun {
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.stats.heap_bytes()
    }
}

impl ReplayEngine {
    /// Owned heap footprint in bytes: the trace, the per-pc replay
    /// tables and the verified-run memo. Only the memo grows, as
    /// verifications are memoized, so the store re-measures the owning
    /// baseline after every request.
    pub fn heap_bytes(&self) -> usize {
        self.trace.heap_bytes() + self.replayer.heap_bytes() + self.cache.bytes() as usize
    }

    /// Builds the engine for a trace over the decode table of the
    /// simulation that captured it, so the program is not decoded a
    /// second time. The trace's fingerprint is validated here, once; a
    /// damaged capture turns every later [`ReplayEngine::verify`] into
    /// [`SimError::TraceCorrupt`].
    pub fn new(table: Arc<DecodeTable>, trace: ReferenceTrace) -> Self {
        ReplayEngine {
            replayer: TraceReplayer::from_table(table),
            validated: trace.validate(),
            trace: Arc::new(trace),
            cache: MemoCache::new(),
            batches: AtomicU64::new(0),
            batch_events_shared: AtomicU64::new(0),
            batch_nanos: AtomicU64::new(0),
        }
    }

    /// The capture this engine replays.
    pub fn trace(&self) -> &ReferenceTrace {
        &self.trace
    }

    /// Verifies the hardware-block set `hw_blocks`: replays the capture
    /// (a one-lane batch walk) on first request, serves the shared
    /// result afterwards.
    ///
    /// # Errors
    ///
    /// The (cached) [`SimError`] when the replay fails — exactly when
    /// the equivalent direct simulation would.
    pub fn verify(
        &self,
        config: &SystemConfig,
        hw_blocks: &HashSet<BlockId>,
    ) -> Result<Arc<VerifiedRun>, SimError> {
        self.validated.clone()?;
        let mut key: Vec<BlockId> = hw_blocks.iter().copied().collect();
        key.sort_unstable();
        self.cache.get_or_compute(key, || {
            replay_one(&self.replayer, &self.trace, config, hw_blocks)
        })
    }

    /// Verifies K candidate hardware-block sets with at most **one**
    /// walk of the trace, memo-integrated: candidates whose sorted set
    /// is already memoized (and duplicates within `candidates`) are
    /// served from the cache as ordinary hits; only the remaining
    /// first-occurrence sets enter the batched walk, whose per-lane
    /// results are then published through the memo (each charged as
    /// one miss — the counters read exactly as if the candidates had
    /// been verified sequentially).
    ///
    /// Results come back in candidate order and are bit-identical to
    /// K separate [`ReplayEngine::verify`] calls.
    ///
    /// # Errors
    ///
    /// All-or-nothing, like one-at-a-time verification would fail: the first
    /// failing candidate's [`SimError`] (in candidate order) fails the
    /// whole call. A trace-level failure (damaged capture) fails the
    /// batch before anything is memoized; a per-candidate failure
    /// ([`SimError::CycleLimit`]) is memoized for its set, exactly as
    /// [`ReplayEngine::verify`] caches it.
    pub fn verify_batch(
        &self,
        config: &SystemConfig,
        candidates: &[HashSet<BlockId>],
    ) -> Result<Vec<Arc<VerifiedRun>>, SimError> {
        self.verify_batch_with(config, candidates, 1)
    }

    /// [`ReplayEngine::verify_batch`] with the fresh lanes spread over
    /// up to `threads` contiguous lane groups, each one uninterrupted
    /// walk. Results — and the memo contents published from them — are
    /// bit-identical for every `threads` value; only wall time differs.
    pub fn verify_batch_with(
        &self,
        config: &SystemConfig,
        candidates: &[HashSet<BlockId>],
        threads: usize,
    ) -> Result<Vec<Arc<VerifiedRun>>, SimError> {
        self.validated.clone()?;
        let keys: Vec<Vec<BlockId>> = candidates
            .iter()
            .map(|hw| {
                let mut key: Vec<BlockId> = hw.iter().copied().collect();
                key.sort_unstable();
                key
            })
            .collect();

        // Plan: only the first occurrence of each not-yet-memoized set
        // earns a batch lane. `peek` charges no counters — the
        // `get_or_compute` below does the hit/miss accounting.
        let mut seen: HashSet<&[BlockId]> = HashSet::new();
        let fresh: Vec<usize> = keys
            .iter()
            .enumerate()
            .filter(|(_, key)| seen.insert(key.as_slice()) && self.cache.peek(key).is_none())
            .map(|(i, _)| i)
            .collect();

        let mut lane_results: Vec<Option<Result<VerifiedRun, SimError>>> =
            candidates.iter().map(|_| None).collect();
        if !fresh.is_empty() {
            let started = Instant::now();
            let sets: Vec<&HashSet<BlockId>> = fresh.iter().map(|&i| &candidates[i]).collect();
            // A trace-level `Err` here aborts before anything is
            // memoized: the damage poisons every candidate alike.
            let run = batch_with(&self.replayer, &self.trace, config, &sets, threads)?;
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.batch_events_shared.fetch_add(
                self.trace.events() * (sets.len() as u64 - 1),
                Ordering::Relaxed,
            );
            self.batch_nanos
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            for (&i, lane) in fresh.iter().zip(run) {
                lane_results[i] = Some(lane);
            }
        }

        let mut out = Vec::with_capacity(candidates.len());
        for ((i, key), lane) in keys.into_iter().enumerate().zip(&mut lane_results) {
            let entry = match lane.take() {
                // A batch lane publishes its result as this key's one
                // miss; under a racing single verify the memo's
                // first writer wins and this lane is a hit — either
                // way the value is bit-identical.
                Some(result) => self.cache.get_or_compute(key, || result),
                // Memoized (or duplicate-in-batch) set: an ordinary
                // hit. Recompute as a one-lane walk only if it raced
                // away (conform's evict hook can do that).
                None => self.cache.get_or_compute(key, || {
                    replay_one(&self.replayer, &self.trace, config, &candidates[i])
                }),
            };
            out.push(entry?);
        }
        Ok(out)
    }

    /// Replays actually executed (= distinct hardware-block sets seen).
    pub fn replays(&self) -> u64 {
        self.cache.misses()
    }

    /// Verifications served from the memo without replaying.
    pub fn hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Batched walks executed by [`ReplayEngine::verify_batch`].
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Trace events whose walk was shared instead of repeated,
    /// summed over batches: `events × (lanes − 1)` per batch.
    pub fn batch_events_shared(&self) -> u64 {
        self.batch_events_shared.load(Ordering::Relaxed)
    }

    /// Wall time spent inside batched walks.
    pub fn batch_nanos(&self) -> u64 {
        self.batch_nanos.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::evaluate::{evaluate_initial_captured, evaluate_partition, Partition};
    use crate::prepare::Workload;
    use corepart_ir::lower::lower;
    use corepart_ir::parser::parse;

    const DSP: &str = r#"app dsp; var x[128]; var y[128]; var s = 0;
        func main() {
            for (var i = 1; i < 127; i = i + 1) {
                y[i] = (x[i - 1] + 2 * x[i] + x[i + 1]) >> 2;
            }
            for (var j = 0; j < 128; j = j + 1) { s = s + y[j]; }
            return s;
        }"#;

    fn setup() -> (Engine, corepart_ir::cdfg::Application, Workload) {
        let app = lower(&parse(DSP).unwrap()).unwrap();
        let workload =
            Workload::from_arrays([("x", (0..128).map(|i| (i * 13) % 97).collect::<Vec<i64>>())]);
        (Engine::new(SystemConfig::new()).unwrap(), app, workload)
    }

    #[test]
    fn replayed_verification_equals_direct_simulation() {
        let (factory, app, workload) = setup();
        let session = factory.session(&app, &workload);
        let prepared = session.prepared().unwrap();
        let config = session.config();
        let baseline = session.baseline().unwrap();
        let stats = &baseline.stats;
        let engine = baseline
            .replay
            .as_ref()
            .expect("small workload fits any sane cap");

        let hot = prepared.chain.iter().find(|c| c.is_loop()).unwrap().id;
        let partition = Partition::single(hot, config.resource_set(2).unwrap().clone());
        let hw_blocks: HashSet<BlockId> =
            prepared.chain.cluster(hot).blocks.iter().copied().collect();

        // Direct path (no caches, no replay).
        let direct = evaluate_partition(prepared, &partition, stats, config).unwrap();
        // Replay path, twice: second verify must be served from memo.
        let first = engine.verify(config, &hw_blocks).unwrap();
        let again = engine.verify(config, &hw_blocks).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!((engine.replays(), engine.hits()), (1, 1));

        // The replayed µP+cache side is bit-identical to what the
        // direct evaluation measured (miss ratios pin the hierarchy,
        // up_core pins the RunStats energy path).
        let via_engine = crate::evaluate::evaluate_partition_with(
            prepared,
            &partition,
            stats,
            config,
            None,
            Some(engine),
        )
        .unwrap();
        assert_eq!(direct, via_engine);
    }

    #[test]
    fn one_shot_replay_matches_engine() {
        let (factory, app, workload) = setup();
        let session = factory.session(&app, &workload);
        let prepared = session.prepared().unwrap();
        let config = session.config();
        let engine = session
            .replay_engine()
            .unwrap()
            .expect("capture fits")
            .clone();
        let hot = prepared.chain.iter().find(|c| c.is_loop()).unwrap().id;
        let hw_blocks: HashSet<BlockId> =
            prepared.chain.cluster(hot).blocks.iter().copied().collect();

        let one_shot = replay_run(prepared, config, engine.trace(), &hw_blocks).unwrap();
        let memoized = engine.verify(config, &hw_blocks).unwrap();
        assert_eq!(one_shot, *memoized);
        assert!(engine.trace().events() > 0);
    }

    #[test]
    fn warm_engine_holds_one_copy_of_its_trace() {
        let (factory, app, workload) = setup();
        let session = factory.session(&app, &workload);
        let prepared = session.prepared().unwrap();
        let config = session.config();
        let engine = session
            .replay_engine()
            .unwrap()
            .expect("capture fits")
            .clone();
        let hot = prepared.chain.iter().find(|c| c.is_loop()).unwrap().id;
        let hw_blocks: HashSet<BlockId> =
            prepared.chain.cluster(hot).blocks.iter().copied().collect();

        // A fresh engine: the trace, the replay tables, an empty memo.
        let cold = engine.heap_bytes();
        assert_eq!(engine.cache.bytes(), 0);
        let run = engine.verify(config, &hw_blocks).unwrap();
        // The first verify adds exactly its memo entry: no second form
        // of the trace is built beside the columns.
        let entry = corepart_sched::cache::HeapBytes::heap_bytes(&*run)
            + corepart_sched::cache::CACHE_ENTRY_OVERHEAD;
        assert!(
            engine.heap_bytes() <= cold + entry,
            "warm {} > cold {cold} + memo entry {entry}",
            engine.heap_bytes()
        );
        engine.verify_batch(config, &[HashSet::new()]).unwrap();
        assert_eq!(
            engine.heap_bytes(),
            cold + engine.cache.bytes() as usize,
            "only the memo grows"
        );
    }

    #[test]
    fn threaded_sharded_batch_is_bit_identical() {
        let (factory, app, workload) = setup();
        let session = factory.session(&app, &workload);
        let prepared = session.prepared().unwrap();
        let config = session.config();
        let engine = session
            .replay_engine()
            .unwrap()
            .expect("capture fits")
            .clone();

        // Candidates: all software, each cluster alone, everything.
        let mut sets: Vec<HashSet<BlockId>> = vec![HashSet::new()];
        for cluster in prepared.chain.iter() {
            sets.push(cluster.blocks.iter().copied().collect());
        }
        sets.push(sets.iter().flatten().copied().collect());

        let direct: Vec<VerifiedRun> = sets
            .iter()
            .map(|hw| crate::evaluate::run_iss(prepared, config, hw).unwrap())
            .collect();
        for threads in [1usize, 2, 3, 8] {
            let got = replay_batch_with(prepared, config, engine.trace(), &sets, threads).unwrap();
            assert_eq!(got, direct, "threads={threads}");
        }
    }

    #[test]
    fn zero_cap_yields_no_trace() {
        let (factory, app, workload) = setup();
        let session = factory.session(&app, &workload);
        let prepared = session.prepared().unwrap();
        let config = session.config();
        let (metrics_off, stats_off, trace) =
            evaluate_initial_captured(prepared, config, 0).unwrap();
        assert!(trace.is_none());
        // And the capture never perturbs the evaluation itself.
        let (metrics_on, stats_on, trace_on) =
            evaluate_initial_captured(prepared, config, usize::MAX).unwrap();
        assert!(trace_on.is_some());
        assert_eq!(metrics_off, metrics_on);
        assert_eq!(stats_off, stats_on);
    }
}
