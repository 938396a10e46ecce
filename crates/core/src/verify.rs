//! The trace-replay verification engine.
//!
//! Verification (Fig. 1 lines 14–15) is the expensive end of the
//! search: a full instruction-set simulation plus the cache hierarchy
//! per candidate. But [`SimConfig::hw_blocks`] changes *accounting*
//! only — every candidate executes the identical instruction stream —
//! so the initial design is simulated **once** per prepared
//! application/workload, capturing its reference trace on the way
//! ([`crate::evaluate::evaluate_initial`]), and each candidate is
//! verified by *replaying* that capture with the candidate's
//! hardware-block set applied at replay time: no re-interpretation, no
//! `set_array` re-initialization.
//!
//! [`ReplayEngine`] is the only way to replay. It is built once per
//! capture, over the decode table of the simulation that captured it,
//! and checks the trace's fingerprint once, at construction
//! ([`ReferenceTrace::validate`]), unless the trace comes straight from
//! the capture that just stamped it; every verify of a trace that
//! failed it is [`SimError::TraceCorrupt`]. The capture is held in one form:
//! the stretch and address columns that [`corepart_isa::TraceBuilder`]
//! appends during the run are the columns the kernel walks. Every
//! replay — one candidate or K — is one walk of the batch kernel
//! ([`TraceReplayer::replay_batch`]) with one cache [`Hierarchy`] per
//! lane, counted once in [`ReplayEngine::batches`]; threading splits
//! the K lanes into contiguous groups, each its own uninterrupted pass.
//! Replay reproduces direct simulation ([`crate::evaluate::run_iss`]):
//! [`RunStats`] and [`HierarchyReport`] **bit for bit**, the same `f64`
//! operations in the same order.
//!
//! Results are memoized per hardware-block set (the trace is fixed per
//! engine) in the same compute-once [`MemoCache`] the schedule trio
//! uses — distinct candidates that induce the same hardware-block set
//! (e.g. the same clusters under different resource sets) share one
//! replay.
//!
//! When the capture was discarded (byte cap exceeded, or capture
//! disabled), there is no engine and callers fall back to direct
//! simulation — see [`SystemConfig::trace_cap_bytes`].

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use corepart_cache::hierarchy::Hierarchy;
use corepart_cache::HierarchyReport;
use corepart_ir::op::BlockId;
use corepart_isa::simulator::{RunStats, SimConfig, SimError};
use corepart_isa::trace::{ReferenceTrace, TraceReplayer};
use corepart_isa::DecodeTable;
use corepart_sched::cache::MemoCache;

use crate::evaluate::{fresh_hierarchy, HierarchySink};
use crate::parallel::par_map;
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

/// One uninterrupted pass of the batch kernel over `trace`: a fresh
/// cache [`Hierarchy`] per candidate, per-candidate results in
/// candidate order, a trace-level failure as the top-level `Err`.
fn walk_group(
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

/// A memoizing replay engine bound to one captured reference trace.
///
/// The engine owns the capture, the precomputed per-pc replay table,
/// and a compute-once cache keyed by the sorted hardware-block set
/// (the trace is fixed per engine, so the set uniquely identifies a
/// verified run). Like the schedule cache, one engine must only be
/// shared across configurations with equal baseline parameters
/// (caches, process, memory, energy table, cycle guard) —
/// [`crate::engine`] guarantees this by pooling replay engines inside
/// the baseline artifact, keyed on the baseline fingerprint.
#[derive(Debug)]
pub struct ReplayEngine {
    trace: ReferenceTrace,
    replayer: TraceReplayer,
    cache: MemoCache<Vec<BlockId>, VerifiedRun, SimError>,
    /// Replay walks run, one per kernel call whatever its lane count.
    batches: AtomicU64,
    /// Fingerprint validation of the capture, run once at
    /// construction; every verify refuses a trace that failed it.
    validated: Result<(), SimError>,
}

impl corepart_sched::cache::HeapBytes for VerifiedRun {
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.stats.heap_bytes()
    }
}

/// The memo key of a hardware-block set: its blocks, sorted.
fn memo_key(hw_blocks: &HashSet<BlockId>) -> Vec<BlockId> {
    let mut key: Vec<BlockId> = hw_blocks.iter().copied().collect();
    key.sort_unstable();
    key
}

impl ReplayEngine {
    /// Owned heap footprint in bytes: the trace, the per-pc replay
    /// tables and the verified-run memo. Only the memo grows, as
    /// verifications are memoized; its size is a running total, so
    /// re-measuring the owning baseline is cheap.
    pub fn heap_bytes(&self) -> usize {
        self.trace.heap_bytes() + self.replayer.heap_bytes() + self.cache.bytes() as usize
    }

    /// Builds the engine for a trace over the decode table of the
    /// simulation that captured it, so the program is not decoded a
    /// second time. The trace's fingerprint is validated here, once; a
    /// damaged capture turns every later verify into
    /// [`SimError::TraceCorrupt`].
    pub fn new(table: Arc<DecodeTable>, trace: ReferenceTrace) -> Self {
        let validated = trace.validate();
        Self::with_validation(table, trace, validated)
    }

    /// [`ReplayEngine::new`] without the re-hash, for a trace straight
    /// from [`corepart_isa::TraceBuilder::finish`], which has just
    /// fingerprinted these very columns. Every other trace goes
    /// through `new`. Debug builds still validate, so a caller that
    /// hands in any other trace fails every debug test run.
    pub(crate) fn from_capture(table: Arc<DecodeTable>, trace: ReferenceTrace) -> Self {
        debug_assert!(
            trace.validate().is_ok(),
            "from_capture takes only a trace fresh from TraceBuilder::finish"
        );
        Self::with_validation(table, trace, Ok(()))
    }

    fn with_validation(
        table: Arc<DecodeTable>,
        trace: ReferenceTrace,
        validated: Result<(), SimError>,
    ) -> Self {
        ReplayEngine {
            replayer: TraceReplayer::from_table(table),
            validated,
            trace,
            cache: MemoCache::new(),
            batches: AtomicU64::new(0),
        }
    }

    /// The capture this engine replays.
    pub fn trace(&self) -> &ReferenceTrace {
        &self.trace
    }

    /// The decode table the capture is replayed over — what a second
    /// engine on the same program (a copy of the trace, say) is built
    /// with.
    pub fn table(&self) -> &Arc<DecodeTable> {
        self.replayer.table()
    }

    /// The one replay walk: verifies `candidates` against the validated
    /// trace on up to `threads` workers, counted once in
    /// [`ReplayEngine::batches`]. The candidates are cut into contiguous
    /// lane groups of at most `⌈K / threads⌉` lanes; each group is one
    /// uninterrupted pass with its own hierarchies, and the group
    /// outputs are concatenated in group order, which is candidate
    /// order. Every lane performs exactly its own operation sequence
    /// whatever group it lands in, so the output is bit-identical for
    /// every `threads` value.
    ///
    /// Trace-level errors are lane-independent, so every group that
    /// reaches the damage hits the identical one; the lowest group's
    /// `Err` wins, which keeps the result deterministic across thread
    /// counts.
    fn walk(
        &self,
        config: &SystemConfig,
        candidates: &[&HashSet<BlockId>],
        threads: usize,
    ) -> Result<Vec<Result<VerifiedRun, SimError>>, SimError> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        let lanes_per_group = candidates.len().div_ceil(threads.max(1)).max(1);
        let groups: Vec<&[&HashSet<BlockId>]> = candidates.chunks(lanes_per_group).collect();
        let outputs = par_map(&groups, groups.len(), |_, group| {
            walk_group(&self.replayer, &self.trace, config, group)
        });
        let mut results = Vec::with_capacity(candidates.len());
        for group in outputs {
            results.extend(group?);
        }
        Ok(results)
    }

    /// One candidate through the kernel: a walk of one lane.
    fn replay_one(
        &self,
        config: &SystemConfig,
        hw_blocks: &HashSet<BlockId>,
    ) -> Result<VerifiedRun, SimError> {
        let mut lanes = self.walk(config, &[hw_blocks], 1)?;
        lanes.pop().expect("one lane")
    }

    /// Verifies the hardware-block set `hw_blocks`: replays the capture
    /// (a one-lane walk) on first request, serves the shared result
    /// afterwards.
    ///
    /// # Errors
    ///
    /// [`SimError::TraceCorrupt`] when the capture failed its
    /// fingerprint validation or walks fewer events than it recorded
    /// (a damaged or truncated capture); otherwise the (cached)
    /// [`SimError`] of the replay — exactly when the equivalent direct
    /// simulation would fail.
    pub fn verify(
        &self,
        config: &SystemConfig,
        hw_blocks: &HashSet<BlockId>,
    ) -> Result<Arc<VerifiedRun>, SimError> {
        self.validated.clone()?;
        self.cache
            .get_or_compute(memo_key(hw_blocks), || self.replay_one(config, hw_blocks))
    }

    /// Verifies K candidate hardware-block sets with at most **one**
    /// walk of the trace, memo-integrated: candidates whose sorted set
    /// is already memoized (and duplicates within `candidates`) are
    /// served from the cache as ordinary hits; only the remaining
    /// first-occurrence sets enter the walk, whose per-lane results are
    /// then published through the memo (each charged as one miss — the
    /// counters read exactly as if the candidates had been verified
    /// one at a time).
    ///
    /// Results come back in candidate order and are bit-identical to
    /// K separate [`ReplayEngine::verify`] calls.
    ///
    /// # Errors
    ///
    /// All-or-nothing, like one-at-a-time verification would fail: the
    /// first failing candidate's [`SimError`] (in candidate order) fails
    /// the whole call. A trace-level failure (damaged capture) fails the
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
    /// pass. Results — and the memo contents published from them — are
    /// bit-identical for every `threads` value; only wall time differs.
    pub fn verify_batch_with(
        &self,
        config: &SystemConfig,
        candidates: &[HashSet<BlockId>],
        threads: usize,
    ) -> Result<Vec<Arc<VerifiedRun>>, SimError> {
        self.validated.clone()?;
        let keys: Vec<Vec<BlockId>> = candidates.iter().map(memo_key).collect();

        // Plan: only the first occurrence of each not-yet-memoized set
        // earns a lane. `peek` charges no counters — the
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
            let sets: Vec<&HashSet<BlockId>> = fresh.iter().map(|&i| &candidates[i]).collect();
            // A trace-level `Err` here aborts before anything is
            // memoized: the damage poisons every candidate alike.
            let run = self.walk(config, &sets, threads)?;
            for (&i, lane) in fresh.iter().zip(run) {
                lane_results[i] = Some(lane);
            }
        }

        let mut out = Vec::with_capacity(candidates.len());
        for ((i, key), lane) in keys.into_iter().enumerate().zip(&mut lane_results) {
            let entry = match lane.take() {
                // A lane publishes its result as this key's one miss;
                // under a racing single verify the memo's first writer
                // wins and this lane is a hit — either way the value is
                // bit-identical.
                Some(result) => self.cache.get_or_compute(key, || result),
                // Memoized (or duplicate-in-batch) set: an ordinary
                // hit. Recompute as a one-lane walk only if it raced
                // away (conform's evict hook can do that).
                None => self
                    .cache
                    .get_or_compute(key, || self.replay_one(config, &candidates[i])),
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

    /// Replay walks run: one per [`ReplayEngine::verify`] miss and one
    /// per [`ReplayEngine::verify_batch`] call with any fresh set,
    /// whatever its lane count.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::evaluate::{evaluate_initial, evaluate_partition, Partition};
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
            // A fresh engine per thread count, so every lane is walked.
            let fresh = ReplayEngine::new(Arc::clone(engine.table()), engine.trace().clone());
            let got: Vec<VerifiedRun> = fresh
                .verify_batch_with(config, &sets, threads)
                .unwrap()
                .iter()
                .map(|run| (**run).clone())
                .collect();
            assert_eq!(got, direct, "threads={threads}");
            assert_eq!(fresh.batches(), 1, "threads={threads}");
        }
    }

    #[test]
    fn zero_cap_yields_no_trace() {
        let (factory, app, workload) = setup();
        let session = factory.session(&app, &workload);
        let prepared = session.prepared().unwrap();
        let config = session.config();
        let off = evaluate_initial(prepared, &config.clone().with_trace_cap(0), 1).unwrap();
        assert!(off.replay.is_none());
        // And the capture never perturbs the evaluation itself.
        let on = evaluate_initial(prepared, &config.clone().with_trace_cap(usize::MAX), 1).unwrap();
        assert!(on.replay.is_some());
        assert_eq!(off.metrics, on.metrics);
        assert_eq!(off.stats, on.stats);
    }

    #[test]
    fn every_walk_is_counted_once() {
        let (factory, app, workload) = setup();
        let session = factory.session(&app, &workload);
        let prepared = session.prepared().unwrap();
        let config = session.config();
        let engine = session.replay_engine().unwrap().expect("capture fits");
        let engine = ReplayEngine::new(Arc::clone(engine.table()), engine.trace().clone());
        let clusters: Vec<HashSet<BlockId>> = prepared
            .chain
            .iter()
            .map(|cluster| cluster.blocks.iter().copied().collect())
            .collect();
        assert!(clusters.len() >= 3, "needs three distinct sets");

        assert_eq!(engine.batches(), 0, "a fresh engine has walked nothing");
        engine.verify(config, &clusters[0]).unwrap();
        assert_eq!(engine.batches(), 1, "a new set is one one-lane walk");
        engine.verify(config, &clusters[0]).unwrap();
        assert_eq!(engine.batches(), 1, "a memo hit walks nothing");
        engine.verify_batch(config, &clusters[1..]).unwrap();
        assert_eq!(engine.batches(), 2, "K new sets are one walk");
        engine.verify_batch(config, &clusters).unwrap();
        assert_eq!(engine.batches(), 2, "an all-hit batch walks nothing");
    }
}
