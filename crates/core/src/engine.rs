//! The Engine/Session spine — one shared-artifact core behind every
//! entry point.
//!
//! Henkel's Fig. 5 flow is a pipeline of reusable stage products:
//! preparing an application (profile, compiled program, cluster
//! chain), simulating its initial all-software design (baseline
//! metrics plus the captured reference trace), and memoizing candidate
//! schedules are each computed **once** and consumed by everything
//! downstream — the Fig. 1 search, design-space exploration, the
//! multi-core split search, the CLI, benches and reports.
//!
//! * An [`Engine`] owns the base [`SystemConfig`], the resolved thread
//!   policy, and three compute-once artifact pools (generalized
//!   [`MemoCache`]s) keyed by a `PoolKey`: the content identity of the
//!   `(Application, Workload)` pair (their derived `Hash`) plus a hash
//!   of the exact configuration fields each stage consumes. Two
//!   sessions on the same pair whose configurations agree on a stage's
//!   fields share that stage's artifact, even when they disagree
//!   elsewhere (e.g. an objective-factor sweep shares one baseline
//!   simulation across every weight).
//! * A [`Session`] is opened per `(Application, Workload,
//!   config-group)` and owns *references into* the pools: the typed
//!   stage artifacts `PreparedApp → Baseline → Arc<ScheduleCache>`,
//!   each resolved lazily and exactly once on first use.
//!
//! [`Session::stats`] reports per-stage wall time, whether each
//! artifact was freshly computed or served from a sibling session, and
//! the pass-through schedule-cache / replay hit counters.
//!
//! This module is the **only** place in `corepart` that pools
//! prepared applications, [`Baseline`]s and [`ScheduleCache`]s — every
//! consumer goes through a session. A baseline, with its
//! [`ReplayEngine`], is computed by
//! [`crate::evaluate::evaluate_initial`], the one run of the initial
//! design; the session only pools the result.
//!
//! ## Laziness rules
//!
//! * Opening a session performs no work beyond hashing its pool keys.
//! * `prepared()` triggers preparation; `baseline()` triggers
//!   preparation + the initial-design simulation (capturing the
//!   reference trace, see [`SystemConfig::trace_cap_bytes`]);
//!   `schedule_cache()` allocates (or joins) the shared cache.
//! * Failures are memoized too: a configuration that cannot prepare
//!   or simulate fails identically — and exactly once — for every
//!   session sharing the artifact.

use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use corepart_cache::config::CacheConfig;
use corepart_ir::cdfg::Application;
use corepart_isa::energy::EnergyTable;
use corepart_sched::cache::{MemoCache, ScheduleCache};
use corepart_tech::process::CmosProcess;
use corepart_tech::resource::ResourceLibrary;

use crate::error::CorepartError;
use crate::evaluate::evaluate_initial;
use crate::parallel::resolve_threads;
use crate::partition::ScheduleKey;
use crate::prepare::{prepare, PreparedApp, Workload};
use crate::system::{DesignMetrics, SystemConfig};
use crate::verify::ReplayEngine;
use corepart_isa::simulator::RunStats;

/// The initial-design stage artifact of one baseline group: Table 1's
/// "I" row, the per-block run statistics every estimate consumes, and
/// the replay engine built from the same captured run (absent when the
/// capture overflowed [`SystemConfig::trace_cap_bytes`] or the cap
/// is 0).
#[derive(Debug)]
pub struct Baseline {
    /// The initial design's metrics.
    pub metrics: DesignMetrics,
    /// The initial run's statistics (per-block attribution).
    pub stats: RunStats,
    /// The memoizing trace-replay engine, when a capture exists.
    pub replay: Option<Arc<ReplayEngine>>,
}

impl Baseline {
    /// Owned heap footprint in bytes: the run statistics plus — when a
    /// capture exists — the replay engine's trace, tables and
    /// verified-run memo. This is the store's byte-budget charge for
    /// keeping the baseline warm; it grows as the replay memo fills, so
    /// every request that uses it re-measures it (an O(1) read).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.stats.heap_bytes()
            + self.replay.as_ref().map_or(0, |r| r.heap_bytes())
    }
}

/// 64-bit FNV-1a, streamed: bytes written piecewise — as a [`Hasher`]
/// fed by a derived `Hash`, or as text through `write!` — hash to the
/// same value as their concatenation, without building it.
/// [`crate::corpus::fingerprint64`] is the one-shot form.
#[derive(Clone)]
pub(crate) struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u8(byte);
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// The content identity of an `(application, workload)` pair: their
/// derived `Hash` streamed through [`Fnv64`]. Every pool key carries
/// it, and the store finds a request's pool entries by it.
pub(crate) fn identity(app: &Application, workload: &Workload) -> u64 {
    let mut hash = Fnv64::default();
    (app, workload).hash(&mut hash);
    hash.finish()
}

/// The key of one engine pool entry: the `(application, workload)`
/// [`identity`] plus a hash of the configuration fields its stage
/// consumes. Sessions that agree on both share the artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct PoolKey {
    pub(crate) identity: u64,
    pub(crate) stage: u64,
}

/// Preparation's fields: `optimize_ir` and `max_cycles`.
type PrepFields = (bool, u64);

/// The configuration fields each stage consumes, by reference:
/// preparation's; the baseline's, which are those plus the caches,
/// process, memory size, energy table and `trace_cap_bytes` (so a capped
/// session falls back to direct verification instead of borrowing a
/// sibling's capture); and the schedules', which are preparation's plus
/// the resource library. [`SystemConfig::operating_point`] stays out:
/// simulation and replay run at the base process, so a node×vdd sweep
/// shares one baseline and re-weights it per point.
type StageFields<'a> = (
    PrepFields,
    (
        PrepFields,
        &'a CacheConfig,
        &'a CacheConfig,
        &'a CmosProcess,
        usize,
        &'a EnergyTable,
        usize,
    ),
    (PrepFields, &'a ResourceLibrary),
);

fn stage_fields(config: &SystemConfig) -> StageFields<'_> {
    let prep = (config.optimize_ir, config.max_cycles);
    (
        prep,
        (
            prep,
            &config.icache,
            &config.dcache,
            &config.process,
            config.memory_bytes,
            &config.energy_table,
            config.trace_cap_bytes,
        ),
        (prep, &config.library),
    )
}

/// The prepared-application, baseline and schedule-cache stage hashes
/// of one configuration: each hashes the `Debug` text (the process,
/// energy and library types hold `f64`) of exactly its
/// [`stage_fields`].
fn stage_hashes(config: &SystemConfig) -> [u64; 3] {
    let key = |fields: &dyn std::fmt::Debug| {
        let mut hash = Fnv64::default();
        let _ = write!(hash, "{fields:?}");
        hash.finish()
    };
    let (prep, baseline, schedules) = stage_fields(config);
    [key(&prep), key(&baseline), key(&schedules)]
}

/// The partitioning engine: the base configuration, the resolved
/// thread policy, and the compute-once artifact pools shared by every
/// [`Session`] it opens.
///
/// One engine serves many concurrent sessions; all pools are
/// thread-safe and compute each artifact exactly once per key, even
/// under races (see [`MemoCache`]).
#[derive(Debug, Default)]
pub struct Engine {
    config: SystemConfig,
    threads: usize,
    /// The [`stage_hashes`] of `config`, computed once.
    stages: [u64; 3],
    prepared: MemoCache<PoolKey, PreparedApp, CorepartError>,
    baselines: MemoCache<PoolKey, Baseline, CorepartError>,
    schedules: MemoCache<PoolKey, ScheduleCache<ScheduleKey>, CorepartError>,
}

impl Engine {
    /// An engine over `config` (validated here, once, for every
    /// session opened with [`Engine::session`]).
    ///
    /// # Errors
    ///
    /// [`CorepartError::Config`] when the configuration is invalid.
    pub fn new(config: SystemConfig) -> Result<Self, CorepartError> {
        config.validate()?;
        Ok(Engine {
            threads: resolve_threads(config.threads),
            stages: stage_hashes(&config),
            config,
            prepared: MemoCache::default(),
            baselines: MemoCache::default(),
            schedules: MemoCache::default(),
        })
    }

    /// The engine's base configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The resolved worker-thread count every session inherits.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Opens a session on the engine's own configuration.
    ///
    /// No work happens here — stage artifacts are resolved lazily on
    /// first use (see the module docs).
    pub fn session(&self, app: &Application, workload: &Workload) -> Session<'_> {
        Session::open(
            self,
            identity(app, workload),
            app,
            workload,
            self.config.clone(),
            self.stages,
        )
    }

    /// Opens a session on a *different* configuration (one config
    /// group of a sweep), still sharing this engine's artifact pools
    /// wherever the stage keys agree.
    ///
    /// # Errors
    ///
    /// [`CorepartError::Config`] when `config` is invalid.
    pub fn session_with_config(
        &self,
        app: &Application,
        workload: &Workload,
        config: SystemConfig,
    ) -> Result<Session<'_>, CorepartError> {
        self.session_at(identity(app, workload), app, workload, config)
    }

    /// [`Engine::session_with_config`] on a pair whose [`identity`]
    /// the caller already holds: a sweep opens K sessions on one pair
    /// and hashes it once.
    pub(crate) fn session_at(
        &self,
        identity: u64,
        app: &Application,
        workload: &Workload,
        config: SystemConfig,
    ) -> Result<Session<'_>, CorepartError> {
        config.validate()?;
        let stages = self.stages_of(&config);
        Ok(Session::open(self, identity, app, workload, config, stages))
    }

    /// The stage hashes of `config`: the engine's own, computed once,
    /// when every stage field equals the base configuration's (compared
    /// with `==`, formatting nothing: a re-weighted or re-pointed
    /// configuration is only a comparison), hashed afresh otherwise.
    fn stages_of(&self, config: &SystemConfig) -> [u64; 3] {
        if stage_fields(config) == stage_fields(&self.config) {
            self.stages
        } else {
            stage_hashes(config)
        }
    }

    /// The prepared, baseline and schedule pool keys of `identity` under
    /// the engine's own configuration: every entry a served request on
    /// that identity uses, since a request overrides only knobs no stage
    /// hash reads (`n_max`, the factors, the operating point).
    pub(crate) fn request_keys(&self, identity: u64) -> [(ArtifactKind, PoolKey); 3] {
        use ArtifactKind::{Baseline, Prepared, Schedule};
        let key = |i: usize| PoolKey {
            identity,
            stage: self.stages[i],
        };
        [(Prepared, key(0)), (Baseline, key(1)), (Schedule, key(2))]
    }

    /// The accounted byte weight of one pool entry, or `None` while
    /// its computation is still in flight. Failed computations weigh a
    /// fixed bookkeeping charge — the memoized error is small and worth
    /// keeping (growth re-asks about the same infeasible combinations).
    pub(crate) fn artifact_bytes(&self, kind: ArtifactKind, key: PoolKey) -> Option<u64> {
        /// Charge for a memoized failure or an empty cache shell.
        const ERR_BYTES: u64 = 256;
        let bytes = match kind {
            ArtifactKind::Prepared => self.prepared.peek(&key)?.map(|p| p.heap_bytes() as u64),
            ArtifactKind::Baseline => self.baselines.peek(&key)?.map(|b| b.heap_bytes() as u64),
            ArtifactKind::Schedule => self.schedules.peek(&key)?.map(|c| ERR_BYTES + c.bytes()),
        };
        Some(bytes.unwrap_or(ERR_BYTES))
    }

    /// Drops one pool entry (the store's eviction primitive). The next
    /// session needing it recomputes bit-identically — cached values
    /// are pure functions of their keys.
    pub(crate) fn evict_artifact(&self, kind: ArtifactKind, key: PoolKey) -> bool {
        match kind {
            ArtifactKind::Prepared => self.prepared.evict(&key),
            ArtifactKind::Baseline => self.baselines.evict(&key),
            ArtifactKind::Schedule => self.schedules.evict(&key),
        }
    }
}

/// Which engine pool an accounted artifact lives in. The store's
/// ledger keys these entries by `(kind, pool key)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArtifactKind {
    /// The prepared application (profile, compiled program, chain).
    Prepared,
    /// The baseline: initial-design metrics, run stats, replay engine.
    Baseline,
    /// A shared schedule cache (grows as the search touches keys).
    Schedule,
}

/// Per-stage accounting cells of one session (interior mutability so
/// `&Session` resolves artifacts from parallel workers).
#[derive(Debug, Default)]
struct StageCells {
    prepare_nanos: AtomicU64,
    prepare_shared: AtomicBool,
    baseline_nanos: AtomicU64,
    baseline_shared: AtomicBool,
}

/// A point-in-time snapshot of one session's per-stage accounting —
/// wall time per stage, whether the artifact was computed here or
/// served from a sibling session, and the pass-through schedule-cache
/// and replay counters. Taken with [`Session::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Wall time resolving the prepared application, nanoseconds
    /// (0 when not yet resolved).
    pub prepare_nanos: u64,
    /// True when the prepared application was served from the engine
    /// pool (a sibling session computed it).
    pub prepare_shared: bool,
    /// Wall time resolving the baseline (initial-design simulation +
    /// trace capture), nanoseconds (0 when not yet resolved).
    pub baseline_nanos: u64,
    /// True when the baseline was served from the engine pool.
    pub baseline_shared: bool,
    /// Schedule-cache lookups served from memory so far.
    pub schedule_cache_hits: u64,
    /// Schedule-cache lookups that ran the scheduler (distinct keys).
    pub schedule_cache_misses: u64,
    /// Replays actually executed (distinct hardware-block sets).
    pub replays: u64,
    /// Verifications served by the replay memo without replaying.
    pub replay_hits: u64,
    /// Replay walks executed, one per kernel call whether it verified
    /// one candidate set or K ([`ReplayEngine::batches`]).
    pub batched_replays: u64,
}

/// One partitioning session: an `(Application, Workload,
/// config-group)` binding whose stage artifacts are created lazily,
/// exactly once, and shared through the owning [`Engine`]'s pools.
///
/// Sessions are `Sync`: exploration resolves many sessions' artifacts
/// from parallel workers, and the compute-once pools guarantee each
/// distinct artifact is still computed exactly once.
#[derive(Debug)]
pub struct Session<'e> {
    engine: &'e Engine,
    app: Application,
    workload: Workload,
    config: SystemConfig,
    prep_key: PoolKey,
    baseline_key: PoolKey,
    cache_key: PoolKey,
    prepared: OnceLock<Result<Arc<PreparedApp>, CorepartError>>,
    baseline: OnceLock<Result<Arc<Baseline>, CorepartError>>,
    schedules: OnceLock<Arc<ScheduleCache<ScheduleKey>>>,
    cells: StageCells,
}

impl<'e> Session<'e> {
    fn open(
        engine: &'e Engine,
        identity: u64,
        app: &Application,
        workload: &Workload,
        config: SystemConfig,
        stages: [u64; 3],
    ) -> Self {
        let [prep_key, baseline_key, cache_key] = stages.map(|stage| PoolKey { identity, stage });
        Session {
            engine,
            app: app.clone(),
            workload: workload.clone(),
            config,
            prep_key,
            baseline_key,
            cache_key,
            prepared: OnceLock::new(),
            baseline: OnceLock::new(),
            schedules: OnceLock::new(),
            cells: StageCells::default(),
        }
    }

    /// The session's configuration (its config group's, not
    /// necessarily the engine's base).
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The application this session partitions.
    pub fn app(&self) -> &Application {
        &self.app
    }

    /// The workload driving profiling and simulation.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The engine this session shares artifacts through.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// The resolved worker-thread count (inherited from the engine
    /// when this session's config leaves `threads` at 0).
    pub fn threads(&self) -> usize {
        if self.config.threads == 0 {
            self.engine.threads
        } else {
            resolve_threads(self.config.threads)
        }
    }

    /// The prepared application — profile, compiled program, cluster
    /// chain — resolved on first call (Fig. 5's front half).
    ///
    /// # Errors
    ///
    /// The memoized preparation failure, identical on every call.
    pub fn prepared(&self) -> Result<&PreparedApp, CorepartError> {
        match self.prepared_slot() {
            Ok(arc) => Ok(arc.as_ref()),
            Err(e) => Err(e.clone()),
        }
    }

    /// Like [`Session::prepared`], but handing out the shared
    /// ownership ([`Arc`]) — what [`crate::flow::FlowResult`] stores.
    ///
    /// # Errors
    ///
    /// The memoized preparation failure.
    pub fn prepared_arc(&self) -> Result<Arc<PreparedApp>, CorepartError> {
        match self.prepared_slot() {
            Ok(arc) => Ok(Arc::clone(arc)),
            Err(e) => Err(e.clone()),
        }
    }

    fn prepared_slot(&self) -> &Result<Arc<PreparedApp>, CorepartError> {
        self.prepared.get_or_init(|| {
            let started = Instant::now();
            let mut computed = false;
            let result = self.engine.prepared.get_or_compute(self.prep_key, || {
                computed = true;
                prepare(self.app.clone(), self.workload.clone(), &self.config)
            });
            self.cells
                .prepare_nanos
                .store(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.cells
                .prepare_shared
                .store(!computed, Ordering::Relaxed);
            result
        })
    }

    /// The initial-design baseline — [`DesignMetrics`], per-block
    /// [`RunStats`], and the replay engine built from the captured
    /// reference trace (absent when the capture overflowed
    /// [`SystemConfig::trace_cap_bytes`] or the cap is 0). Resolved on
    /// first call; triggers preparation if needed.
    ///
    /// [`DesignMetrics`]: crate::system::DesignMetrics
    /// [`RunStats`]: corepart_isa::simulator::RunStats
    ///
    /// # Errors
    ///
    /// The memoized preparation or simulation failure.
    pub fn baseline(&self) -> Result<&Baseline, CorepartError> {
        // Resolve preparation first so its wall time is charged to the
        // prepare stage, not folded into the baseline's.
        let prepared = self.prepared_arc()?;
        let slot = self.baseline.get_or_init(|| {
            let started = Instant::now();
            let mut computed = false;
            let result = self.engine.baselines.get_or_compute(self.baseline_key, || {
                computed = true;
                evaluate_initial(&prepared, &self.config, self.threads())
            });
            self.cells
                .baseline_nanos
                .store(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.cells
                .baseline_shared
                .store(!computed, Ordering::Relaxed);
            result
        });
        match slot {
            Ok(arc) => Ok(arc.as_ref()),
            Err(e) => Err(e.clone()),
        }
    }

    /// The replay engine backing verifications, when the reference
    /// trace was captured. Resolves the baseline if needed.
    ///
    /// # Errors
    ///
    /// The memoized preparation or simulation failure.
    pub fn replay_engine(&self) -> Result<Option<&Arc<ReplayEngine>>, CorepartError> {
        Ok(self.baseline()?.replay.as_ref())
    }

    /// The schedule cache shared by every session with the same
    /// prepared application and resource library — allocated (or
    /// joined) on first call.
    pub fn schedule_cache(&self) -> &Arc<ScheduleCache<ScheduleKey>> {
        self.schedules.get_or_init(|| {
            self.engine
                .schedules
                .get_or_compute(self.cache_key, || Ok(ScheduleCache::new()))
                // The compute closure is infallible; the pool's error
                // arm is unreachable, but degrade to a private cache
                // rather than panicking if it ever weren't.
                .unwrap_or_else(|_| Arc::new(ScheduleCache::new()))
        })
    }

    /// A snapshot of this session's per-stage accounting (see
    /// [`SessionStats`]). Stages not yet resolved report zeros.
    pub fn stats(&self) -> SessionStats {
        let cache = self.schedules.get();
        let replay = self
            .baseline
            .get()
            .and_then(|slot| slot.as_ref().ok())
            .and_then(|b| b.replay.as_ref());
        SessionStats {
            prepare_nanos: self.cells.prepare_nanos.load(Ordering::Relaxed),
            prepare_shared: self.cells.prepare_shared.load(Ordering::Relaxed),
            baseline_nanos: self.cells.baseline_nanos.load(Ordering::Relaxed),
            baseline_shared: self.cells.baseline_shared.load(Ordering::Relaxed),
            schedule_cache_hits: cache.map_or(0, |c| c.hits()),
            schedule_cache_misses: cache.map_or(0, |c| c.misses()),
            replays: replay.map_or(0, |r| r.replays()),
            replay_hits: replay.map_or(0, |r| r.hits()),
            batched_replays: replay.map_or(0, |r| r.batches()),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::partition::Partitioner;
    use corepart_ir::lower::lower;
    use corepart_ir::parser::parse;

    const SRC: &str = r#"app spine; var x[96]; var y[96];
        func main() {
            for (var i = 1; i < 95; i = i + 1) {
                y[i] = x[i] * 7 + (x[i - 1] >> 2);
            }
            return y[40];
        }"#;

    /// Keys stored in `engine`'s `kind` pool.
    pub(crate) fn pool_len(engine: &Engine, kind: ArtifactKind) -> usize {
        match kind {
            ArtifactKind::Prepared => engine.prepared.len(),
            ArtifactKind::Baseline => engine.baselines.len(),
            ArtifactKind::Schedule => engine.schedules.len(),
        }
    }

    fn app() -> Application {
        lower(&parse(SRC).unwrap()).unwrap()
    }

    fn workload() -> Workload {
        Workload::from_arrays([("x", (0..96).collect::<Vec<i64>>())])
    }

    #[test]
    fn artifacts_are_lazy_and_shared_between_sessions() {
        let engine = Engine::new(SystemConfig::new()).unwrap();
        let a = engine.session(&app(), &workload());
        // Opening did no work.
        assert_eq!(a.stats(), SessionStats::default());

        let prepared_a = a.prepared_arc().unwrap();
        assert!(!a.stats().prepare_shared, "first session computes");

        let b = engine.session(&app(), &workload());
        let prepared_b = b.prepared_arc().unwrap();
        assert!(
            Arc::ptr_eq(&prepared_a, &prepared_b),
            "same (app, workload, prep fields) must share one PreparedApp"
        );
        assert!(b.stats().prepare_shared, "second session is served");

        // Baselines share too, and carry the replay engine.
        let base_a = a.baseline().unwrap();
        let base_b = b.baseline().unwrap();
        assert_eq!(base_a.metrics, base_b.metrics);
        assert!(!a.stats().baseline_shared);
        assert!(b.stats().baseline_shared);
        assert!(base_a.replay.is_some(), "default cap captures the trace");

        // One shared schedule cache per (prep, library) group.
        assert!(Arc::ptr_eq(a.schedule_cache(), b.schedule_cache()));
    }

    #[test]
    fn objective_factor_groups_share_baseline_but_cap_splits_it() {
        let engine = Engine::new(SystemConfig::new()).unwrap();
        let (app, workload) = (app(), workload());
        let sweep = engine
            .session_with_config(&app, &workload, SystemConfig::new().with_factors(1.0, 4.0))
            .unwrap();
        let base = engine.session(&app, &workload);
        let m1 = base.baseline().unwrap().metrics.clone();
        let m2 = sweep.baseline().unwrap().metrics.clone();
        assert_eq!(m1, m2);
        assert!(
            sweep.stats().baseline_shared,
            "factor sweep shares the baseline"
        );

        // A different trace cap owns a different baseline artifact:
        // the capped session must NOT inherit a sibling's capture.
        let capped = engine
            .session_with_config(&app, &workload, SystemConfig::new().with_trace_cap(0))
            .unwrap();
        assert!(capped.replay_engine().unwrap().is_none());
        assert!(!capped.stats().baseline_shared);
        assert_eq!(capped.baseline().unwrap().metrics, m1);
    }

    #[test]
    fn operating_points_share_every_simulation_artifact() {
        use corepart_tech::scaling::OperatingPoint;

        let engine = Engine::new(SystemConfig::new()).unwrap();
        let (app, workload) = (app(), workload());
        let base = engine.session(&app, &workload);
        let scaled = engine
            .session_with_config(
                &app,
                &workload,
                SystemConfig::new().with_operating_point(OperatingPoint {
                    node_nm: 180,
                    vdd: 1.8,
                }),
            )
            .unwrap();
        let prepared_a = base.prepared_arc().unwrap();
        let prepared_b = scaled.prepared_arc().unwrap();
        assert!(Arc::ptr_eq(&prepared_a, &prepared_b));
        base.baseline().unwrap();
        scaled.baseline().unwrap();
        assert!(
            scaled.stats().baseline_shared,
            "the operating point must stay out of the baseline key"
        );
        let (Ok(Some(ra)), Ok(Some(rb))) = (base.replay_engine(), scaled.replay_engine()) else {
            panic!("both sessions should carry the shared capture");
        };
        assert!(Arc::ptr_eq(ra, rb), "one trace, one replay engine");
        assert!(
            Arc::ptr_eq(base.schedule_cache(), scaled.schedule_cache()),
            "schedules are point-invariant too"
        );
    }

    /// The prepared, baseline and schedule pool sizes of `engine`.
    fn pool_lens(engine: &Engine) -> [usize; 3] {
        [
            ArtifactKind::Prepared,
            ArtifactKind::Baseline,
            ArtifactKind::Schedule,
        ]
        .map(|kind| pool_len(engine, kind))
    }

    /// Resolves every stage artifact of `session`.
    fn resolve_all(session: &Session<'_>) {
        session.baseline().unwrap();
        session.schedule_cache();
    }

    #[test]
    fn reweighted_configs_add_no_pool_entries() {
        use corepart_tech::scaling::OperatingPoint;

        let engine = Engine::new(SystemConfig::new()).unwrap();
        let (app, workload) = (app(), workload());
        let base = engine.session(&app, &workload);
        resolve_all(&base);
        let lens = pool_lens(&engine);
        assert_eq!(lens, [1, 1, 1]);
        let mut pointed = SystemConfig::new();
        pointed.operating_point = Some(OperatingPoint {
            node_nm: 180,
            vdd: 1.8,
        });
        for config in [
            SystemConfig::new().with_factors(2.0, 0.5),
            SystemConfig::new().with_n_max(3),
            pointed,
        ] {
            let session = engine.session_with_config(&app, &workload, config).unwrap();
            assert_eq!(
                [session.prep_key, session.baseline_key, session.cache_key],
                [base.prep_key, base.baseline_key, base.cache_key]
            );
            resolve_all(&session);
            assert_eq!(pool_lens(&engine), lens);
        }
    }

    #[test]
    fn one_changed_stage_field_gets_a_new_pool_key() {
        use corepart_cache::config::CacheConfig;

        let engine = Engine::new(SystemConfig::new()).unwrap();
        let (app, workload) = (app(), workload());
        let base = engine.session(&app, &workload);
        resolve_all(&base);
        let mut config = SystemConfig::new();
        config.icache = CacheConfig::default_dcache();
        let changed = engine.session_with_config(&app, &workload, config).unwrap();
        assert_eq!(changed.prep_key, base.prep_key);
        assert_ne!(changed.baseline_key, base.baseline_key);
        assert_eq!(changed.cache_key, base.cache_key);
        resolve_all(&changed);
        assert_eq!(pool_lens(&engine), [1, 2, 1]);
    }

    #[test]
    fn failures_are_memoized_and_cloned() {
        // max_cycles = 1 starves the profiling interpreter.
        let config = SystemConfig::new();
        let mut starved = config.clone();
        starved.max_cycles = 1;
        let engine = Engine::new(starved).unwrap();
        let s1 = engine.session(&app(), &workload());
        let s2 = engine.session(&app(), &workload());
        let e1 = s1.prepared().unwrap_err();
        let e2 = s2.prepared().unwrap_err();
        assert_eq!(format!("{e1}"), format!("{e2}"));
        assert!(
            s2.stats().prepare_shared,
            "the failure is shared, not recomputed"
        );
    }

    #[test]
    fn invalid_configs_are_rejected_at_open() {
        let mut bad = SystemConfig::new();
        bad.n_max = 0;
        assert!(Engine::new(bad.clone()).is_err());
        let engine = Engine::new(SystemConfig::new()).unwrap();
        assert!(engine
            .session_with_config(&app(), &workload(), bad)
            .is_err());
    }

    #[test]
    fn session_stats_track_search_counters() {
        let engine = Engine::new(SystemConfig::new()).unwrap();
        let session = engine.session(&app(), &workload());
        let partitioner = Partitioner::new(&session).unwrap();
        partitioner.run().unwrap();
        let stats = session.stats();
        assert!(stats.schedule_cache_misses > 0);
        assert!(stats.prepare_nanos > 0);
        assert!(stats.baseline_nanos > 0);
        assert_eq!(stats.replays, 1, "one verification, one replay");
    }

    #[test]
    fn one_changed_input_gets_its_own_identity_and_baseline() {
        let engine = Engine::new(SystemConfig::new()).unwrap();
        let (app, workload) = (app(), workload());
        let base = engine.session(&app, &workload);
        base.baseline().unwrap();

        let constant = lower(&parse(&SRC.replace("* 7", "* 8")).unwrap()).unwrap();
        let mut element = workload.clone();
        element.arrays[0].1[5] += 1;
        for (app, workload) in [(&constant, &workload), (&app, &element)] {
            let changed = engine.session(app, workload);
            assert_ne!(changed.prep_key.identity, base.prep_key.identity);
            changed.baseline().unwrap();
            assert!(!changed.stats().prepare_shared);
            assert!(!changed.stats().baseline_shared, "no shared baseline");
        }
    }

    #[test]
    fn paper_and_generated_apps_have_distinct_identities() {
        let mut inputs: Vec<(String, Workload)> = corepart_workloads::all()
            .iter()
            .map(|w| (w.source.to_owned(), Workload::from_arrays(w.arrays(1))))
            .collect();
        for seed in 0..256 {
            let gen = corepart_conform::generate(seed);
            inputs.push((gen.source(), Workload::from_arrays(gen.workload_arrays())));
        }
        let identities: std::collections::HashSet<u64> = inputs
            .iter()
            .map(|(source, workload)| identity(&lower(&parse(source).unwrap()).unwrap(), workload))
            .collect();
        assert_eq!(identities.len(), 6 + 256);
    }

    #[test]
    fn each_stage_key_moves_with_exactly_the_fields_it_consumes() {
        use corepart_cache::config::CacheConfig;
        use corepart_isa::energy::EnergyTable;
        use corepart_tech::resource::ResourceLibrary;
        use corepart_tech::scaling::OperatingPoint;

        type Edit = fn(&mut SystemConfig);
        // One row per field: does the [prep, baseline, schedule] key move?
        let rows: [(&str, Edit, [bool; 3]); 14] = [
            ("optimize_ir", |c| c.optimize_ir = true, [true; 3]),
            ("max_cycles", |c| c.max_cycles += 1, [true; 3]),
            (
                "icache",
                |c| c.icache = CacheConfig::default_dcache(),
                [false, true, false],
            ),
            (
                "dcache",
                |c| c.dcache = CacheConfig::default_icache(),
                [false, true, false],
            ),
            (
                "process",
                |c| c.process = c.process.scaled_to(0.35),
                [false, true, false],
            ),
            (
                "memory_bytes",
                |c| c.memory_bytes *= 2,
                [false, true, false],
            ),
            (
                "energy_table",
                |c| c.energy_table = EnergyTable::for_process(&c.process.scaled_to(0.35)),
                [false, true, false],
            ),
            (
                "trace_cap_bytes",
                |c| c.trace_cap_bytes = 0,
                [false, true, false],
            ),
            (
                "library",
                |c| c.library = ResourceLibrary::for_process(&c.process.scaled_to(0.35)),
                [false, false, true],
            ),
            ("factor_f", |c| c.factor_f = 4.0, [false; 3]),
            ("factor_g", |c| c.factor_g = 0.5, [false; 3]),
            ("n_max", |c| c.n_max = 3, [false; 3]),
            ("threads", |c| c.threads = 7, [false; 3]),
            (
                "operating_point",
                |c| {
                    c.operating_point = Some(OperatingPoint {
                        node_nm: 180,
                        vdd: 1.8,
                    })
                },
                [false; 3],
            ),
        ];
        let base = SystemConfig::new();
        let engine = Engine::new(base.clone()).unwrap();
        let before = stage_hashes(&base);
        for (field, edit, moves) in rows {
            let mut config = base.clone();
            edit(&mut config);
            let after = stage_hashes(&config);
            assert_eq!(
                engine.stages_of(&config),
                after,
                "{field}: the shortcut keys"
            );
            for (i, stage) in ["prep", "baseline", "schedule"].into_iter().enumerate() {
                assert_eq!(after[i] != before[i], moves[i], "{field} → {stage} key");
            }
        }
    }
}
