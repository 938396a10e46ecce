//! Differential and metamorphic oracles.
//!
//! Every generated application is pushed through the full design flow
//! under a small matrix of configurations, and the results are
//! compared **bit for bit** — [`corepart::PartitionOutcome`] equality
//! compares every energy figure, cycle count and search counter
//! (wall-clock fields excluded by construction). The oracles encode
//! the spine's documented promises:
//!
//! * **shared-vs-fresh** — resolving a configuration sweep through one
//!   shared [`Engine`]'s artifact pools equals running each
//!   configuration through its own fresh [`DesignFlow`];
//! * **threads** — `threads = 1` equals `threads = N`;
//! * **replay-vs-direct** — a `trace_cap_bytes = 0` flow (every
//!   verification re-simulates) equals the default flow (every
//!   verification replays the capture);
//! * **cache-vs-uncached** — re-evaluating the winning partition with
//!   no schedule cache and no replay engine reproduces the searched
//!   [`corepart::PartitionDetail`];
//! * **gen-use** — every cluster region of the prepared chain and every
//!   contiguous run of two or three clusters: the bit-set `gen`/`use`
//!   analysis of Fig. 3's transfer counts equals the set-based
//!   reference it replaced, and so does each cluster's summary in the
//!   chain;
//! * **schedule-merge** — every pair and triple of candidate clusters
//!   on every resource set: the session's schedule trio, which merges
//!   the memoized single-cluster trios, equals the whole-block
//!   reference (`schedule_cluster` + `bind` + `utilization` over the
//!   concatenated blocks), error for error, and weighs the same
//!   `HeapBytes`. The uncached evaluation merges too, so
//!   **cache-vs-uncached** cannot check the merge on its own;
//! * **stream-invariance** (metamorphic) — moving any cluster to
//!   hardware never changes the executed instruction stream: block
//!   entry counts and the return value match the all-software baseline
//!   for every hardware-block set;
//! * **batch-vs-direct** — verifying K candidate hardware-block sets
//!   through the batched single-decode replay kernel, on one thread
//!   and spread over lane groups on several, equals K direct
//!   simulations, lane for lane and bit for bit;
//! * **of-monotone** (metamorphic) — the objective function is
//!   strictly increasing in `F` (energy is positive) and
//!   non-decreasing in `G` (strictly when the design carries extra
//!   hardware);
//! * **energy-sum** — [`DesignMetrics::total_energy`] is exactly the
//!   sum of its published components, in the documented order;
//! * **operating-point** (metamorphic) — an operating point never
//!   changes what executes: the initial run's `RunStats` and the full
//!   search outcome at a scaled point equal the base point's bit for
//!   bit; the scaled-point weighting of the searched design equals an
//!   independent analytic re-weighting of base-point counts bit for
//!   bit; and per node, lowering the supply within the DVFS range
//!   never raises the energy weight while the time weight factors
//!   through `CmosProcess::delay_derating` exactly.
//!
//! Any [`corepart::CorepartError`] surfacing from a *generated* (hence
//! well-formed, terminating) application is itself a violation.

use std::collections::HashSet;
use std::sync::Arc;

use corepart::engine::Engine;
use corepart::error::CorepartError;
use corepart::evaluate::{evaluate_partition, run_iss, Partition};
use corepart::flow::DesignFlow;
use corepart::isa::simulator::RunStats;
use corepart::objective::Objective;
use corepart::partition::{PartitionOutcome, Partitioner};
use corepart::prepare::{PreparedApp, Workload};
use corepart::system::{DesignMetrics, SystemConfig};
use corepart::verify::ReplayEngine;
use corepart_ir::cdfg::Application;
use corepart_ir::cluster::ClusterId;
use corepart_ir::dataflow::{reference, region_gen_use};
use corepart_ir::lower::lower;
use corepart_ir::op::BlockId;
use corepart_ir::parser::parse;
use corepart_sched::binding::{bind, schedule_cluster, utilization};
use corepart_sched::cache::{HeapBytes, ScheduledCluster};
use corepart_tech::scaling::{OperatingPoint, PointWeights};
use corepart_tech::units::{Energy, GateEq};

use crate::gen::GenApp;

/// The hardware-effort weights (`G`) the configuration matrix sweeps;
/// `F` is fixed at 1.0 as in the paper's experiments.
pub const G_SWEEP: [f64; 3] = [0.0, 0.2, 1.0];

/// One oracle violation: which promise broke, and how.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The oracle that failed (a stable machine-readable name).
    pub oracle: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl Violation {
    fn new(oracle: &'static str, detail: impl Into<String>) -> Self {
        Violation {
            oracle,
            detail: detail.into(),
        }
    }
}

/// The base configuration of the matrix: the library defaults, two
/// worker threads (so the threads oracle actually crosses a
/// parallel/sequential boundary).
pub fn base_config() -> SystemConfig {
    SystemConfig::new().with_threads(2)
}

/// Outcome equality modulo cache *warmth*: a search through a shared
/// engine may find schedule-cache entries a sibling session already
/// computed, turning misses into hits. Results (initial, best) and
/// every search counter must still match bit for bit, and the **total**
/// lookup count (hits + misses) is deterministic even when the split
/// is not.
pub fn outcomes_equivalent(a: &PartitionOutcome, b: &PartitionOutcome) -> bool {
    a.initial == b.initial
        && a.best == b.best
        && a.search.candidates == b.search.candidates
        && a.search.estimated == b.search.estimated
        && a.search.rejected_by_utilization == b.search.rejected_by_utilization
        && a.search.infeasible == b.search.infeasible
        && a.search.growth_steps == b.search.growth_steps
        && a.search.verifications == b.search.verifications
        && a.search.cache_hits + a.search.cache_misses
            == b.search.cache_hits + b.search.cache_misses
}

/// Parses and lowers the generated application. A failure here is a
/// generator bug, reported as a `generate` violation by
/// [`check_app`].
pub fn lower_app(app: &GenApp) -> Result<Application, String> {
    let parsed = parse(&app.source()).map_err(|e| format!("parse: {e}"))?;
    lower(&parsed).map_err(|e| format!("lower: {e}"))
}

/// Runs every differential and metamorphic oracle on one generated
/// application. Returns the (possibly empty) list of violations;
/// never panics on a well-formed input.
pub fn check_app(app: &GenApp) -> Vec<Violation> {
    let lowered = match lower_app(app) {
        Ok(a) => a,
        Err(e) => {
            return vec![Violation::new(
                "generate",
                format!("generated app does not lower: {e}"),
            )]
        }
    };
    let workload = Workload::from_arrays(app.workload_arrays());
    check_lowered(&lowered, &workload)
}

/// The oracle battery over an already-lowered application. Split out
/// so the fault layer and tests can reuse it.
pub fn check_lowered(app: &Application, workload: &Workload) -> Vec<Violation> {
    let mut violations = Vec::new();
    let base = base_config();

    // --- Shared engine: one artifact pool, one session per G. -------
    let engine = match Engine::new(base.clone()) {
        Ok(e) => e,
        Err(e) => return vec![Violation::new("error", format!("engine build: {e}"))],
    };
    let mut shared: Vec<PartitionOutcome> = Vec::with_capacity(G_SWEEP.len());
    for g in G_SWEEP {
        let config = base.clone().with_factors(base.factor_f, g);
        let outcome = engine
            .session_with_config(app, workload, config)
            .map_err(|e| format!("session (G = {g}): {e}"))
            .and_then(|session| {
                Partitioner::new(&session)
                    .and_then(|p| p.run())
                    .map_err(|e| format!("shared search (G = {g}): {e}"))
            });
        match outcome {
            Ok(o) => shared.push(o),
            Err(e) => return vec![Violation::new("error", e)],
        }
    }

    // --- Oracle: shared-Engine sessions == fresh flows. -------------
    for (g, shared_outcome) in G_SWEEP.iter().zip(&shared) {
        let config = base.clone().with_factors(base.factor_f, *g);
        match DesignFlow::with_config(config).run_app(app.clone(), workload.clone()) {
            Ok(fresh) => {
                if !outcomes_equivalent(&fresh.outcome, shared_outcome) {
                    violations.push(Violation::new(
                        "shared-vs-fresh",
                        format!(
                            "G = {g}: fresh-engine flow diverged from shared-engine session \
                             (fresh saving {:?}%, shared {:?}%)",
                            fresh.outcome.energy_saving_percent(),
                            shared_outcome.energy_saving_percent()
                        ),
                    ));
                }
            }
            Err(e) => violations.push(Violation::new("error", format!("fresh flow: {e}"))),
        }
    }

    // --- Oracle: threads = 1 == threads = 2. -------------------------
    let mid_g = G_SWEEP[1];
    let single = base
        .clone()
        .with_factors(base.factor_f, mid_g)
        .with_threads(1);
    match DesignFlow::with_config(single).run_app(app.clone(), workload.clone()) {
        Ok(result) => {
            if !outcomes_equivalent(&result.outcome, &shared[1]) {
                violations.push(Violation::new(
                    "threads",
                    "threads = 1 search diverged from threads = 2 search".to_string(),
                ));
            }
        }
        Err(e) => violations.push(Violation::new("error", format!("threads=1 flow: {e}"))),
    }

    // --- Oracle: replay off (cap 0) == replay on. --------------------
    let no_replay = base
        .clone()
        .with_factors(base.factor_f, mid_g)
        .with_trace_cap(0);
    match DesignFlow::with_config(no_replay).run_app(app.clone(), workload.clone()) {
        Ok(result) => {
            if !outcomes_equivalent(&result.outcome, &shared[1]) {
                violations.push(Violation::new(
                    "replay-vs-direct",
                    "direct-simulation search (trace_cap_bytes = 0) diverged from \
                     replay-backed search"
                        .to_string(),
                ));
            }
        }
        Err(e) => violations.push(Violation::new("error", format!("cap-0 flow: {e}"))),
    }

    // --- Session-level oracles on the shared engine at G = 0.2. ------
    let config = base.clone().with_factors(base.factor_f, mid_g);
    let session = match engine.session_with_config(app, workload, config) {
        Ok(s) => s,
        Err(e) => {
            violations.push(Violation::new("error", format!("session reopen: {e}")));
            return violations;
        }
    };
    let partitioner = match Partitioner::new(&session) {
        Ok(p) => p,
        Err(e) => {
            violations.push(Violation::new("error", format!("partitioner: {e}")));
            return violations;
        }
    };

    // Oracle: re-evaluating the winner without cache or replay engine
    // reproduces the searched detail bit for bit.
    if let Some((best, detail)) = &shared[1].best {
        match evaluate_partition(
            partitioner.prepared(),
            best,
            partitioner.initial_stats(),
            partitioner.config(),
        ) {
            Ok(direct) => {
                if direct != *detail {
                    violations.push(Violation::new(
                        "cache-vs-uncached",
                        "uncached re-evaluation of the winning partition diverged from \
                         the searched detail"
                            .to_string(),
                    ));
                }
            }
            Err(e) => {
                violations.push(Violation::new(
                    "cache-vs-uncached",
                    format!("winning partition failed uncached re-evaluation: {e}"),
                ));
            }
        }
    }

    // Oracle: bit-set gen/use == the set-based reference.
    violations.extend(gen_use(partitioner.prepared()));

    // Oracle: merged multi-cluster trios == whole-block schedules.
    violations.extend(schedule_merge(&partitioner));

    // Oracle: hardware moves never change the executed stream.
    violations.extend(stream_invariance(&partitioner));

    // Oracle: batched replay == K direct simulations, lane for lane,
    // at every thread count tried.
    violations.extend(batch_vs_direct(&partitioner));

    // Oracle: OF monotone in F and G over the observed designs.
    let mut observed: Vec<&DesignMetrics> = vec![&shared[1].initial];
    for outcome in &shared {
        if let Some((_, detail)) = &outcome.best {
            observed.push(&detail.metrics);
        }
    }
    violations.extend(of_monotone(partitioner.config(), &observed));

    // Oracle: an operating point re-weighs counts, never changes them.
    violations.extend(operating_point_invariants(app, workload));

    // Oracle: total energy is exactly the component sum.
    for metrics in &observed {
        let sum = metrics.icache
            + metrics.dcache
            + metrics.mem
            + metrics.bus
            + metrics.up_core
            + metrics.asic_core.unwrap_or(Energy::ZERO);
        if sum.joules() != metrics.total_energy().joules() {
            violations.push(Violation::new(
                "energy-sum",
                format!(
                    "component sum {} J != total {} J",
                    sum.joules(),
                    metrics.total_energy().joules()
                ),
            ));
        }
    }

    violations
}

/// Every cluster region of the prepared chain and every contiguous run
/// of two or three clusters: the bit-set `gen`/`use` analysis equals
/// the set-based reference, and so does each cluster's summary in the
/// chain.
fn gen_use(prepared: &PreparedApp) -> Vec<Violation> {
    let app = &prepared.app;
    let clusters = prepared.chain.clusters();
    let mut violations = Vec::new();
    for len in 1..=3 {
        for run in clusters.windows(len) {
            let blocks: Vec<BlockId> = run.iter().flat_map(|c| c.blocks.iter().copied()).collect();
            let reference = reference::region_gen_use(app, &blocks);
            let detail = if region_gen_use(app, &blocks) != reference {
                "`region_gen_use` differs from the reference"
            } else if len == 1 && run[0].gen_use != reference {
                "the chain's summary differs from the reference"
            } else {
                continue;
            };
            let ids: Vec<ClusterId> = run.iter().map(|c| c.id).collect();
            violations.push(Violation::new(
                "gen-use",
                format!("clusters {ids:?}: {detail}"),
            ));
        }
    }
    violations
}

/// Every pair and triple of candidate clusters (ascending, as growth
/// builds them) on every resource set: the trio the session serves
/// equals the whole-block reference and weighs the same.
fn schedule_merge(partitioner: &Partitioner<'_>) -> Vec<Violation> {
    let prepared = partitioner.prepared();
    let config = partitioner.config();
    let lib = &config.library;
    let mut ids: Vec<ClusterId> = partitioner.candidates().iter().map(|c| c.cluster).collect();
    ids.sort();
    let mut combos: Vec<Vec<ClusterId>> = Vec::new();
    for (i, &a) in ids.iter().enumerate() {
        for (j, &b) in ids.iter().enumerate().skip(i + 1) {
            combos.push(vec![a, b]);
            combos.extend(ids[j + 1..].iter().map(|&c| vec![a, b, c]));
        }
    }
    let mut violations = Vec::new();
    for set in &config.resource_sets {
        for clusters in &combos {
            let blocks: Vec<BlockId> = clusters
                .iter()
                .flat_map(|&cid| prepared.chain.cluster(cid).blocks.iter().copied())
                .collect();
            let reference = schedule_cluster(&prepared.app, &blocks, set, lib).map(|sched| {
                let binding = bind(&sched, lib);
                let util = utilization(&sched, &binding, &prepared.profile, lib);
                ScheduledCluster {
                    sched,
                    binding,
                    util,
                }
            });
            let partition = Partition {
                clusters: clusters.clone(),
                set: set.clone(),
            };
            let served = partitioner.scheduled(&partition);
            let mismatch = match (&served, &reference) {
                (Ok(served), Ok(whole)) if **served != *whole => {
                    Some("the served trio differs".to_owned())
                }
                (Ok(served), Ok(whole)) if served.heap_bytes() != whole.heap_bytes() => {
                    Some(format!(
                        "the served trio weighs {} bytes, the whole-block trio {}",
                        served.heap_bytes(),
                        whole.heap_bytes()
                    ))
                }
                (Ok(_), Ok(_)) => None,
                (Err(CorepartError::Sched(served)), Err(whole)) if served == whole => None,
                (served, whole) => Some(format!(
                    "served {}, whole-block {}",
                    outcome(served),
                    outcome(whole)
                )),
            };
            if let Some(detail) = mismatch {
                violations.push(Violation::new(
                    "schedule-merge",
                    format!("clusters {clusters:?} on `{}`: {detail}", set.name()),
                ));
            }
        }
    }
    violations
}

/// A schedule lookup's outcome, for a violation's detail.
fn outcome<T, E: std::fmt::Display>(result: &Result<T, E>) -> String {
    match result {
        Ok(_) => "a trio".to_owned(),
        Err(e) => format!("error `{e}`"),
    }
}

/// Metamorphic: for every (first few) cluster hardware-block sets, the
/// replayed run's block entry counts and return value equal the
/// all-software baseline — accounting moves, execution does not.
fn stream_invariance(partitioner: &Partitioner<'_>) -> Vec<Violation> {
    let mut violations = Vec::new();
    let Some(engine) = partitioner.replay_engine() else {
        // Capture overflowed the cap: nothing to replay, the
        // replay-vs-direct oracle already covered the fallback.
        return violations;
    };
    let prepared = partitioner.prepared();
    let baseline = partitioner.initial_stats();
    for cluster in prepared.chain.iter().take(3) {
        let hw_blocks: HashSet<_> = cluster.blocks.iter().copied().collect();
        if hw_blocks.is_empty() {
            continue;
        }
        match engine.verify(partitioner.config(), &hw_blocks) {
            Ok(run) => {
                if run.stats.block_counts != baseline.block_counts
                    || run.stats.return_value != baseline.return_value
                {
                    violations.push(Violation::new(
                        "stream-invariance",
                        format!(
                            "hardware-mapping cluster {:?} changed the executed stream \
                             (return {} vs baseline {})",
                            cluster.id, run.stats.return_value, baseline.return_value
                        ),
                    ));
                }
            }
            Err(e) => violations.push(Violation::new(
                "stream-invariance",
                format!("replay of cluster {:?} failed: {e}", cluster.id),
            )),
        }
    }
    violations
}

/// Differential: the batched replay kernel is
/// bit-identical to direct simulation for a K-candidate batch mixing
/// the empty set, the first few cluster sets, and their union — the
/// shared walk, the interleaved per-lane accounting and the split
/// into lane groups on several threads must not perturb a single f64
/// in any lane.
fn batch_vs_direct(partitioner: &Partitioner<'_>) -> Vec<Violation> {
    let mut violations = Vec::new();
    let Some(engine) = partitioner.replay_engine() else {
        // Capture overflowed the cap: no trace to batch over.
        return violations;
    };
    let prepared = partitioner.prepared();
    let config = partitioner.config();
    let trace = engine.trace();

    let mut candidates: Vec<HashSet<_>> = vec![HashSet::new()];
    let mut union = HashSet::new();
    for cluster in prepared.chain.iter().take(3) {
        let hw: HashSet<_> = cluster.blocks.iter().copied().collect();
        union.extend(hw.iter().copied());
        candidates.push(hw);
    }
    candidates.push(union);

    let direct: Vec<_> = match candidates
        .iter()
        .map(|hw| run_iss(prepared, config, hw))
        .collect::<Result<_, _>>()
    {
        Ok(runs) => runs,
        Err(e) => {
            violations.push(Violation::new(
                "batch-vs-direct",
                format!("direct reference simulation failed: {e}"),
            ));
            return violations;
        }
    };

    for threads in [1usize, 3] {
        // A fresh engine per thread count, so every lane is walked
        // rather than served from the previous pass's memo.
        let fresh = ReplayEngine::new(Arc::clone(engine.table()), trace.clone());
        match fresh.verify_batch_with(config, &candidates, threads) {
            Ok(batched) => {
                if batched.len() != direct.len() {
                    violations.push(Violation::new(
                        "batch-vs-direct",
                        format!(
                            "batch of {} candidates (threads={threads}) returned {} lanes",
                            candidates.len(),
                            batched.len()
                        ),
                    ));
                    continue;
                }
                for (i, (got, want)) in batched.iter().zip(&direct).enumerate() {
                    if got.as_ref() != want {
                        violations.push(Violation::new(
                            "batch-vs-direct",
                            format!(
                                "batched lane {i} (threads={threads}) diverged from direct simulation"
                            ),
                        ));
                    }
                }
            }
            Err(e) => violations.push(Violation::new(
                "batch-vs-direct",
                format!("batched replay (threads={threads}) failed: {e}"),
            )),
        }
    }
    violations
}

/// Metamorphic: an operating point never changes what executes — it
/// only changes how the node-invariant counts are weighed.
///
/// * **counts** — the initial run's [`RunStats`] and the full search
///   outcome at a scaled point (180 nm nominal) equal the base
///   point's bit for bit;
/// * **weighting** — the resolved weights equal an independently
///   computed `energy_factor · (V/Vnom)²` / `derate / freq_factor` /
///   `area_factor` triple bit for bit, and applying them to the
///   scaled flow's searched design equals applying them to the base
///   flow's (the counts are shared, so the weighted tuples must be
///   bit-identical);
/// * **dvfs** — per node, lowering the supply within the DVFS range
///   never raises the energy weight, and the time weight factors
///   through the node process's
///   [`delay_derating`](corepart_tech::process::CmosProcess::delay_derating)
///   exactly: `time(vdd) == time(vnom) · derate(vdd)` in bits.
fn operating_point_invariants(app: &Application, workload: &Workload) -> Vec<Violation> {
    let mut violations = Vec::new();
    let base = base_config();
    let Some(row) = base.scaling.row(180).cloned() else {
        return vec![Violation::new(
            "operating-point",
            "default scaling table lost its 180nm row",
        )];
    };
    let vnom = row.nominal_vdd(&base.process);
    let point = OperatingPoint {
        node_nm: 180,
        vdd: vnom,
    };
    let scaled_config = base.clone().with_operating_point(point);

    let run_at = |config: SystemConfig| -> Result<(RunStats, PartitionOutcome), String> {
        let engine = Engine::new(config).map_err(|e| e.to_string())?;
        let session = engine.session(app, workload);
        let partitioner = Partitioner::new(&session).map_err(|e| e.to_string())?;
        let stats = partitioner.initial_stats().clone();
        let outcome = partitioner.run().map_err(|e| e.to_string())?;
        Ok((stats, outcome))
    };
    let (base_stats, base_outcome) = match run_at(base.clone()) {
        Ok(v) => v,
        Err(e) => return vec![Violation::new("error", format!("base-point flow: {e}"))],
    };
    let (scaled_stats, scaled_outcome) = match run_at(scaled_config.clone()) {
        Ok(v) => v,
        Err(e) => return vec![Violation::new("error", format!("scaled-point flow: {e}"))],
    };
    if base_stats != scaled_stats {
        violations.push(Violation::new(
            "operating-point",
            format!("initial RunStats changed at {point}"),
        ));
    }
    if !outcomes_equivalent(&base_outcome, &scaled_outcome) {
        violations.push(Violation::new(
            "operating-point",
            format!("search outcome changed at {point}"),
        ));
    }

    let rp = match scaled_config.resolved_point() {
        Ok(Some(rp)) => rp,
        Ok(None) => {
            return vec![Violation::new(
                "operating-point",
                "configured point resolved to None",
            )]
        }
        Err(e) => return vec![Violation::new("error", format!("resolve point: {e}"))],
    };
    let node_process = row.process(&base.process);
    let v_ratio = point.vdd / vnom;
    let expected = PointWeights {
        energy: row.energy_factor * v_ratio * v_ratio,
        time: (1.0 / row.freq_factor) * node_process.delay_derating(point.vdd),
        area: row.area_factor,
    };
    if rp.weights.energy.to_bits() != expected.energy.to_bits()
        || rp.weights.time.to_bits() != expected.time.to_bits()
        || rp.weights.area.to_bits() != expected.area.to_bits()
    {
        violations.push(Violation::new(
            "operating-point",
            format!(
                "resolved weights {:?} != analytic weights {:?} at {point}",
                rp.weights, expected
            ),
        ));
    }
    let pick = |o: &PartitionOutcome| match &o.best {
        Some((_, d)) => (
            d.metrics.total_energy(),
            d.metrics.total_cycles(),
            d.metrics.geq,
        ),
        None => (
            o.initial.total_energy(),
            o.initial.total_cycles(),
            GateEq::ZERO,
        ),
    };
    let (be, bc, bg) = pick(&base_outcome);
    let (se, sc, sg) = pick(&scaled_outcome);
    let wb = rp.weigh_raw(be, bc, bg);
    let ws = rp.weigh_raw(se, sc, sg);
    if wb.energy.joules().to_bits() != ws.energy.joules().to_bits()
        || wb.time.secs().to_bits() != ws.time.secs().to_bits()
        || wb.area_cells.to_bits() != ws.area_cells.to_bits()
    {
        violations.push(Violation::new(
            "operating-point",
            "scaled-point weighting of base counts diverged from the scaled flow".to_string(),
        ));
    }

    for row in base.scaling.rows() {
        let vnom = row.nominal_vdd(&base.process);
        let node = row.process(&base.process);
        let nominal = OperatingPoint {
            node_nm: row.node_nm,
            vdd: vnom,
        };
        let w_nom = match base.scaling.weights(&base.process, &nominal) {
            Ok(w) => w,
            Err(e) => {
                violations.push(Violation::new(
                    "operating-point",
                    format!("nominal point of node {} rejected: {e}", row.node_nm),
                ));
                continue;
            }
        };
        let mut prev_energy = f64::INFINITY;
        for vdd in row.vdd_sweep(&base.process, 4) {
            let p = OperatingPoint {
                node_nm: row.node_nm,
                vdd,
            };
            let w = match base.scaling.weights(&base.process, &p) {
                Ok(w) => w,
                Err(e) => {
                    violations.push(Violation::new(
                        "operating-point",
                        format!("sweep point {p} rejected: {e}"),
                    ));
                    continue;
                }
            };
            if w.energy > prev_energy {
                violations.push(Violation::new(
                    "operating-point",
                    format!(
                        "lowering vdd to {vdd} raised the energy weight at node {}",
                        row.node_nm
                    ),
                ));
            }
            prev_energy = w.energy;
            let derate = node.delay_derating(vdd);
            if w.time.to_bits() != (w_nom.time * derate).to_bits() {
                violations.push(Violation::new(
                    "operating-point",
                    format!(
                        "time weight at {p} does not factor through delay_derating \
                         ({} vs {})",
                        w.time,
                        w_nom.time * derate
                    ),
                ));
            }
        }
    }
    violations
}

/// Metamorphic: `OF = F·(E/E0) + G·(GEQ/GEQ0)` is strictly increasing
/// in `F` and non-decreasing in `G` (strictly when `GEQ > 0`), for
/// every observed design point.
fn of_monotone(config: &SystemConfig, observed: &[&DesignMetrics]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let e_norm = observed[0].total_energy();
    for metrics in observed {
        let energy = metrics.total_energy();
        // F sweep at fixed G.
        let mut last = f64::NEG_INFINITY;
        for f in [0.5, 1.0, 2.0] {
            let objective = Objective::new(&config.clone().with_factors(f, 0.2), e_norm);
            let value = objective.value(energy, metrics.geq);
            if value <= last {
                violations.push(Violation::new(
                    "of-monotone",
                    format!("OF not strictly increasing in F at F = {f} ({value} <= {last})"),
                ));
            }
            last = value;
        }
        // G sweep at fixed F.
        let mut last = f64::NEG_INFINITY;
        for g in G_SWEEP {
            let objective = Objective::new(&config.clone().with_factors(1.0, g), e_norm);
            let value = objective.value(energy, metrics.geq);
            let strict = metrics.geq != GateEq::ZERO && g > 0.0;
            if value < last || (strict && value <= last) {
                violations.push(Violation::new(
                    "of-monotone",
                    format!("OF not monotone in G at G = {g} ({value} vs {last})"),
                ));
            }
            last = value;
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn fixed_seeds_pass_the_battery() {
        for seed in [1, 2, 3] {
            let app = generate(seed);
            let violations = check_app(&app);
            assert!(
                violations.is_empty(),
                "seed {seed} violated: {violations:?}\n{}",
                app.source()
            );
        }
    }
}
