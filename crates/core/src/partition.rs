//! The low-power partitioning loop — the Fig. 1 algorithm.
//!
//! The search follows the paper's two-phase structure:
//!
//! * **Estimate phase** (lines 3–13): for every pre-selected cluster ×
//!   every designer resource set, list-schedule, bind and compute
//!   `U_R^core`; reject candidates that do not beat the µP's
//!   utilization (`U_R > U_µP`, line 9); score survivors with the
//!   objective function using the *quick* energy estimates. This never
//!   runs a simulation — it is the fast inner loop the pre-selection
//!   exists to keep small.
//! * **Verification phase** (lines 14–15): the best-`OF` candidate is
//!   "synthesized" (full datapath estimate) and verified by the
//!   whole-system simulation: ISS + caches + memory + gate-level-style
//!   ASIC energy. Only a verified improvement is reported.
//!
//! On top of the single-cluster loop, [`Partitioner::run`] grows the
//! chosen partition greedily: neighbouring clusters whose addition
//! improves the (estimated, then verified) objective join the ASIC
//! core, benefiting from the synergy discounts of Fig. 3.
//!
//! ## The parallel, memoizing engine
//!
//! The estimate grid (candidates × resource sets) and each growth
//! round are parallel maps ([`crate::parallel::par_map`]) whose
//! results are folded **sequentially in candidate order**: the strict
//! `<` comparison keeps the first-in-order winner on ties and each
//! growth round adopts the first improving candidate in order, exactly
//! what the sequential scan did. Schedules are memoized in a
//! [`ScheduleCache`] (one compute per key even under races), so both
//! the chosen partition *and* the statistics are bit-identical for
//! every [`SystemConfig::threads`] value.
//!
//! Verification reuses both memoization layers: the winning
//! candidate's schedule trio was already computed during the estimate
//! phase (a guaranteed cache hit), and the µP + cache-hierarchy
//! simulation is served by the trace-replay engine
//! ([`crate::verify`]) captured during the initial run — one
//! simulation per workload, bit-identical re-accounting per candidate.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use corepart_ir::cluster::ClusterId;
use corepart_ir::op::BlockId;
use corepart_isa::profile::CoreUtilization;
use corepart_isa::simulator::RunStats;
use corepart_sched::cache::{ScheduleCache, ScheduledCluster};
use corepart_sched::datapath::estimate_datapath;
use corepart_sched::dfg::BlockDfgs;
use corepart_sched::energy::estimate_energy;
use corepart_tech::energy::MemoryEnergyModel;
use corepart_tech::resource::ResourceKind;
use corepart_tech::units::Energy;

use crate::bus_transfer::transfer_counts;
use crate::engine::Session;
use crate::error::CorepartError;
use crate::evaluate::{
    cluster_blocks, evaluate_partition_with, schedule_trio, Partition, PartitionDetail,
};
use crate::objective::Objective;
use crate::parallel::par_map;
use crate::prepare::PreparedApp;
use crate::preselect::{preselect, CandidateScore};
use crate::system::{DesignMetrics, SystemConfig};
use crate::verify::ReplayEngine;

/// The memoization key of one synthesis request: the partition's
/// clusters (in partition order — block order matters to the
/// scheduler) plus the resource set's identity (name and exact
/// contents).
pub type ScheduleKey = (Vec<ClusterId>, String, Vec<(ResourceKind, u32)>);

/// The [`ScheduleKey`] of one candidate partition — the estimate
/// phase and the verification path build it identically, which is
/// what lets verification reuse estimate-phase cache entries. Public
/// so external tooling (the conformance harness's cache-poisoning
/// probes) can address the exact entry a partition resolves to.
pub fn schedule_key(partition: &Partition) -> ScheduleKey {
    (
        partition.clusters.clone(),
        partition.set.name().to_owned(),
        partition.set.iter().collect(),
    )
}

/// Counters describing how the search went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Clusters surviving pre-selection.
    pub candidates: usize,
    /// (cluster, set) pairs estimated.
    pub estimated: usize,
    /// Pairs rejected by the `U_R > U_µP` test (Fig. 1 line 9).
    pub rejected_by_utilization: usize,
    /// Pairs whose resource set could not execute the cluster.
    pub infeasible: usize,
    /// Greedy growth steps that improved the objective.
    pub growth_steps: usize,
    /// Full verifications run (Fig. 1 lines 14–15).
    pub verifications: usize,
    /// Verifications served by the trace-replay engine instead of a
    /// fresh instruction-set simulation.
    pub replayed: usize,
    /// Replay walks run by this search's verification: 1 when the
    /// winner was replayed afresh, 0 when the replay memo already held
    /// it (an `explore` batch verified it first) or no trace exists.
    pub batched_replays: usize,
    /// Schedule-cache lookups served from memory during this run.
    pub cache_hits: u64,
    /// Schedule-cache lookups that ran the scheduler (distinct keys).
    pub cache_misses: u64,
    /// Wall time of the estimate phase, nanoseconds.
    pub estimate_nanos: u64,
    /// Wall time of the greedy growth phase, nanoseconds.
    pub growth_nanos: u64,
    /// Wall time of the verification phase, nanoseconds.
    pub verify_nanos: u64,
}

impl PartialEq for SearchStats {
    /// Wall-time fields and the `replayed`/`batched_replays` mechanism
    /// counters are excluded: two runs are equal when they computed
    /// the same results, however long the clock said it took and
    /// whichever (bit-identical) verification path served them.
    fn eq(&self, other: &Self) -> bool {
        self.candidates == other.candidates
            && self.estimated == other.estimated
            && self.rejected_by_utilization == other.rejected_by_utilization
            && self.infeasible == other.infeasible
            && self.growth_steps == other.growth_steps
            && self.verifications == other.verifications
            && self.cache_hits == other.cache_hits
            && self.cache_misses == other.cache_misses
    }
}

impl Eq for SearchStats {}

/// The result of a partitioning run.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionOutcome {
    /// The initial design's metrics (Table 1 "I" row).
    pub initial: DesignMetrics,
    /// The verified best partition (Table 1 "P" row), or `None` when no
    /// candidate beat the initial design.
    pub best: Option<(Partition, PartitionDetail)>,
    /// Search statistics.
    pub search: SearchStats,
}

impl PartitionOutcome {
    /// Energy saving of the chosen partition in percent, if one was
    /// found.
    pub fn energy_saving_percent(&self) -> Option<f64> {
        self.best
            .as_ref()
            .and_then(|(_, d)| d.metrics.energy_saving_vs(&self.initial))
    }

    /// Execution-time change of the chosen partition in percent
    /// (negative = faster), if one was found.
    pub fn time_change_percent(&self) -> Option<f64> {
        self.best
            .as_ref()
            .and_then(|(_, d)| d.metrics.time_change_vs(&self.initial))
    }
}

/// One estimated candidate (estimate phase output).
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatedCandidate {
    /// The candidate partition.
    pub partition: Partition,
    /// Its ASIC utilization.
    pub u_r: f64,
    /// The estimated objective value.
    pub of_value: f64,
    /// The estimated total system energy.
    pub energy: Energy,
}

/// The partitioner, bound to one [`Session`]'s stage artifacts: the
/// prepared application, the initial-design baseline (metrics, run
/// statistics, replay engine) and the shared schedule cache all come
/// from — and are shared through — the session's [`crate::engine`]
/// pools.
#[derive(Debug)]
pub struct Partitioner<'a> {
    prepared: &'a PreparedApp,
    config: &'a SystemConfig,
    initial: &'a DesignMetrics,
    initial_stats: &'a RunStats,
    u_up: f64,
    objective: Objective,
    cache: Arc<ScheduleCache<ScheduleKey>>,
    /// Each block's DFG, built once for every resource set this search
    /// schedules it on, and dropped with the search.
    dfgs: BlockDfgs<'a>,
    replay: Option<Arc<ReplayEngine>>,
    threads: usize,
}

impl<'a> Partitioner<'a> {
    /// Opens the partitioner on a session, resolving the session's
    /// prepared application and initial-design baseline (lazily
    /// computed, shared with sibling sessions — see
    /// [`crate::engine`]), and sets up the objective function.
    ///
    /// # Errors
    ///
    /// The session's memoized preparation or simulation failure.
    pub fn new(session: &'a Session<'_>) -> Result<Self, CorepartError> {
        let prepared = session.prepared()?;
        let baseline = session.baseline()?;
        let config = session.config();
        let u_up = CoreUtilization::from_stats(&baseline.stats).mean();
        let objective = Objective::new(config, baseline.metrics.total_energy());
        Ok(Partitioner {
            prepared,
            config,
            initial: &baseline.metrics,
            initial_stats: &baseline.stats,
            u_up,
            objective,
            cache: Arc::clone(session.schedule_cache()),
            dfgs: BlockDfgs::new(&prepared.app),
            replay: baseline.replay.clone(),
            threads: session.threads(),
        })
    }

    /// The schedule cache backing this partitioner's estimates.
    pub fn schedule_cache(&self) -> &Arc<ScheduleCache<ScheduleKey>> {
        &self.cache
    }

    /// The replay engine backing verifications, when the reference
    /// trace was captured (absent when `trace_cap_bytes` is 0 or the
    /// capture overflowed the cap).
    pub fn replay_engine(&self) -> Option<&Arc<ReplayEngine>> {
        self.replay.as_ref()
    }

    /// The resolved worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The initial design's metrics.
    pub fn initial(&self) -> &DesignMetrics {
        self.initial
    }

    /// The prepared application this partitioner works on.
    pub fn prepared(&self) -> &PreparedApp {
        self.prepared
    }

    /// The system configuration in use.
    pub fn config(&self) -> &SystemConfig {
        self.config
    }

    /// The initial run's statistics (per-block attribution).
    pub fn initial_stats(&self) -> &RunStats {
        self.initial_stats
    }

    /// `U_µP^core` of the initial run.
    pub fn u_up(&self) -> f64 {
        self.u_up
    }

    /// The objective function in use.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// The pre-selected candidate clusters (Fig. 1 line 5).
    pub fn candidates(&self) -> Vec<CandidateScore> {
        preselect(self.prepared, self.initial_stats, self.config)
    }

    /// Fully evaluates (verifies) one partition — Fig. 1 lines 14–15.
    ///
    /// The schedule trio is served from (and feeds) this partitioner's
    /// [`ScheduleCache`] — the estimate phase already computed the
    /// winning candidate's entry, so verification hits it — and the
    /// µP/cache-hierarchy side replays the captured reference trace
    /// when one is available, falling back to direct simulation
    /// otherwise. Both layers are bit-identical to the uncached path.
    ///
    /// # Errors
    ///
    /// Infeasible resource sets or simulation failures.
    pub fn evaluate(&self, partition: &Partition) -> Result<PartitionDetail, CorepartError> {
        evaluate_partition_with(
            self.prepared,
            partition,
            self.initial_stats,
            self.config,
            Some(&self.cache),
            self.replay.as_deref(),
        )
    }

    /// The memoized schedule trio — list schedule, binding,
    /// utilization — of one candidate partition, served from (and
    /// feeding) the session's shared [`ScheduleCache`]. This is the
    /// synthesis step every consumer shares: the estimate phase, full
    /// verification, and the multi-core per-core evaluation all hit
    /// the same entries.
    ///
    /// # Errors
    ///
    /// The (memoized) [`CorepartError::Sched`] when the partition's
    /// resource set cannot execute its clusters.
    pub fn scheduled(&self, partition: &Partition) -> Result<Arc<ScheduledCluster>, CorepartError> {
        let blocks = cluster_blocks(self.prepared, partition.clusters.iter().copied());
        schedule_trio(
            self.prepared,
            self.config,
            partition,
            &blocks,
            Some(&self.cache),
            &self.dfgs,
        )
    }

    /// Estimate phase for one candidate partition (no simulation):
    /// schedule + bind + `U_R` + quick energies + `OF`.
    ///
    /// Returns `Ok(None)` when the candidate fails the `U_R > U_µP`
    /// test of Fig. 1 line 9.
    ///
    /// # Errors
    ///
    /// [`CorepartError::Sched`] when the set cannot execute the
    /// clusters.
    pub fn estimate(
        &self,
        partition: &Partition,
    ) -> Result<Option<EstimatedCandidate>, CorepartError> {
        self.estimate_inner(partition, true)
    }

    /// Like [`Partitioner::estimate`], with the Fig.-1-line-9
    /// utilization gate optional: the gate screens *seed* clusters, but
    /// greedy growth is judged by the objective alone (a grown
    /// partition's combined `U_R` may dip below `U_µP` while still
    /// lowering total energy, e.g. when absorbing the small glue
    /// cluster between two hot loops).
    fn estimate_inner(
        &self,
        partition: &Partition,
        enforce_gate: bool,
    ) -> Result<Option<EstimatedCandidate>, CorepartError> {
        let hw_blocks = cluster_blocks(self.prepared, partition.clusters.iter().copied());
        let synth = schedule_trio(
            self.prepared,
            self.config,
            partition,
            &hw_blocks,
            Some(&self.cache),
            &self.dfgs,
        )?;
        let ScheduledCluster {
            sched,
            binding,
            util,
        } = &*synth;

        // Fig. 1 line 9: only clusters that utilize the ASIC datapath
        // better than the µP utilizes itself *while running this
        // cluster* can save energy (per-cluster comparison, §3.2).
        let u_up_region = CoreUtilization::for_blocks(self.initial_stats, &hw_blocks).mean();
        if enforce_gate && util.u_r <= self.config.gate_margin * u_up_region {
            return Ok(None);
        }

        // Line 11: quick ASIC-energy estimate.
        let e_r = estimate_energy(util, binding, &self.config.library);

        // Line 12: remaining software energy.
        let e_cluster: Energy = partition
            .clusters
            .iter()
            .map(|&cid| {
                self.initial_stats
                    .energy_of(&self.prepared.chain.cluster(cid).blocks)
            })
            .sum();
        let e_up = self.initial.up_core - e_cluster;

        // Communication energy (the E_Trans of line 4, with synergy
        // among the chosen clusters).
        let on_asic: HashSet<ClusterId> = partition.clusters.iter().copied().collect();
        let mem_model =
            MemoryEnergyModel::analytical(&self.config.process, self.config.memory_bytes);
        let mut e_comm = Energy::ZERO;
        for &cid in &partition.clusters {
            let cluster = self.prepared.chain.cluster(cid);
            let mut others = on_asic.clone();
            others.remove(&cid);
            let counts = transfer_counts(&self.prepared.chain, cid, &others);
            let inv = corepart_ir::cluster::cluster_invocations(
                &self.prepared.app,
                &self.prepared.profile,
                cluster,
            );
            e_comm += (self.config.bus.write() + mem_model.write_word()) * (counts.words_in * inv)
                + (self.config.bus.read() + mem_model.read_word()) * (counts.words_out * inv);
        }

        // E_rest: the other cores, taken from the initial design at
        // estimate time (the verification re-simulates them).
        let e_rest = self.initial.icache + self.initial.dcache + self.initial.mem;

        let datapath = estimate_datapath(sched, binding, &self.config.library);
        let energy = e_r + e_up + e_comm + e_rest;
        let of_value = self.objective.value(energy, datapath.total());

        Ok(Some(EstimatedCandidate {
            partition: partition.clone(),
            u_r: util.u_r,
            of_value,
            energy,
        }))
    }

    /// The hardware-block set a partition induces: the blocks of its
    /// clusters, in chain order — the exact set verification replays
    /// under (and the [`crate::verify::ReplayEngine`] memo key, once
    /// sorted).
    pub fn hw_set_of(&self, partition: &Partition) -> HashSet<BlockId> {
        cluster_blocks(self.prepared, partition.clusters.iter().copied())
            .into_iter()
            .collect()
    }

    /// Runs the full Fig. 1 search: pre-selection, the estimate loop
    /// over clusters × resource sets, greedy multi-cluster growth, and
    /// final verification.
    ///
    /// Equivalent to [`Partitioner::search`] followed by
    /// [`Partitioner::finish`].
    ///
    /// # Errors
    ///
    /// Simulation failures during verification (estimate-phase
    /// infeasibilities are skipped and counted instead).
    pub fn run(&self) -> Result<PartitionOutcome, CorepartError> {
        self.finish(self.search()?)
    }

    /// The search half of [`Partitioner::run`] — pre-selection, the
    /// estimate grid, greedy growth — with **no** verification: the
    /// returned [`SearchPhase`] carries the winning estimated
    /// candidate (if any) and the statistics so far. Callers batch the
    /// winner's replay across many searches (see [`crate::explore()`])
    /// before closing each phase with [`Partitioner::finish`].
    ///
    /// # Errors
    ///
    /// Non-scheduling estimate failures (infeasibilities are counted,
    /// not raised).
    pub fn search(&self) -> Result<SearchPhase, CorepartError> {
        let candidates = self.candidates();
        let mut search = SearchStats {
            candidates: candidates.len(),
            ..SearchStats::default()
        };
        let (hits_before, misses_before) = (self.cache.hits(), self.cache.misses());

        // --- Estimate loop (Fig. 1 lines 6-13): the whole candidate ×
        // resource-set grid is estimated in parallel, then folded
        // sequentially in grid order — the strict `<` keeps the
        // first-in-order winner on ties, so the result is identical to
        // the sequential scan for any thread count. ---
        let estimate_started = Instant::now();
        let grid: Vec<Partition> = candidates
            .iter()
            .flat_map(|cand| {
                self.config
                    .resource_sets
                    .iter()
                    .map(|set| Partition::single(cand.cluster, set.clone()))
            })
            .collect();
        search.estimated += grid.len();
        let estimates = par_map(&grid, self.threads, |_, partition| self.estimate(partition));
        let mut best_est: Option<EstimatedCandidate> = None;
        for result in estimates {
            match result {
                Ok(Some(est)) => {
                    if est.of_value < self.objective.initial_value()
                        && best_est
                            .as_ref()
                            .map(|b| est.of_value < b.of_value)
                            .unwrap_or(true)
                    {
                        best_est = Some(est);
                    }
                }
                Ok(None) => search.rejected_by_utilization += 1,
                Err(CorepartError::Sched(_)) => search.infeasible += 1,
                Err(other) => return Err(other),
            }
        }
        search.estimate_nanos = estimate_started.elapsed().as_nanos() as u64;

        let Some(mut best) = best_est else {
            return Ok(SearchPhase {
                search,
                best: None,
                hits_before,
                misses_before,
            });
        };

        // --- Greedy growth: co-locate more clusters on the ASIC core
        // while the estimated objective keeps improving. Each round
        // estimates every remaining candidate in parallel, then adopts
        // the first improving one in candidate order — the same
        // cluster the sequential scan-and-break selected. ---
        let growth_started = Instant::now();
        loop {
            let chosen: HashSet<ClusterId> = best.partition.clusters.iter().copied().collect();
            let grown: Vec<Partition> = candidates
                .iter()
                .filter(|cand| !chosen.contains(&cand.cluster))
                .map(|cand| {
                    let mut grown = best.partition.clone();
                    grown.clusters.push(cand.cluster);
                    grown.clusters.sort();
                    grown
                })
                .collect();
            if grown.is_empty() {
                break;
            }
            search.estimated += grown.len();
            let estimates = par_map(&grown, self.threads, |_, partition| {
                self.estimate_inner(partition, false)
            });
            let mut improved = false;
            for result in estimates {
                match result {
                    Ok(Some(est)) if !improved && est.of_value < best.of_value => {
                        best = est;
                        improved = true;
                        search.growth_steps += 1;
                    }
                    Ok(Some(_)) | Ok(None) => {}
                    Err(CorepartError::Sched(_)) => search.infeasible += 1,
                    Err(other) => return Err(other),
                }
            }
            if !improved {
                break;
            }
        }
        search.growth_nanos = growth_started.elapsed().as_nanos() as u64;

        Ok(SearchPhase {
            search,
            best: Some(best),
            hits_before,
            misses_before,
        })
    }

    /// The verification half of [`Partitioner::run`] — Fig. 1 lines
    /// 14–15 plus the §3.5 "could the total system energy be
    /// reduced?" check — closing a [`SearchPhase`]. When the winner's
    /// replay was pre-seeded by a batch, the evaluation here is a memo
    /// hit and walks nothing; the outcome is bit-identical either way.
    ///
    /// # Errors
    ///
    /// Simulation failures during verification.
    pub fn finish(&self, phase: SearchPhase) -> Result<PartitionOutcome, CorepartError> {
        let SearchPhase {
            mut search,
            best,
            hits_before,
            misses_before,
        } = phase;
        let Some(best) = best else {
            search.cache_hits = self.cache.hits() - hits_before;
            search.cache_misses = self.cache.misses() - misses_before;
            return Ok(PartitionOutcome {
                initial: self.initial.clone(),
                best: None,
                search,
            });
        };

        let verify_started = Instant::now();
        search.verifications += 1;
        if self.replay.is_some() {
            search.replayed += 1;
        }
        let walks = || self.replay.as_ref().map_or(0, |r| r.batches());
        let walks_before = walks();
        let detail = self.evaluate(&best.partition)?;
        search.batched_replays += (walks() - walks_before) as usize;
        let verified_better =
            detail.metrics.total_energy().joules() < self.initial.total_energy().joules();
        search.verify_nanos = verify_started.elapsed().as_nanos() as u64;
        search.cache_hits = self.cache.hits() - hits_before;
        search.cache_misses = self.cache.misses() - misses_before;

        Ok(PartitionOutcome {
            initial: self.initial.clone(),
            best: verified_better.then_some((best.partition, detail)),
            search,
        })
    }
}

/// The intermediate product between [`Partitioner::search`] and
/// [`Partitioner::finish`]: the statistics accumulated so far, the
/// winning estimated candidate (if any), and the schedule-cache
/// counter snapshots the finish uses to compute this run's deltas.
#[derive(Debug)]
pub struct SearchPhase {
    /// Statistics so far; `finish` completes the verification fields.
    search: SearchStats,
    best: Option<EstimatedCandidate>,
    hits_before: u64,
    misses_before: u64,
}

impl SearchPhase {
    /// The winning estimated candidate, when the estimate phase found
    /// one that beats the initial design.
    pub fn best(&self) -> Option<&EstimatedCandidate> {
        self.best.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::prepare::Workload;
    use corepart_ir::cdfg::Application;
    use corepart_ir::lower::lower;
    use corepart_ir::parser::parse;

    fn make(
        src: &str,
        workload: Workload,
        config: SystemConfig,
    ) -> (Engine, Application, Workload) {
        let app = lower(&parse(src).unwrap()).unwrap();
        (Engine::new(config).unwrap(), app, workload)
    }

    const DSP: &str = r#"app dsp; var x[256]; var y[256]; var s = 0;
        func main() {
            for (var i = 1; i < 255; i = i + 1) {
                y[i] = (x[i - 1] * 3 + x[i] * 5 + x[i + 1] * 3) >> 4;
            }
            for (var j = 0; j < 256; j = j + 1) { s = s + y[j]; }
            return s;
        }"#;

    fn dsp_workload() -> Workload {
        Workload::from_arrays([(
            "x",
            (0..256)
                .map(|i| (i * 31 + 7) % 255 - 128)
                .collect::<Vec<i64>>(),
        )])
    }

    #[test]
    fn finds_an_energy_saving_partition() {
        let (engine, app, workload) = make(DSP, dsp_workload(), SystemConfig::new());
        let session = engine.session(&app, &workload);
        let partitioner = Partitioner::new(&session).unwrap();
        let outcome = partitioner.run().unwrap();
        let (partition, detail) = outcome.best.as_ref().expect("a partition must be found");
        assert!(!partition.clusters.is_empty());
        let saving = outcome.energy_saving_percent().unwrap();
        assert!(
            saving > 20.0,
            "DSP kernel should save substantially, got {saving:.1}%"
        );
        // Utilization test held.
        assert!(detail.u_r > partitioner.u_up());
        // Hardware stayed in the paper's band.
        assert!(detail.metrics.geq.cells() < 40_000);
        assert!(outcome.search.candidates > 0);
        assert!(outcome.search.estimated > 0);
    }

    #[test]
    fn estimate_rejects_low_utilization() {
        let (engine, app, workload) = make(DSP, dsp_workload(), SystemConfig::new());
        let session = engine.session(&app, &workload);
        let partitioner = Partitioner::new(&session).unwrap();
        let config = session.config();
        let hot = partitioner
            .prepared()
            .chain
            .iter()
            .find(|c| c.is_loop())
            .unwrap()
            .id;
        // The huge xl-dsp set on a modest kernel: utilization dives.
        let est = partitioner
            .estimate(&Partition::single(
                hot,
                config.resource_set(4).unwrap().clone(),
            ))
            .unwrap();
        let est_small = partitioner
            .estimate(&Partition::single(
                hot,
                config.resource_set(2).unwrap().clone(),
            ))
            .unwrap();
        if let (Some(l), Some(s)) = (&est, &est_small) {
            assert!(s.u_r >= l.u_r);
        }
        // At least one variant must pass the utilization test.
        assert!(est.is_some() || est_small.is_some());
    }

    #[test]
    fn control_code_yields_no_partition() {
        // Irregular, branchy, low-reuse code: no cluster should beat
        // the initial design.
        let (engine, app, workload) = make(
            r#"app ctl; var s = 0;
            func main() {
                if (s == 0) { s = 1; } else { s = 2; }
                if (s > 1) { s = s - 1; }
                return s;
            }"#,
            Workload::empty(),
            SystemConfig::new(),
        );
        let session = engine.session(&app, &workload);
        let partitioner = Partitioner::new(&session).unwrap();
        let outcome = partitioner.run().unwrap();
        assert!(outcome.best.is_none());
    }

    #[test]
    fn factor_f_changes_the_choice() {
        // With a crushing hardware weight, nothing is worth synthesis.
        let (engine, app, workload) = make(
            DSP,
            dsp_workload(),
            SystemConfig::new().with_factors(1.0, 1000.0),
        );
        let session = engine.session(&app, &workload);
        let partitioner = Partitioner::new(&session).unwrap();
        let outcome = partitioner.run().unwrap();
        assert!(
            outcome.best.is_none(),
            "a 1000x hardware weight must reject every candidate"
        );
    }

    #[test]
    fn outcome_accessors() {
        let (engine, app, workload) = make(DSP, dsp_workload(), SystemConfig::new());
        let session = engine.session(&app, &workload);
        let partitioner = Partitioner::new(&session).unwrap();
        let outcome = partitioner.run().unwrap();
        assert!(outcome.energy_saving_percent().is_some());
        assert!(outcome.time_change_percent().is_some());
        assert!(partitioner.initial().up_core.joules() > 0.0);
        assert!(partitioner.initial_stats().cycles.count() > 0);
        assert!(partitioner.objective().initial_value() > 0.0);
    }
}
