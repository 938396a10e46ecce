//! Fault-injection scenarios.
//!
//! Each scenario damages one layer of the spine on purpose and asserts
//! the *documented* degradation — and nothing else:
//!
//! * **cap-overflow** — with `trace_cap_bytes` 0 or too small for the
//!   run, the capture is discarded and every verification falls back
//!   to direct simulation, **bit-identically**
//!   ([`corepart::system::SystemConfig::trace_cap_bytes`]);
//! * **corrupt-trace** — a capture whose columns were damaged fails its
//!   fingerprint validation and replay refuses it with
//!   [`SimError::TraceCorrupt`] — it must never panic and never return
//!   statistics;
//! * **truncated-trace** — a capture whose tail was cut *and*
//!   re-fingerprinted (so validation alone cannot see the damage) is
//!   still rejected by replay's event-conservation check;
//! * **batch-corrupt** — a batched replay over a damaged capture fails
//!   the *whole batch* with [`SimError::TraceCorrupt`]: no panic and
//!   no partial lane results, even when some lanes alone would have
//!   replayed cleanly;
//! * **threaded-batch-corrupt** — the same wholesale rejection when
//!   the batch of a truncated capture is split into lane groups on two
//!   threads: every group walks the damaged trace on its own, and the
//!   batch must still fail as one [`SimError::TraceCorrupt`] with no
//!   partial statistics;
//! * **cache-evict** — recomputing an evicted schedule-cache entry
//!   reproduces the cached [`ScheduledCluster`] exactly;
//! * **cache-poison** — a deliberately wrong cache entry is returned
//!   verbatim by the cache (caches are authoritative), and the
//!   evict-and-recompute differential detects the divergence. The
//!   poisoned entries are single-cluster ones, and a multi-cluster
//!   trio is merged from single-cluster entries, so while the poison
//!   stands it also flows into every multi-cluster entry first
//!   computed from it; the scenario heals the entry before any such
//!   lookup.
//!
//! All hooks live behind the `conform` feature of `corepart-isa` and
//! `corepart-sched`; production code cannot reach them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use corepart::engine::Engine;
use corepart::error::CorepartError;
use corepart::evaluate::{evaluate_initial, Partition};
use corepart::flow::DesignFlow;
use corepart::partition::{schedule_key, Partitioner};
use corepart::prepare::Workload;
use corepart::verify::ReplayEngine;
use corepart_ir::cdfg::Application;
use corepart_ir::op::BlockId;
use corepart_isa::simulator::SimError;
use corepart_sched::cache::ScheduledCluster;

use crate::gen::GenApp;
use crate::oracle::{base_config, lower_app, Violation};

/// Runs every fault scenario on one generated application.
pub fn check_app(app: &GenApp) -> Vec<Violation> {
    let lowered = match lower_app(app) {
        Ok(a) => a,
        Err(e) => {
            return vec![Violation {
                oracle: "generate",
                detail: format!("generated app does not lower: {e}"),
            }]
        }
    };
    let workload = Workload::from_arrays(app.workload_arrays());
    check_lowered(&lowered, &workload)
}

/// The fault battery over an already-lowered application.
pub fn check_lowered(app: &Application, workload: &Workload) -> Vec<Violation> {
    let mut violations = Vec::new();
    violations.extend(cap_overflow(app, workload));
    violations.extend(trace_damage(app, workload));
    violations.extend(cache_damage(app, workload));
    violations
}

fn err(oracle: &'static str, detail: impl Into<String>) -> Violation {
    Violation {
        oracle,
        detail: detail.into(),
    }
}

/// Scenario: trace caps of 0 (capture disabled) and 64 bytes (any real
/// run overflows) must both yield the exact outcome of the default
/// cap — the fallback to direct simulation is bit-identical.
fn cap_overflow(app: &Application, workload: &Workload) -> Vec<Violation> {
    let mut violations = Vec::new();
    let base = base_config();
    let reference =
        match DesignFlow::with_config(base.clone()).run_app(app.clone(), workload.clone()) {
            Ok(r) => r.outcome,
            Err(e) => return vec![err("error", format!("reference flow: {e}"))],
        };
    for cap in [0usize, 64] {
        match DesignFlow::with_config(base.clone().with_trace_cap(cap))
            .run_app(app.clone(), workload.clone())
        {
            Ok(result) => {
                if result.outcome != reference {
                    violations.push(err(
                        "cap-overflow",
                        format!("trace_cap_bytes = {cap} changed the search outcome"),
                    ));
                }
            }
            Err(e) => violations.push(err(
                "cap-overflow",
                format!("trace_cap_bytes = {cap} flow errored instead of falling back: {e}"),
            )),
        }
    }
    violations
}

/// Scenarios: corrupted and truncated captures must be rejected with
/// [`SimError::TraceCorrupt`] — never a panic, never statistics.
fn trace_damage(app: &Application, workload: &Workload) -> Vec<Violation> {
    let mut violations = Vec::new();
    let engine = match Engine::new(base_config()) {
        Ok(e) => e,
        Err(e) => return vec![err("error", format!("engine build: {e}"))],
    };
    let session = engine.session(app, workload);
    let (prepared, config) = match session.prepared() {
        Ok(p) => (p, session.config()),
        Err(e) => return vec![err("error", format!("prepare: {e}"))],
    };
    let uncapped = config.clone().with_trace_cap(usize::MAX);
    let captured = match evaluate_initial(prepared, &uncapped, 1) {
        Ok(baseline) => baseline.replay,
        Err(e) => return vec![err("error", format!("captured evaluation: {e}"))],
    };
    let Some(captured) = captured else {
        return vec![err(
            "corrupt-trace",
            "uncapped capture unexpectedly absent".to_string(),
        )];
    };
    let trace = captured.trace();
    // Every probe replays its damaged copy on an engine of its own, so
    // no probe is answered from another's memo.
    let engine_for = |damaged: &corepart_isa::trace::ReferenceTrace| {
        ReplayEngine::new(Arc::clone(captured.table()), damaged.clone())
    };
    let hw_blocks = std::collections::HashSet::new();

    // Corrupt one byte of whichever column has one.
    let mut corrupted = trace.clone();
    if !corrupted.corrupt_byte(true, 0) && !corrupted.corrupt_byte(false, 0) {
        violations.push(err(
            "corrupt-trace",
            "capture has no column bytes to corrupt".to_string(),
        ));
    } else {
        if corrupted.validate().is_ok() {
            violations.push(err(
                "corrupt-trace",
                "corrupted capture passed fingerprint validation".to_string(),
            ));
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            engine_for(&corrupted).verify(config, &hw_blocks)
        }));
        match outcome {
            Err(_) => violations.push(err(
                "corrupt-trace",
                "replay of a corrupted capture panicked".to_string(),
            )),
            Ok(Ok(_)) => violations.push(err(
                "corrupt-trace",
                "replay of a corrupted capture produced statistics".to_string(),
            )),
            Ok(Err(SimError::TraceCorrupt { .. })) => {}
            Ok(Err(other)) => violations.push(err(
                "corrupt-trace",
                format!("replay failed with {other} instead of TraceCorrupt"),
            )),
        }
    }

    // Truncate the pc columns and re-stamp the fingerprint, so only the
    // replay-side event-conservation check can notice.
    let mut truncated = trace.clone();
    let removed = truncated.truncate_pcs(3);
    truncated.refingerprint();
    if removed == 0 {
        violations.push(err(
            "truncated-trace",
            "capture has no pc stretches to truncate".to_string(),
        ));
    } else {
        if let Err(e) = truncated.validate() {
            violations.push(err(
                "truncated-trace",
                format!("re-fingerprinted truncation failed validation early: {e}"),
            ));
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            engine_for(&truncated).verify(config, &hw_blocks)
        }));
        match outcome {
            Err(_) => violations.push(err(
                "truncated-trace",
                "replay of a truncated capture panicked".to_string(),
            )),
            Ok(Ok(_)) => violations.push(err(
                "truncated-trace",
                "replay of a truncated capture produced statistics".to_string(),
            )),
            Ok(Err(SimError::TraceCorrupt { .. })) => {
                // Also pin the error's path into the library error
                // type: it must arrive as CorepartError::Sim, not get
                // swallowed.
                let wrapped = CorepartError::from(SimError::TraceCorrupt {
                    detail: "conformance probe".to_string(),
                });
                if !wrapped.to_string().contains("corrupt") {
                    violations.push(err(
                        "truncated-trace",
                        format!("TraceCorrupt loses its message through CorepartError: {wrapped}"),
                    ));
                }
            }
            Ok(Err(other)) => violations.push(err(
                "truncated-trace",
                format!("replay failed with {other} instead of TraceCorrupt"),
            )),
        }

        // The batched kernel must reject the damaged capture wholesale:
        // one typed error for the whole batch, never partial lanes —
        // even though the all-software lane alone replays cleanly on an
        // undamaged trace.
        let all_blocks: std::collections::HashSet<BlockId> = (0..prepared.app.blocks().len())
            .map(|b| BlockId(b as u32))
            .collect();
        let candidates = vec![hw_blocks.clone(), all_blocks];
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            engine_for(&truncated).verify_batch(config, &candidates)
        }));
        match outcome {
            Err(_) => violations.push(err(
                "batch-corrupt",
                "batched replay of a truncated capture panicked".to_string(),
            )),
            Ok(Ok(_)) => violations.push(err(
                "batch-corrupt",
                "batched replay of a truncated capture produced lane results".to_string(),
            )),
            Ok(Err(SimError::TraceCorrupt { .. })) => {}
            Ok(Err(other)) => violations.push(err(
                "batch-corrupt",
                format!("batched replay failed with {other} instead of TraceCorrupt"),
            )),
        }

        // And split into lane groups on two threads: each group walks
        // the truncated capture on its own, yet the whole batch must
        // fail as one TraceCorrupt, with no partial lane results.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            engine_for(&truncated).verify_batch_with(config, &candidates, 2)
        }));
        match outcome {
            Err(_) => violations.push(err(
                "threaded-batch-corrupt",
                "threaded batch of a truncated capture panicked".to_string(),
            )),
            Ok(Ok(_)) => violations.push(err(
                "threaded-batch-corrupt",
                "threaded batch of a truncated capture produced lane results".to_string(),
            )),
            Ok(Err(SimError::TraceCorrupt { .. })) => {}
            Ok(Err(other)) => violations.push(err(
                "threaded-batch-corrupt",
                format!("threaded batch failed with {other} instead of TraceCorrupt"),
            )),
        }
    }

    violations
}

/// Scenarios: schedule-cache eviction must recompute the identical
/// [`ScheduledCluster`]; a poisoned entry is served verbatim and the
/// evict-and-recompute differential must expose it.
fn cache_damage(app: &Application, workload: &Workload) -> Vec<Violation> {
    let mut violations = Vec::new();
    let engine = match Engine::new(base_config()) {
        Ok(e) => e,
        Err(e) => return vec![err("error", format!("engine build: {e}"))],
    };
    let session = engine.session(app, workload);
    let partitioner = match Partitioner::new(&session) {
        Ok(p) => p,
        Err(e) => return vec![err("error", format!("partitioner: {e}"))],
    };

    // Collect feasible (cluster, resource set) partitions with their
    // schedules; we need one to evict and ideally a second, different
    // schedule to poison with.
    let mut feasible: Vec<(Partition, std::sync::Arc<ScheduledCluster>)> = Vec::new();
    'outer: for candidate in partitioner.candidates() {
        for set_index in 0.. {
            let Ok(set) = partitioner.config().resource_set(set_index) else {
                break;
            };
            let partition = Partition::single(candidate.cluster, set.clone());
            if let Ok(scheduled) = partitioner.scheduled(&partition) {
                feasible.push((partition, scheduled));
                if feasible.len() >= 2 {
                    break 'outer;
                }
                break; // one set per cluster is enough
            }
        }
    }
    let Some((partition, original)) = feasible.first().cloned() else {
        // Nothing schedulable (e.g. a straight-line app with no
        // clusters): the scenario does not apply.
        return violations;
    };

    // Evict, recompute, compare.
    let key = schedule_key(&partition);
    if !partitioner.schedule_cache().evict(&key) {
        violations.push(err(
            "cache-evict",
            "schedule entry missing from cache right after scheduling".to_string(),
        ));
    }
    match partitioner.scheduled(&partition) {
        Ok(recomputed) => {
            if *recomputed != *original {
                violations.push(err(
                    "cache-evict",
                    "recomputed schedule differs from the evicted cache entry".to_string(),
                ));
            }
        }
        Err(e) => violations.push(err(
            "cache-evict",
            format!("recompute after eviction failed: {e}"),
        )),
    }

    // Poison with a *different* schedule and check the differential
    // detects it.
    if let Some((_, other)) = feasible.get(1) {
        if **other != *original {
            partitioner
                .schedule_cache()
                .poison(key.clone(), (**other).clone());
            match partitioner.scheduled(&partition) {
                Ok(served) => {
                    if *served != **other {
                        violations.push(err(
                            "cache-poison",
                            "cache did not serve the poisoned entry verbatim".to_string(),
                        ));
                    }
                    if *served == *original {
                        violations.push(err(
                            "cache-poison",
                            "poisoned entry indistinguishable from the real schedule \
                             (differential cannot detect poisoning)"
                                .to_string(),
                        ));
                    }
                }
                Err(e) => violations.push(err(
                    "cache-poison",
                    format!("lookup of poisoned entry failed: {e}"),
                )),
            }
            // Heal the cache and confirm the recompute restores truth.
            partitioner.schedule_cache().evict(&key);
            match partitioner.scheduled(&partition) {
                Ok(healed) => {
                    if *healed != *original {
                        violations.push(err(
                            "cache-poison",
                            "recompute after healing a poisoned entry diverged".to_string(),
                        ));
                    }
                }
                Err(e) => violations.push(err(
                    "cache-poison",
                    format!("recompute after healing failed: {e}"),
                )),
            }
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn fixed_seeds_survive_fault_injection() {
        for seed in [1, 5] {
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
