//! One named test per fault-injection scenario, each asserting the
//! *documented* degradation on a fixed, hand-written application —
//! independent of the generator, so a scenario regression cannot hide
//! behind a generator change.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use corepart::engine::Engine;
use corepart::evaluate::{evaluate_initial, run_iss, Partition};
use corepart::flow::DesignFlow;
use corepart::partition::{schedule_key, Partitioner};
use corepart::prepare::Workload;
use corepart::system::SystemConfig;
use corepart::verify::ReplayEngine;
use corepart_ir::lower::lower;
use corepart_ir::op::BlockId;
use corepart_ir::parser::parse;
use corepart_isa::simulator::SimError;
use corepart_isa::trace::ReferenceTrace;

const APP: &str = r#"app fault; var x[64]; var y[64]; var s = 0;
    func main() {
        for (var i = 1; i < 63; i = i + 1) {
            y[i] = (x[i - 1] + 2 * x[i] + x[i + 1]) >> 2;
        }
        for (var j = 0; j < 64; j = j + 1) { s = s + y[j]; }
        return s;
    }"#;

fn workload() -> Workload {
    Workload::from_arrays([("x", (0..64).map(|i| (i * 7) % 31).collect::<Vec<i64>>())])
}

fn app() -> corepart_ir::cdfg::Application {
    lower(&parse(APP).unwrap()).unwrap()
}

/// The replay engine of an uncapped capture of the reference run,
/// plus the session pieces replay needs.
fn captured(engine: &Engine) -> (Arc<ReplayEngine>, corepart_ir::cdfg::Application, Workload) {
    let application = app();
    let load = workload();
    let session = engine.session(&application, &load);
    let prepared = session.prepared().unwrap();
    let uncapped = session.config().clone().with_trace_cap(usize::MAX);
    let baseline = evaluate_initial(prepared, &uncapped, 1).unwrap();
    (
        baseline.replay.expect("uncapped capture exists"),
        application,
        load,
    )
}

/// A fresh engine over `damaged`, on the capture's own decode table:
/// the only way to replay a trace.
fn engine_over(captured: &ReplayEngine, damaged: &ReferenceTrace) -> ReplayEngine {
    ReplayEngine::new(Arc::clone(captured.table()), damaged.clone())
}

#[test]
fn cap_overflow_falls_back_bit_identically() {
    // Scenario: trace_cap_bytes = 0 (capture disabled) and = 64 (any
    // real run overflows) both fall back to direct simulation with
    // the exact outcome of the replay-backed default.
    let reference = DesignFlow::new().run_source(APP, workload()).unwrap();
    for cap in [0usize, 64] {
        let config = SystemConfig::new().with_trace_cap(cap);
        let capped = DesignFlow::with_config(config)
            .run_source(APP, workload())
            .unwrap();
        assert_eq!(
            capped.outcome, reference.outcome,
            "trace_cap_bytes = {cap} changed the outcome"
        );
    }
}

#[test]
fn corrupted_trace_is_rejected_not_replayed() {
    let engine = Engine::new(SystemConfig::new()).unwrap();
    let (capture, application, load) = captured(&engine);
    let session = engine.session(&application, &load);
    let config = session.config();
    let trace = capture.trace();

    let mut corrupted = trace.clone();
    assert!(corrupted.corrupt_byte(true, 0), "address column has bytes");
    // Validation sees the damage...
    let validation = corrupted.validate();
    assert!(matches!(validation, Err(SimError::TraceCorrupt { .. })));
    let message = validation.unwrap_err().to_string();
    assert!(message.contains("fingerprint mismatch"), "got: {message}");
    // ...and replay refuses without panicking and without statistics.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        engine_over(&capture, &corrupted).verify(config, &HashSet::new())
    }));
    match outcome {
        Ok(Err(SimError::TraceCorrupt { detail })) => {
            assert!(detail.contains("fingerprint mismatch"), "got: {detail}");
        }
        Ok(Ok(_)) => panic!("replay of a corrupted capture produced statistics"),
        Ok(Err(other)) => panic!("expected TraceCorrupt, got {other}"),
        Err(_) => panic!("replay of a corrupted capture panicked"),
    }
    // The pc columns are equally protected.
    let mut pc_corrupted = trace.clone();
    assert!(pc_corrupted.corrupt_byte(false, 0), "pc columns have bytes");
    assert!(matches!(
        pc_corrupted.validate(),
        Err(SimError::TraceCorrupt { .. })
    ));
    match engine_over(&capture, &pc_corrupted).verify(config, &HashSet::new()) {
        Err(SimError::TraceCorrupt { detail }) => {
            assert!(detail.contains("fingerprint mismatch"), "got: {detail}");
        }
        Err(other) => panic!("expected TraceCorrupt, got {other}"),
        Ok(_) => panic!("replay of a pc-corrupted capture produced statistics"),
    }
}

#[test]
fn truncated_trace_fails_event_conservation() {
    let engine = Engine::new(SystemConfig::new()).unwrap();
    let (capture, application, load) = captured(&engine);
    let session = engine.session(&application, &load);
    let config = session.config();

    let mut truncated = capture.trace().clone();
    assert!(
        truncated.truncate_pcs(3) > 0,
        "pc columns have stretches to cut"
    );
    // Re-stamping the fingerprint makes validation pass — only the
    // replay-side conservation check can now catch the damage.
    truncated.refingerprint();
    assert!(truncated.validate().is_ok());
    match engine_over(&capture, &truncated).verify(config, &HashSet::new()) {
        Err(SimError::TraceCorrupt { detail }) => {
            assert!(detail.contains("recorded"), "got: {detail}");
        }
        Err(other) => panic!("expected TraceCorrupt, got {other}"),
        Ok(_) => panic!("replay of a truncated capture produced statistics"),
    }
    // Through the library error type, the failure stays loud and typed.
    let wrapped: corepart::CorepartError = SimError::TraceCorrupt {
        detail: "probe".to_string(),
    }
    .into();
    assert!(wrapped.to_string().contains("reference trace corrupt"));
}

#[test]
fn truncated_trace_fails_the_whole_batch() {
    let engine = Engine::new(SystemConfig::new()).unwrap();
    let (capture, application, load) = captured(&engine);
    let session = engine.session(&application, &load);
    let prepared = session.prepared().unwrap();
    let config = session.config();

    let mut truncated = capture.trace().clone();
    assert!(
        truncated.truncate_pcs(3) > 0,
        "pc columns have stretches to cut"
    );
    truncated.refingerprint();
    assert!(truncated.validate().is_ok());

    // One all-software lane plus an all-hardware lane: the batched
    // kernel must reject the damaged capture wholesale with the typed
    // error — no panic, no partial lane results — even though each
    // lane alone replays cleanly on the undamaged capture. On two
    // threads each lane group walks the damaged capture on its own,
    // and the batch must still fail as one.
    let all_blocks: HashSet<BlockId> = (0..prepared.app.blocks().len())
        .map(|b| BlockId(b as u32))
        .collect();
    let candidates = vec![HashSet::new(), all_blocks];
    for threads in [1usize, 2] {
        let damaged = engine_over(&capture, &truncated);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            damaged.verify_batch_with(config, &candidates, threads)
        }));
        match outcome {
            Ok(Err(SimError::TraceCorrupt { detail })) => {
                assert!(
                    detail.contains("recorded"),
                    "threads={threads}, got: {detail}"
                );
            }
            Ok(Ok(_)) => panic!(
                "batched replay of a truncated capture produced lane results (threads={threads})"
            ),
            Ok(Err(other)) => panic!("expected TraceCorrupt, got {other} (threads={threads})"),
            Err(_) => panic!("batched replay of a truncated capture panicked (threads={threads})"),
        }
        assert_eq!(damaged.replays(), 0, "a damaged walk memoizes nothing");
    }

    // The same batch over the undamaged capture verifies every lane.
    let clean = engine_over(&capture, capture.trace())
        .verify_batch(config, &candidates)
        .unwrap();
    assert_eq!(clean.len(), candidates.len());
    for (hw, lane) in candidates.iter().zip(&clean) {
        assert_eq!(
            run_iss(prepared, config, hw).unwrap(),
            **lane,
            "clean batch lane diverged from direct simulation"
        );
    }
}

/// The feasible single-cluster partitions of the first candidate,
/// one per designer resource set, with their schedules.
fn feasible_partitions(
    partitioner: &Partitioner<'_>,
) -> Vec<(
    Partition,
    std::sync::Arc<corepart_sched::cache::ScheduledCluster>,
)> {
    let candidate = partitioner.candidates()[0].cluster;
    let mut feasible = Vec::new();
    for index in 0.. {
        let Ok(set) = partitioner.config().resource_set(index) else {
            break;
        };
        let partition = Partition::single(candidate, set.clone());
        if let Ok(scheduled) = partitioner.scheduled(&partition) {
            feasible.push((partition, scheduled));
        }
    }
    feasible
}

#[test]
fn evicted_schedule_entry_recomputes_identically() {
    let application = app();
    let load = workload();
    let engine = Engine::new(SystemConfig::new()).unwrap();
    let session = engine.session(&application, &load);
    let partitioner = Partitioner::new(&session).unwrap();

    let feasible = feasible_partitions(&partitioner);
    let (partition, original) = feasible.first().expect("some set schedules the cluster");

    let key = schedule_key(partition);
    assert!(
        partitioner.schedule_cache().evict(&key),
        "entry was cached after scheduling"
    );
    let recomputed = partitioner.scheduled(partition).unwrap();
    assert_eq!(
        *recomputed, **original,
        "recompute after eviction diverged from the cached schedule"
    );
}

#[test]
fn poisoned_schedule_entry_is_detected_by_recompute() {
    let application = app();
    let load = workload();
    let engine = Engine::new(SystemConfig::new()).unwrap();
    let session = engine.session(&application, &load);
    let partitioner = Partitioner::new(&session).unwrap();

    // Two different feasible schedules of the same cluster (distinct
    // resource sets bind differently).
    let feasible = feasible_partitions(&partitioner);
    let (real, truth) = feasible.first().expect("some set schedules the cluster");
    let (_, wrong) = feasible
        .iter()
        .find(|(_, s)| **s != **truth)
        .expect("two sets schedule the cluster differently");

    // Poison: the cache serves the wrong entry verbatim (caches are
    // authoritative by design)...
    let key = schedule_key(real);
    partitioner
        .schedule_cache()
        .poison(key.clone(), (**wrong).clone());
    let served = partitioner.scheduled(real).unwrap();
    assert_eq!(*served, **wrong, "cache must serve the poisoned entry");
    assert_ne!(*served, **truth);

    // ...so the evict-and-recompute differential is what detects it.
    partitioner.schedule_cache().evict(&key);
    let healed = partitioner.scheduled(real).unwrap();
    assert_eq!(*healed, **truth, "recompute must restore the real schedule");
}
