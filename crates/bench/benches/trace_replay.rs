//! Criterion benchmarks of the trace-capture/replay verification
//! engine: a plain direct simulation, the same run with trace capture
//! enabled (capture overhead), and the hierarchy-accounted replay of
//! one candidate that replaces re-simulation during partition
//! verification.

use std::collections::HashSet;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use corepart::evaluate::{evaluate_initial, run_iss};
use corepart::prepare::{prepare, PreparedApp, Workload};
use corepart::system::SystemConfig;
use corepart::verify::ReplayEngine;
use corepart_ir::op::BlockId;
use corepart_workloads::by_name;

fn prepared_digs(config: &SystemConfig) -> PreparedApp {
    let w = by_name("digs").expect("digs exists");
    prepare(
        w.app().expect("lowers"),
        Workload::from_arrays(w.arrays(1)),
        config,
    )
    .expect("prepares")
}

fn bench_simulator_run(c: &mut Criterion) {
    let config = SystemConfig::new();
    let prepared = prepared_digs(&config);
    let initial = HashSet::new();
    c.bench_function("simulator-run/digs", |b| {
        b.iter(|| {
            run_iss(std::hint::black_box(&prepared), &config, &initial)
                .expect("runs")
                .stats
                .cycles
        })
    });
}

fn bench_capture_overhead(c: &mut Criterion) {
    let config = SystemConfig::new();
    let prepared = prepared_digs(&config);
    c.bench_function("trace-capture/digs", |b| {
        b.iter(|| {
            evaluate_initial(std::hint::black_box(&prepared), &config, 1)
                .expect("runs")
                .replay
                .expect("fits the cap")
                .trace()
                .events()
        })
    });
}

fn bench_hierarchy_replay(c: &mut Criterion) {
    let config = SystemConfig::new();
    let prepared = prepared_digs(&config);
    let captured = evaluate_initial(&prepared, &config, 1)
        .expect("runs")
        .replay
        .expect("fits the cap");
    // Verification replays under a candidate hardware-block set: use
    // the first structural loop, which is what pre-selection favors.
    let hw: HashSet<BlockId> = prepared
        .chain
        .iter()
        .find(|c| c.is_loop())
        .map(|c| c.blocks.iter().copied().collect())
        .unwrap_or_default();
    // A fresh engine per iteration (trace copy, replay tables,
    // fingerprint check), so the memo never answers and every
    // iteration walks the trace.
    c.bench_function("hierarchy-replay/digs", |b| {
        b.iter(|| {
            let engine = ReplayEngine::new(
                Arc::clone(captured.table()),
                std::hint::black_box(captured.trace()).clone(),
            );
            let run = engine.verify(&config, &hw).expect("replays");
            (run.stats.cycles, run.report.clone())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_simulator_run, bench_capture_overhead, bench_hierarchy_replay
}
criterion_main!(benches);
