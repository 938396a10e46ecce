//! Criterion benchmarks of the trace-capture/replay verification
//! engine: a plain direct simulation, the same run with trace capture
//! enabled (capture overhead), and the hierarchy-accounted one-shot
//! replay that replaces re-simulation during partition verification.

use std::collections::HashSet;

use criterion::{criterion_group, criterion_main, Criterion};

use corepart::evaluate::{evaluate_initial_captured, run_iss};
use corepart::prepare::{prepare, PreparedApp, Workload};
use corepart::system::SystemConfig;
use corepart::verify::replay_run;
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
            evaluate_initial_captured(
                std::hint::black_box(&prepared),
                &config,
                config.trace_cap_bytes,
            )
            .expect("runs")
            .2
            .expect("fits the cap")
            .events()
        })
    });
}

fn bench_hierarchy_replay(c: &mut Criterion) {
    let config = SystemConfig::new();
    let prepared = prepared_digs(&config);
    let (_, _, trace) =
        evaluate_initial_captured(&prepared, &config, config.trace_cap_bytes).expect("runs");
    let trace = trace.expect("fits the cap");
    // Verification replays under a candidate hardware-block set: use
    // the first structural loop, which is what pre-selection favors.
    let hw: HashSet<BlockId> = prepared
        .chain
        .iter()
        .find(|c| c.is_loop())
        .map(|c| c.blocks.iter().copied().collect())
        .unwrap_or_default();
    c.bench_function("hierarchy-replay/digs", |b| {
        b.iter(|| {
            let run =
                replay_run(&prepared, &config, std::hint::black_box(&trace), &hw).expect("replays");
            (run.stats.cycles, run.report)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_simulator_run, bench_capture_overhead, bench_hierarchy_replay
}
criterion_main!(benches);
