//! Criterion benchmarks of the batched single-decode replay kernel:
//! verifying K candidate hardware-block sets through
//! `corepart::verify::replay_batch` (one decoded walk, K accounting
//! lanes) against K independent `replay_run` calls (K one-lane walks,
//! each with its own decode).

use std::collections::HashSet;

use criterion::{criterion_group, criterion_main, Criterion};

use corepart::evaluate::evaluate_initial_captured;
use corepart::prepare::{prepare, PreparedApp, Workload};
use corepart::system::SystemConfig;
use corepart::verify::{replay_batch, replay_batch_with, replay_run};
use corepart_ir::op::BlockId;
use corepart_isa::trace::ReferenceTrace;
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

fn capture_trace(prepared: &PreparedApp, config: &SystemConfig) -> ReferenceTrace {
    let (_, _, trace) =
        evaluate_initial_captured(prepared, config, config.trace_cap_bytes).expect("runs");
    trace.expect("fits the cap")
}

/// Deterministic candidate k: cluster i is hardware iff bit `i % 4` of
/// `k` is set — tiles the all-software through denser mixes exactly as
/// `baseline_perf` does.
fn candidate_set(prepared: &PreparedApp, k: usize) -> HashSet<BlockId> {
    prepared
        .chain
        .iter()
        .enumerate()
        .filter(|(i, _)| (k >> (i % 4)) & 1 == 1)
        .flat_map(|(_, cluster)| cluster.blocks.iter().copied())
        .collect()
}

fn bench_batched_replay(c: &mut Criterion) {
    let config = SystemConfig::new();
    let prepared = prepared_digs(&config);
    let trace = capture_trace(&prepared, &config);

    for k in [1usize, 4, 16] {
        let candidates: Vec<HashSet<BlockId>> =
            (0..k).map(|i| candidate_set(&prepared, i)).collect();

        c.bench_function(&format!("batched-replay/digs/k{k}"), |b| {
            b.iter(|| {
                replay_batch(
                    &prepared,
                    &config,
                    std::hint::black_box(&trace),
                    &candidates,
                )
                .expect("replays")
            })
        });

        // The same K lanes split into contiguous lane groups, each one
        // uninterrupted walk on its own worker thread. Against the
        // `k{k}` row above this isolates the threading delta; results
        // are bit-identical by design.
        for threads in [2usize, 4] {
            c.bench_function(&format!("batched-replay/digs/k{k}-t{threads}"), |b| {
                b.iter(|| {
                    replay_batch_with(
                        &prepared,
                        &config,
                        std::hint::black_box(&trace),
                        &candidates,
                        threads,
                    )
                    .expect("replays")
                })
            });
        }

        c.bench_function(&format!("one-lane-replay/digs/k{k}"), |b| {
            b.iter(|| {
                candidates
                    .iter()
                    .map(|hw| {
                        replay_run(&prepared, &config, std::hint::black_box(&trace), hw)
                            .expect("replays")
                    })
                    .collect::<Vec<_>>()
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_batched_replay
}
criterion_main!(benches);
