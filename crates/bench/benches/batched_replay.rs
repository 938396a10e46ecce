//! Criterion benchmarks of the batched replay kernel: verifying K
//! candidate hardware-block sets through one
//! `ReplayEngine::verify_batch` (one walk, K accounting lanes) against
//! K `ReplayEngine::verify` calls (K one-lane walks). Every iteration
//! builds a fresh engine (trace copy, replay tables, fingerprint
//! check) so the memo never answers; both sides pay that once.

use std::collections::HashSet;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use corepart::evaluate::evaluate_initial;
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

/// A fresh engine over the capture: an empty memo, so every verify
/// walks the trace.
fn fresh(captured: &ReplayEngine) -> ReplayEngine {
    ReplayEngine::new(
        Arc::clone(captured.table()),
        std::hint::black_box(captured.trace()).clone(),
    )
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
    let captured = evaluate_initial(&prepared, &config, 1)
        .expect("runs")
        .replay
        .expect("fits the cap");

    for k in [1usize, 4, 16] {
        let candidates: Vec<HashSet<BlockId>> =
            (0..k).map(|i| candidate_set(&prepared, i)).collect();

        c.bench_function(&format!("batched-replay/digs/k{k}"), |b| {
            b.iter(|| {
                fresh(&captured)
                    .verify_batch(&config, &candidates)
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
                    fresh(&captured)
                        .verify_batch_with(&config, &candidates, threads)
                        .expect("replays")
                })
            });
        }

        c.bench_function(&format!("one-lane-replay/digs/k{k}"), |b| {
            b.iter(|| {
                let engine = fresh(&captured);
                candidates
                    .iter()
                    .map(|hw| engine.verify(&config, hw).expect("replays"))
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
