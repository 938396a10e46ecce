//! Ablation **A5** — comparison against performance-driven
//! partitioning, plus the reproducible perf baseline for the search
//! engine itself.
//!
//! §2 positions the paper against classic hardware/software partitioners
//! whose "objective is to meet performance constraints while keeping
//! the system cost as low as possible. But none of them provide power
//! related optimization". This experiment runs both objectives on every
//! application: the speedup-greedy baseline (hardware budget 20 k
//! cells) and our energy-driven partitioner, then compares energy and
//! cycles side by side.
//!
//! On top of the A5 table, the binary measures the trace-replay
//! verification engine on every application — direct instruction-set
//! simulation of the chosen partition versus a replay of the captured
//! reference trace, checked bit-identical — plus the batched replay
//! kernel (K candidates per trace walk versus K one-lane
//! replays, over the K ∈ {1, 4, 16} × threads ∈ {1, 2, 4} grid of
//! lane groups), and times an 8-point hardware-weight sweep on every
//! application two ways: the seed's sequential path
//! (fresh preparation, baseline simulation and schedule cache per
//! configuration, one thread) against the shared, parallel [`explore`]
//! engine. Every section records the thread count it actually used.
//! A serve section spawns real daemons to measure pipelined-vs-serial
//! serving on one connection (responses pinned byte-identical) and a
//! same-fingerprint verify storm through the cross-request coalescing
//! path (lanes of one `ReplayEngine::verify_batch_with` call, again
//! byte-identical).
//! A final corpus section pushes 24 *generated* applications through
//! the resumable sharded corpus runner ([`corepart::corpus`]) and
//! reports apps/sec, the aggregate Pareto-frontier size, a
//! byte-identical determinism re-run, and `trace_uses`: the replay
//! walks, replays and memo hits of every entry's capture after its `G`
//! sweep on a fresh engine, summed over the entries.
//! A simulator section, run first, reports instruction-set-simulator
//! throughput (Minstr/s) on every initial design, bare and with the
//! full baseline capture on one thread and on two, and checks that
//! capture leaves the run statistics bit-identical to the bare run and
//! that both thread counts agree bit for bit; each row also records the
//! finished capture's heap size (`trace_bytes`), a deterministic work
//! count. Each `workloads` row also records `explore_trace_uses`: the
//! replay walks, replays and memo hits of the shared trace after one
//! `explore` over the serve default weights on a fresh engine — how
//! often one capture is used, another deterministic work count.
//! Every replay here goes through a [`ReplayEngine`]; a timed replay
//! runs on a fresh engine built before the clock starts, so it never
//! hits the memo and never pays for building the engine.
//! Everything lands in `BENCH_partition.json`, headed by a `host`
//! block ([`corepart_bench::host_json`]: CPUs, the checkout's `rev`,
//! `rustc -V`, and `reps`, the simulator section's [`SIM_REPS`]).
//!
//! ```text
//! cargo run --release -p corepart-bench --bin baseline_perf [app]
//! ```
//!
//! With an `app` argument (one of the six Table-1 names), only that
//! application is processed — the CI smoke job runs `baseline_perf
//! engine`.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use corepart::baselines::performance_partition;
use corepart::corpus::{evaluate_corpus_entry, CorpusOptions};
use corepart::engine::Engine;
use corepart::evaluate::{evaluate_initial, evaluate_partition, evaluate_partition_with, run_iss};
use corepart::explore::{explore, explore_in, hardware_weight_sweep, DesignPoint};
use corepart::ir::op::BlockId;
use corepart::isa::simulator::{NullSink, RunStats, SimConfig, Simulator};
use corepart::json::{outcome_to_json_at, parse_json, result_field, JsonValue};
use corepart::parallel::resolve_threads;
use corepart::partition::{PartitionOutcome, Partitioner};
use corepart::prepare::{PreparedApp, Workload};
use corepart::serve::{
    handle_line, respond_fresh, Client, ComputeKind, ComputeRequest, ServeOptions, Server,
    EXPLORE_WEIGHTS,
};
use corepart::store::{ArtifactStore, StoreOptions};
use corepart::system::{ResolvedPoint, SystemConfig};
use corepart::verify::{ReplayEngine, VerifiedRun};
use corepart_bench::{git_rev, host_json, median_min_max, SEED};
use corepart_conform::corpus::{gen_entry, run_gen_corpus};
use corepart_tech::scaling::OperatingPoint;
use corepart_tech::units::GateEq;
use corepart_workloads::{all, by_name, PaperWorkload};

/// The seed's exploration path: every configuration prepares,
/// simulates and schedules from scratch, one after the other — a fresh
/// [`Engine`] per configuration, so nothing is pooled. Kept here as
/// the reference the shared engine is measured against; the
/// point-assembly mirrors [`explore`] so the outputs are comparable
/// verbatim.
fn sequential_sweep(w: &PaperWorkload, configs: &[(String, SystemConfig)]) -> Vec<DesignPoint> {
    let workload = Workload::from_arrays(w.arrays(SEED));
    let mut outcomes = Vec::with_capacity(configs.len());
    for (_, config) in configs {
        let app = w.app().expect("bundled workload lowers");
        let engine = Engine::new(config.clone()).expect("engine");
        let session = engine.session(&app, &workload);
        let outcome = Partitioner::new(&session)
            .expect("initial run")
            .run()
            .expect("search");
        outcomes.push(outcome);
    }

    let first_initial = &outcomes[0].initial;
    let base = first_initial.total_energy();
    let mut points = Vec::with_capacity(configs.len() + 1);
    points.push(DesignPoint {
        label: "initial (all software)".into(),
        energy: first_initial.total_energy(),
        cycles: first_initial.total_cycles(),
        geq: GateEq::ZERO,
        saving_percent: 0.0,
        is_initial: true,
    });
    for ((label, _), outcome) in configs.iter().zip(&outcomes) {
        let (energy, cycles, geq) = match &outcome.best {
            Some((_, detail)) => (
                detail.metrics.total_energy(),
                detail.metrics.total_cycles(),
                detail.metrics.geq,
            ),
            None => (
                outcome.initial.total_energy(),
                outcome.initial.total_cycles(),
                GateEq::ZERO,
            ),
        };
        points.push(DesignPoint {
            label: label.clone(),
            energy,
            cycles,
            geq,
            saving_percent: energy.percent_saving(base).unwrap_or(0.0),
            is_initial: false,
        });
    }
    points
}

/// Times replay-based verification against direct simulation on the
/// search's chosen partition. Returns the `"verify":{...}` JSON
/// fragment, or `None` when the search found no partition or the
/// capture was unavailable.
fn measure_verify(
    prepared: &PreparedApp,
    config: &SystemConfig,
    partitioner: &Partitioner<'_>,
    ours: &PartitionOutcome,
    name: &str,
) -> Option<String> {
    const REPS: usize = 3;
    let (partition, _) = ours.best.as_ref()?;
    let engine = partitioner.replay_engine()?;
    let hw_set = partitioner.hw_set_of(partition);

    let mut direct_nanos = u128::MAX;
    let mut direct = None;
    for _ in 0..REPS {
        let started = Instant::now();
        let run = run_iss(prepared, config, &hw_set).expect("direct simulation");
        direct_nanos = direct_nanos.min(started.elapsed().as_nanos());
        direct = Some(run);
    }
    let direct = direct.expect("at least one rep");

    let mut replay_nanos = u128::MAX;
    let mut replayed = None;
    for _ in 0..REPS {
        let fresh = fresh_engine(engine);
        let started = Instant::now();
        let run = fresh.verify(config, &hw_set).expect("replay");
        replay_nanos = replay_nanos.min(started.elapsed().as_nanos());
        replayed = Some(VerifiedRun::clone(&run));
    }
    let replayed = replayed.expect("at least one rep");

    // Bit-identical at the simulation level *and* through the full
    // evaluation path the search uses.
    let detail_direct =
        evaluate_partition(prepared, partition, partitioner.initial_stats(), config)
            .expect("direct evaluation");
    let detail_replayed = evaluate_partition_with(
        prepared,
        partition,
        partitioner.initial_stats(),
        config,
        None,
        Some(engine.as_ref()),
    )
    .expect("replayed evaluation");
    let identical = direct == replayed && detail_direct == detail_replayed;

    let speedup = direct_nanos as f64 / replay_nanos.max(1) as f64;
    println!(
        "{:<8} {:>12.2} {:>12.2} {:>8.2}x {:>10}",
        name,
        direct_nanos as f64 / 1e6,
        replay_nanos as f64 / 1e6,
        speedup,
        identical
    );
    Some(format!(
        concat!(
            "\"verify\":{{\"threads\":1,\"direct_nanos\":{},\"replay_nanos\":{},",
            "\"speedup\":{:.4},\"identical\":{}}}"
        ),
        direct_nanos, replay_nanos, speedup, identical
    ))
}

/// A fresh engine over `engine`'s capture and decode table: an empty
/// memo, so its first verify of any set walks the trace.
fn fresh_engine(engine: &ReplayEngine) -> ReplayEngine {
    ReplayEngine::new(Arc::clone(engine.table()), engine.trace().clone())
}

/// How often one capture is used: one `explore` over the serve default
/// weights ([`EXPLORE_WEIGHTS`]) on a fresh engine, then the walks,
/// replays and memo hits of the replay engine every weight shares.
/// Deterministic for every thread count. Returns the
/// `"explore_trace_uses"` JSON fragment.
fn measure_explore_trace_uses(w: &PaperWorkload) -> String {
    let config = SystemConfig::new();
    let app = w.app().expect("bundled workload lowers");
    let workload = Workload::from_arrays(w.arrays(SEED));
    let engine = Engine::new(config.clone()).expect("engine");
    let configs = hardware_weight_sweep(&EXPLORE_WEIGHTS, &config);
    explore_in(&engine, &app, &workload, &configs).expect("explore runs");
    let session = engine.session(&app, &workload);
    let (walks, replays, hits) = match session.replay_engine().expect("pooled baseline") {
        Some(replay) => (replay.batches(), replay.replays(), replay.hits()),
        None => (0, 0, 0),
    };
    println!("{:<8} {:>7} {:>8} {:>6}", w.name, walks, replays, hits);
    format!("\"explore_trace_uses\":{{\"walks\":{walks},\"replays\":{replays},\"hits\":{hits}}}")
}

/// How often each corpus entry's capture is used: every generated
/// entry `gen_entry(SEED, 0..apps)` through [`evaluate_corpus_entry`]
/// on a fresh threads-1 engine (what the corpus runner's per-chunk
/// engines run), then the walks, replays and memo hits of the entry's
/// replay engine, summed over the entries. Deterministic. Returns the
/// `"trace_uses"` JSON fragment.
fn measure_corpus_trace_uses(options: &CorpusOptions, apps: u64) -> String {
    let (mut walks, mut replays, mut hits) = (0, 0, 0);
    for index in 0..apps {
        let entry = gen_entry(SEED, index).expect("generated entry lowers");
        let engine = Engine::new(options.base.clone().with_threads(1)).expect("engine");
        evaluate_corpus_entry(&engine, &entry, options).expect("corpus entry evaluates");
        let session = engine.session(&entry.app, &entry.workload);
        if let Some(replay) = session.replay_engine().expect("pooled baseline") {
            walks += replay.batches();
            replays += replay.replays();
            hits += replay.hits();
        }
    }
    println!("trace uses: {walks} walks, {replays} replays, {hits} hits over {apps} entries");
    format!("\"trace_uses\":{{\"walks\":{walks},\"replays\":{replays},\"hits\":{hits}}}")
}

/// Repetitions of each timed simulator run.
const SIM_REPS: usize = 5;

/// Instruction-set-simulator throughput on one application's initial
/// design: the bare run (fresh simulator, [`NullSink`]) and the full
/// baseline capture run ([`evaluate_initial`]: cache hierarchy plus
/// reference-trace capture, its fingerprint and the replay engine) on one
/// thread and on two (the hierarchy and the capture on a helper
/// thread), each in million executed instructions per second over
/// [`SIM_REPS`] repetitions (the two capture runs alternate which goes
/// first). `identical` holds when every
/// repetition of every run reports run statistics equal to the first
/// bare run's, both capture runs report equal metrics and trace
/// fingerprints, and direct simulation of the initial design
/// ([`run_iss`]) on one and two threads reports equal cache-hierarchy
/// results: neither the hierarchy, the trace capture nor the helper
/// thread may change the accounting. The row also records
/// `trace_bytes`, the finished capture's
/// [`corepart::isa::ReferenceTrace::heap_bytes`] — deterministic,
/// and equal at both thread counts. Returns the JSON row.
fn measure_simulator(w: &PaperWorkload) -> String {
    let config = SystemConfig::new();
    let app = w.app().expect("bundled workload lowers");
    let workload = Workload::from_arrays(w.arrays(SEED));
    let engine = Engine::new(config.clone()).expect("engine");
    let session = engine.session(&app, &workload);
    let prepared = session.prepared().expect("bundled workload prepares");
    let on = |threads: usize| config.clone().with_threads(threads);

    let mut bare = Vec::with_capacity(SIM_REPS);
    let mut capture = [Vec::with_capacity(SIM_REPS), Vec::with_capacity(SIM_REPS)];
    let mut instructions = 0;
    let mut trace_bytes = 0;
    let mut reference: Option<RunStats> = None;
    let mut identical = true;
    for rep in 0..SIM_REPS {
        let started = Instant::now();
        let mut sim = Simulator::with_energy_table(
            &prepared.prog,
            &prepared.app,
            config.energy_table.clone(),
        );
        for (name, data) in &prepared.workload.arrays {
            sim.set_array(name, data).expect("workload array");
        }
        let stats = sim
            .run(&SimConfig::initial(config.max_cycles), &mut NullSink)
            .expect("bare simulation");
        let secs = started.elapsed().as_secs_f64();
        instructions = stats.sw_ifetches;
        bare.push(instructions as f64 / secs / 1e6);
        let reference = reference.get_or_insert(stats.clone());
        identical &= stats == *reference;

        // The two thread counts take turns going first.
        let order = if rep % 2 == 0 { [1, 2] } else { [2, 1] };
        let mut runs = order.map(|threads| {
            let started = Instant::now();
            let baseline = evaluate_initial(prepared, &config, threads).expect("capture run");
            let secs = started.elapsed().as_secs_f64();
            capture[threads - 1].push(instructions as f64 / secs / 1e6);
            let replay = baseline
                .replay
                .expect("paper workload trace fits the default cap");
            let trace = replay.trace();
            (
                baseline.metrics,
                baseline.stats,
                (trace.fingerprint(), trace.heap_bytes()),
            )
        });
        if order[0] == 2 {
            runs.reverse();
        }
        identical &= runs[0].1 == *reference && runs[1].1 == *reference;
        identical &= runs[0].0 == runs[1].0 && runs[0].2 == runs[1].2;
        (_, trace_bytes) = runs[0].2;
    }
    let direct = [1, 2].map(|threads| {
        run_iss(prepared, &on(threads), &HashSet::new()).expect("direct simulation")
    });
    identical &= direct[0] == direct[1] && reference.as_ref() == Some(&direct[0].stats);

    let [capture_t1, capture_t2] = capture;
    let (bare_med, bare_min, bare_max) = median_min_max(bare);
    let (t1_med, t1_min, t1_max) = median_min_max(capture_t1);
    let (t2_med, t2_min, t2_max) = median_min_max(capture_t2);
    println!(
        "{:<8} {:>12} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>12} {:>10}",
        w.name,
        instructions,
        bare_med,
        bare_max,
        t1_med,
        t1_max,
        t2_med,
        t2_max,
        trace_bytes,
        identical
    );
    assert!(
        identical,
        "capture or the helper thread changed the accounting on `{}`",
        w.name
    );
    format!(
        concat!(
            "{{\"app\":\"{}\",\"instructions\":{},\"reps\":{},",
            "\"bare_minstr_per_s\":{{\"median\":{:.3},\"min\":{:.3},\"max\":{:.3}}},",
            "\"capture_minstr_per_s\":{{\"median\":{:.3},\"min\":{:.3},\"max\":{:.3}}},",
            "\"capture_threads2_minstr_per_s\":{{\"median\":{:.3},\"min\":{:.3},\"max\":{:.3}}},",
            "\"trace_bytes\":{},\"identical\":{}}}"
        ),
        w.name,
        instructions,
        SIM_REPS,
        bare_med,
        bare_min,
        bare_max,
        t1_med,
        t1_min,
        t1_max,
        t2_med,
        t2_min,
        t2_max,
        trace_bytes,
        identical
    )
}

/// Deterministic hardware-block set k over the application's cluster
/// chain: cluster `i` goes to hardware iff bit `i mod 4` of `k` is
/// set, so k = 0..16 tiles every 4-bit pattern over the chain (empty
/// through all-hardware).
fn candidate_set(prepared: &PreparedApp, k: usize) -> HashSet<BlockId> {
    prepared
        .chain
        .iter()
        .enumerate()
        .filter(|(i, _)| (k >> (i % 4)) & 1 == 1)
        .flat_map(|(_, cluster)| cluster.blocks.iter().copied())
        .collect()
}

/// Times the batched replay kernel against K one-candidate
/// [`ReplayEngine::verify`] calls (the `seq` columns: K one-lane walks,
/// each on a fresh engine) over the
/// K × threads scaling grid (K ∈ {1, 4, 16}, threads ∈ {1, 2, 4}) on
/// deterministic candidate sets; every timed call runs on a fresh
/// engine built before the clock starts. At threads > 1 the K lanes are split
/// into contiguous lane groups, each one uninterrupted walk on its own
/// worker. `identical` holds when both the one-lane replays and every
/// cell's batched lanes equal direct simulation ([`run_iss`]) of the
/// same candidates. Returns one `"batch"` JSON row per grid cell, or
/// `None` when the capture was unavailable.
fn measure_batch(
    prepared: &PreparedApp,
    config: &SystemConfig,
    partitioner: &Partitioner<'_>,
    name: &str,
) -> Option<Vec<String>> {
    const REPS: usize = 3;
    let engine = partitioner.replay_engine()?;

    let all: Vec<HashSet<BlockId>> = (0..16).map(|i| candidate_set(prepared, i)).collect();
    let direct: Vec<_> = all
        .iter()
        .map(|hw| run_iss(prepared, config, hw).expect("direct simulation"))
        .collect();
    let mut rows = Vec::new();
    for k in [1usize, 4, 16] {
        let candidates = &all[..k];
        let reference = &direct[..k];

        let mut seq_nanos = u128::MAX;
        let mut one_lane = None;
        for _ in 0..REPS {
            let mut nanos = 0;
            let mut runs = Vec::with_capacity(k);
            for hw in candidates {
                let fresh = fresh_engine(engine);
                let started = Instant::now();
                let run = fresh.verify(config, hw).expect("one-lane replay");
                nanos += started.elapsed().as_nanos();
                runs.push(VerifiedRun::clone(&run));
            }
            seq_nanos = seq_nanos.min(nanos);
            one_lane = Some(runs);
        }
        let one_lane = one_lane.expect("at least one rep");

        for threads in [1usize, 2, 4] {
            let mut batch_nanos = u128::MAX;
            let mut batched = None;
            for _ in 0..REPS {
                let fresh = fresh_engine(engine);
                let started = Instant::now();
                let runs = fresh
                    .verify_batch_with(config, candidates, threads)
                    .expect("batched replay");
                batch_nanos = batch_nanos.min(started.elapsed().as_nanos());
                batched = Some(runs);
            }

            let batched: Option<Vec<VerifiedRun>> =
                batched.map(|runs| runs.iter().map(|run| VerifiedRun::clone(run)).collect());
            let identical = one_lane == reference && batched.as_deref() == Some(reference);
            let speedup = seq_nanos as f64 / batch_nanos.max(1) as f64;
            println!(
                "{:<8} {:>4} {:>3} {:>14.3} {:>14.3} {:>8.2}x {:>10}",
                name,
                k,
                threads,
                seq_nanos as f64 / k as f64 / 1e6,
                batch_nanos as f64 / k as f64 / 1e6,
                speedup,
                identical
            );
            rows.push(format!(
                concat!(
                    "{{\"app\":\"{}\",\"k\":{},\"threads\":{},",
                    "\"seq_nanos\":{},\"batch_nanos\":{},",
                    "\"seq_per_candidate_nanos\":{},\"batch_per_candidate_nanos\":{},",
                    "\"speedup\":{:.4},\"identical\":{}}}"
                ),
                name,
                k,
                threads,
                seq_nanos,
                batch_nanos,
                seq_nanos / k as u128,
                batch_nanos / k as u128,
                speedup,
                identical
            ));
        }
    }
    Some(rows)
}

/// The serve-protocol request of one paper workload: a full partition
/// run over its bundled source and seeded arrays.
fn serve_request(w: &PaperWorkload) -> ComputeRequest {
    let mut req = ComputeRequest::new(ComputeKind::Partition, w.source);
    req.arrays = w.arrays(SEED);
    req
}

/// Cold-vs-warm daemon timing on one application: `requests` identical
/// requests against per-request fresh engines (what every client paid
/// before the daemon existed) versus the same stream through a warm
/// [`ArtifactStore`]. Returns the JSON row and the app's settled store
/// footprint in bytes (used to size the Zipf section's budget).
fn measure_serve_app(w: &PaperWorkload, requests: usize) -> (String, u64) {
    let base = SystemConfig::new();
    let req = serve_request(w);
    let line = req.to_json();

    let cold_start = Instant::now();
    let reference = respond_fresh(&base, &req);
    assert!(reference.contains("\"ok\":true"), "{reference}");
    let mut identical = true;
    for _ in 1..requests {
        let again = respond_fresh(&base, &req);
        identical &= result_field(&again) == result_field(&reference);
    }
    let cold_nanos = cold_start.elapsed().as_nanos() as u64;

    let store = ArtifactStore::new(
        base,
        &StoreOptions {
            shards: 1,
            ..StoreOptions::default()
        },
    )
    .expect("store");
    let warm_start = Instant::now();
    for _ in 0..requests {
        let (response, _) = handle_line(&store, &line);
        assert!(response.contains("\"ok\":true"), "{response}");
        identical &= result_field(&response) == result_field(&reference);
    }
    let warm_nanos = warm_start.elapsed().as_nanos() as u64;

    let stats = store.stats();
    let speedup = cold_nanos as f64 / warm_nanos.max(1) as f64;
    println!(
        "{:<8} {:>4} {:>12.1} {:>12.1} {:>8.2}x {:>9.2} {:>10}",
        w.name,
        requests,
        cold_nanos as f64 / 1e6,
        warm_nanos as f64 / 1e6,
        speedup,
        stats.hit_rate(),
        identical
    );
    (
        format!(
            concat!(
                "{{\"app\":\"{}\",\"requests\":{},\"cold_nanos\":{},",
                "\"warm_nanos\":{},\"speedup\":{:.4},\"hit_rate\":{:.4},",
                "\"p50_nanos\":{},\"p95_nanos\":{},\"p99_nanos\":{},",
                "\"identical\":{}}}"
            ),
            w.name,
            requests,
            cold_nanos,
            warm_nanos,
            speedup,
            stats.hit_rate(),
            stats.latency.p50_nanos,
            stats.latency.p95_nanos,
            stats.latency.p99_nanos,
            identical
        ),
        stats.bytes,
    )
}

/// Zipf-like reuse across all selected applications through one
/// budgeted store: rank `r` (by Table-1 order) receives requests in
/// proportion to `1/r`, interleaved round-robin — the head apps stay
/// hot, the tail contends for the budget. With more than one app the
/// budget is sized below the sum of the measured per-app footprints
/// (but above the largest single one), so the working set cannot fully
/// fit and the store must evict; repeats still answer warm from the
/// result memo, so the hit rate stays high while baselines churn.
fn measure_serve_zipf(selected: &[PaperWorkload], per_app_bytes: &[u64], total: usize) -> String {
    let n = selected.len();
    let h: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let counts: Vec<usize> = (1..=n)
        .map(|r| ((total as f64 / (r as f64 * h)).round() as usize).max(1))
        .collect();
    let rounds = counts.iter().copied().max().unwrap_or(0);
    let mut schedule: Vec<usize> = Vec::new();
    for round in 0..rounds {
        for (i, &count) in counts.iter().enumerate() {
            if round < count {
                schedule.push(i);
            }
        }
    }
    let lines: Vec<String> = selected
        .iter()
        .map(|w| serve_request(w).to_json())
        .collect();

    let largest = per_app_bytes.iter().copied().max().unwrap_or(0);
    let sum: u64 = per_app_bytes.iter().sum();
    let budget_bytes = if n > 1 {
        (sum * 7 / 10).max(largest * 5 / 4)
    } else {
        largest * 5 / 2
    };
    let store = ArtifactStore::new(
        SystemConfig::new(),
        &StoreOptions {
            shards: 2,
            budget_bytes,
        },
    )
    .expect("store");

    let start = Instant::now();
    for &i in &schedule {
        let (response, _) = handle_line(&store, &lines[i]);
        assert!(response.contains("\"ok\":true"), "{response}");
    }
    let nanos = start.elapsed().as_nanos() as u64;

    let stats = store.stats();
    assert!(
        stats.bytes <= budget_bytes,
        "accounted {} exceeds the budget {}",
        stats.bytes,
        budget_bytes
    );
    let throughput_rps = schedule.len() as f64 / (nanos as f64 / 1e9).max(1e-9);
    println!(
        "\nzipf: {} requests over {} app(s), budget {:.1} MiB: \
         {:.2} req/s, hit rate {:.2}, {} eviction(s), {} declined",
        schedule.len(),
        n,
        budget_bytes as f64 / (1 << 20) as f64,
        throughput_rps,
        stats.hit_rate(),
        stats.evictions,
        stats.declined
    );
    format!(
        concat!(
            "{{\"requests\":{},\"apps\":{},\"budget_bytes\":{},",
            "\"warm_nanos\":{},\"throughput_rps\":{:.4},\"hit_rate\":{:.4},",
            "\"evictions\":{},\"declined\":{},",
            "\"p50_nanos\":{},\"p95_nanos\":{},\"p99_nanos\":{}}}"
        ),
        schedule.len(),
        n,
        budget_bytes,
        nanos,
        throughput_rps,
        stats.hit_rate(),
        stats.evictions,
        stats.declined,
        stats.latency.p50_nanos,
        stats.latency.p95_nanos,
        stats.latency.p99_nanos
    )
}

/// The warm request mix over `apps`: partition, explore, and verify
/// per app — the same shape the serve-smoke load driver fires.
fn serve_mix(apps: &[PaperWorkload]) -> Vec<ComputeRequest> {
    let mut reqs = Vec::new();
    for w in apps {
        let partition = serve_request(w);
        let mut explore = partition.clone();
        explore.kind = ComputeKind::Explore;
        explore.weights = Some(vec![0.0, 1.0]);
        let mut verify = partition.clone();
        verify.kind = ComputeKind::Verify;
        verify.clusters = vec![0];
        reqs.push(partition);
        reqs.push(explore);
        reqs.push(verify);
    }
    reqs
}

/// Pipelined-vs-serial serving over a real socket: one connection to a
/// spawned daemon, the warm mix sent one-at-a-time (a write/read
/// round-trip per request) versus the same stream with every request
/// in flight at once. Responses are pinned byte-identical between the
/// two passes (ids aside, compared on the `result` field).
fn measure_serve_pipelined(apps: &[PaperWorkload], repeats: usize) -> String {
    let opts = ServeOptions {
        port: 0,
        shards: 2,
        threads: 1,
        ..ServeOptions::default()
    };
    let server = Server::spawn(SystemConfig::new(), &opts).expect("spawn server");
    let mut client = Client::connect(server.addr()).expect("connect to spawned server");

    let mix = serve_mix(apps);
    let mut id = 0u64;
    // Warm the store once so both timed passes run the memoized path.
    for req in &mix {
        let mut req = req.clone();
        id += 1;
        req.id = Some(id);
        let response = client.try_ask(&req.to_json()).expect("round trip");
        assert!(response.contains("\"ok\":true"), "{response}");
    }

    let mut stream: Vec<ComputeRequest> = Vec::with_capacity(mix.len() * repeats);
    for _ in 0..repeats {
        stream.extend(mix.iter().cloned());
    }

    let serial_start = Instant::now();
    let mut serial_results: Vec<String> = Vec::with_capacity(stream.len());
    for req in &stream {
        let mut req = req.clone();
        id += 1;
        req.id = Some(id);
        let response = client.try_ask(&req.to_json()).expect("round trip");
        serial_results.push(result_field(&response).expect("result field").to_owned());
    }
    let serial_nanos = serial_start.elapsed().as_nanos() as u64;

    let pipelined_start = Instant::now();
    let mut burst = String::new();
    for req in &stream {
        let mut req = req.clone();
        id += 1;
        req.id = Some(id);
        if !burst.is_empty() {
            burst.push('\n');
        }
        burst.push_str(&req.to_json());
    }
    client.send(&burst).expect("send burst");
    let mut identical = true;
    for serial in &serial_results {
        let response = client.recv().expect("read response");
        identical &= result_field(&response) == Some(serial.as_str());
    }
    let pipelined_nanos = pipelined_start.elapsed().as_nanos() as u64;

    id += 1;
    let shutdown = client
        .try_ask(&format!("{{\"id\":{id},\"cmd\":\"shutdown\"}}"))
        .expect("round trip");
    assert!(shutdown.contains("\"ok\":true"), "{shutdown}");
    server.join();

    let speedup = serial_nanos as f64 / pipelined_nanos.max(1) as f64;
    println!(
        "\npipelined: {} warm requests on one connection: serial {:.1} ms, \
         pipelined {:.1} ms ({speedup:.2}x), identical {identical}",
        stream.len(),
        serial_nanos as f64 / 1e6,
        pipelined_nanos as f64 / 1e6,
    );
    assert!(
        identical,
        "pipelined responses must be byte-identical to serial serving"
    );
    format!(
        concat!(
            "{{\"requests\":{},\"serial_nanos\":{},\"pipelined_nanos\":{},",
            "\"speedup\":{:.4},\"identical\":{}}}"
        ),
        stream.len(),
        serial_nanos,
        pipelined_nanos,
        speedup,
        identical
    )
}

/// The comparable span of a serve response: the raw `result` for
/// successes (request stats legitimately differ between cold and
/// memo-warmed answers), the whole line for typed errors — some chain
/// clusters cannot be scheduled in hardware at all (e.g. a resource
/// set with no divider), and those error lines must also survive
/// coalescing byte-for-byte.
fn comparable(response: &str) -> &str {
    result_field(response).unwrap_or(response)
}

/// Cross-request batch coalescing: a same-fingerprint verify storm
/// (cluster ids cycling the app's chain) fired all-at-once against a
/// cold daemon, versus the same storm one-at-a-time against another
/// cold daemon. The coalesced run answers from lanes of one
/// `replay_batch` call; the responses stay byte-identical.
fn measure_serve_coalescing(w: &PaperWorkload, storm: usize) -> String {
    let workload = Workload::from_arrays(w.arrays(SEED));
    let app = w.app().expect("bundled workload lowers");
    let engine = Engine::new(SystemConfig::new()).expect("engine");
    let chain_len = engine
        .session(&app, &workload)
        .prepared()
        .expect("prepare")
        .chain
        .len();

    let requests: Vec<ComputeRequest> = (0..storm)
        .map(|k| {
            let mut req = serve_request(w);
            req.kind = ComputeKind::Verify;
            req.clusters = vec![(k % chain_len) as u32];
            req.id = Some(k as u64 + 1);
            req
        })
        .collect();

    let spawn = || {
        let opts = ServeOptions {
            port: 0,
            shards: 1,
            threads: 1,
            ..ServeOptions::default()
        };
        Server::spawn(SystemConfig::new(), &opts).expect("spawn server")
    };

    // Serial reference: one round-trip per request, cold store.
    let serial_server = spawn();
    let mut client = Client::connect(serial_server.addr()).expect("connect to spawned server");
    let serial_start = Instant::now();
    let mut serial_results: Vec<String> = Vec::with_capacity(storm);
    for req in &requests {
        let response = client.try_ask(&req.to_json()).expect("round trip");
        serial_results.push(comparable(&response).to_owned());
    }
    let serial_nanos = serial_start.elapsed().as_nanos() as u64;
    client
        .try_ask("{\"cmd\":\"shutdown\"}")
        .expect("round trip");
    serial_server.join();

    // Coalesced: the whole storm in flight before the cold first
    // request finishes, so the shard worker drains and batch-verifies.
    let coalesced_server = spawn();
    let mut client = Client::connect(coalesced_server.addr()).expect("connect to spawned server");
    let coalesced_start = Instant::now();
    let mut burst = String::new();
    for req in &requests {
        if !burst.is_empty() {
            burst.push('\n');
        }
        burst.push_str(&req.to_json());
    }
    client.send(&burst).expect("send storm");
    let mut identical = true;
    for serial in &serial_results {
        let response = client.recv().expect("read response");
        identical &= comparable(&response) == serial.as_str();
    }
    let coalesced_nanos = coalesced_start.elapsed().as_nanos() as u64;

    let stats = client
        .try_ask("{\"id\":99,\"cmd\":\"stats\"}")
        .expect("round trip");
    let parsed = parse_json(&stats).expect("stats parse");
    let bucket = |k: &str| {
        parsed
            .get("result")
            .and_then(|r| r.get("pipeline"))
            .and_then(|p| p.get("coalesced"))
            .and_then(|c| c.get(k))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    };
    let (k2_4, k5_16) = (bucket("k2_4"), bucket("k5_16"));
    client
        .try_ask("{\"cmd\":\"shutdown\"}")
        .expect("round trip");
    coalesced_server.join();

    let speedup = serial_nanos as f64 / coalesced_nanos.max(1) as f64;
    println!(
        "coalescing: {storm}-request verify storm on `{}` ({} cluster(s)): serial {:.1} ms, \
         coalesced {:.1} ms ({speedup:.2}x), batches k2_4 {k2_4} / k5_16 {k5_16}, \
         identical {identical}",
        w.name,
        chain_len,
        serial_nanos as f64 / 1e6,
        coalesced_nanos as f64 / 1e6,
    );
    assert!(
        identical,
        "coalesced verify responses must be byte-identical to serial serving"
    );
    assert!(
        k2_4 + k5_16 > 0,
        "the verify storm must coalesce at least one multi-request batch"
    );
    format!(
        concat!(
            "{{\"app\":\"{}\",\"storm\":{},\"serial_nanos\":{},",
            "\"coalesced_nanos\":{},\"speedup\":{:.4},",
            "\"coalesced_k2_4\":{},\"coalesced_k5_16\":{},\"identical\":{}}}"
        ),
        w.name, storm, serial_nanos, coalesced_nanos, speedup, k2_4, k5_16, identical
    )
}

fn main() {
    let filter = std::env::args().nth(1);
    let selected: Vec<PaperWorkload> = match filter.as_deref() {
        Some(name) => match by_name(name) {
            Some(w) => vec![w],
            None => {
                eprintln!(
                    "unknown workload {name:?}; expected one of: 3d MPG ckey digs engine trick"
                );
                std::process::exit(2);
            }
        },
        None => all(),
    };

    // Instruction-set-simulator throughput on the initial designs,
    // measured first, on a quiet process.
    println!(
        "simulator: initial-design runs, Minstr/s over {SIM_REPS} reps (capture at threads 1, 2)\n"
    );
    println!(
        "{:<8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "app",
        "instrs",
        "bare med",
        "bare max",
        "t1 med",
        "t1 max",
        "t2 med",
        "t2 max",
        "trace bytes",
        "identical"
    );
    let simulator_rows: Vec<String> = selected.iter().map(measure_simulator).collect();
    println!();

    println!("A5: energy-driven (ours) vs performance-driven (related work)\n");
    println!(
        "{:<8} {:<7} {:>10} {:>10} {:>12}",
        "app", "method", "saving%", "chg%", "HW cells"
    );
    struct Prepared {
        w: PaperWorkload,
        ours: PartitionOutcome,
    }
    let mut runs: Vec<(Prepared, SystemConfig)> = Vec::new();
    for w in selected {
        let config = SystemConfig::new();
        let app = w.app().expect("bundled workload lowers");
        let workload = Workload::from_arrays(w.arrays(SEED));
        let engine = Engine::new(config.clone()).expect("engine");
        let session = engine.session(&app, &workload);
        let partitioner = Partitioner::new(&session).expect("initial run");

        let ours = partitioner.run().expect("our search");
        let perf = performance_partition(&partitioner, session.config(), GateEq::new(20_000))
            .expect("perf baseline");

        for (method, outcome) in [("energy", &ours), ("perf", &perf)] {
            match &outcome.best {
                Some((_, detail)) => println!(
                    "{:<8} {:<7} {:>10.1} {:>10.1} {:>12}",
                    w.name,
                    method,
                    outcome.energy_saving_percent().unwrap_or(0.0),
                    outcome.time_change_percent().unwrap_or(0.0),
                    detail.metrics.geq.cells()
                ),
                None => println!(
                    "{:<8} {:<7} {:>10} {:>10} {:>12}",
                    w.name, method, "--", "--", "--"
                ),
            }
        }
        println!();
        runs.push((Prepared { w, ours }, config));
    }
    println!(
        "Expected shape: the perf method matches or beats on cycles but\n\
         loses on energy wherever the fastest cluster is not the most\n\
         energy-efficient one (and it has no notion of cache/memory energy)."
    );

    // Replay-vs-direct verification timing on every selected
    // application's chosen partition.
    println!("\nverification: trace replay vs direct simulation\n");
    println!(
        "{:<8} {:>12} {:>12} {:>9} {:>10}",
        "app", "direct ms", "replay ms", "speedup", "identical"
    );
    let mut outcome_rows: Vec<String> = Vec::new();
    for (run, config) in &runs {
        // A fresh engine (cheap next to the searches above) so the
        // verify measurement owns a partitioner with a fresh replay
        // engine.
        let app = run.w.app().expect("bundled workload lowers");
        let workload = Workload::from_arrays(run.w.arrays(SEED));
        let factory = Engine::new(config.clone()).expect("engine");
        let session = factory.session(&app, &workload);
        let prepared = session.prepared().expect("bundled workload prepares");
        let partitioner = Partitioner::new(&session).expect("initial run");
        let verify = measure_verify(prepared, config, &partitioner, &run.ours, run.w.name);
        let oj = outcome_to_json_at(run.w.name, &run.ours, None);
        outcome_rows.push(match verify {
            // Splice the verify object into the outcome record.
            Some(v) => format!("{},{}}}", &oj[..oj.len() - 1], v),
            None => oj,
        });
    }

    // Trace reuse: how many verifies one capture serves in an explore.
    println!(
        "\ntrace uses: one explore over {} weights on a fresh engine\n",
        EXPLORE_WEIGHTS.len()
    );
    println!("{:<8} {:>7} {:>8} {:>6}", "app", "walks", "replays", "hits");
    for (row, (run, _)) in outcome_rows.iter_mut().zip(&runs) {
        let uses = measure_explore_trace_uses(&run.w);
        *row = format!("{},{}}}", &row[..row.len() - 1], uses);
    }

    // Batched replay kernel: per-candidate verify cost at K candidates
    // per trace walk versus K one-candidate replays.
    println!("\nbatched replay: K candidates per trace walk vs K one-lane replays\n");
    println!(
        "{:<8} {:>4} {:>3} {:>14} {:>14} {:>9} {:>10}",
        "app", "K", "T", "seq ms/cand", "batch ms/cand", "speedup", "identical"
    );
    let mut batch_rows: Vec<String> = Vec::new();
    for (run, config) in &runs {
        let app = run.w.app().expect("bundled workload lowers");
        let workload = Workload::from_arrays(run.w.arrays(SEED));
        let factory = Engine::new(config.clone()).expect("engine");
        let session = factory.session(&app, &workload);
        let prepared = session.prepared().expect("bundled workload prepares");
        let partitioner = Partitioner::new(&session).expect("initial run");
        if let Some(rows) = measure_batch(prepared, config, &partitioner, run.w.name) {
            batch_rows.extend(rows);
        }
    }

    // Engine perf baseline: 8-point hardware-weight sweep, seed's
    // sequential path vs the shared, parallel engine.
    let weights = [0.0, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 16.0];
    let threads = resolve_threads(0);
    println!(
        "\nsweep timing ({} points, {} threads):\n",
        weights.len(),
        threads
    );
    println!(
        "{:<8} {:>12} {:>12} {:>9} {:>10}",
        "app", "seq ms", "engine ms", "speedup", "identical"
    );
    let sweep_apps: Vec<&'static str> = match filter.as_deref() {
        Some(name) => vec![by_name(name).expect("validated above").name],
        None => all().iter().map(|w| w.name).collect(),
    };
    let mut sweep_rows: Vec<String> = Vec::new();
    for &name in &sweep_apps {
        let w = by_name(name).expect("paper workload exists");
        let seq_configs = hardware_weight_sweep(&weights, &SystemConfig::new().with_threads(1));

        let seq_start = Instant::now();
        let seq_points = sequential_sweep(&w, &seq_configs);
        let seq_nanos = seq_start.elapsed().as_nanos();

        let app = w.app().expect("bundled workload lowers");
        let workload = Workload::from_arrays(w.arrays(SEED));
        let par_configs = hardware_weight_sweep(&weights, &SystemConfig::new());
        let par_start = Instant::now();
        let exploration = explore(&app, &workload, &par_configs).expect("sweep runs");
        let par_nanos = par_start.elapsed().as_nanos();

        let identical = seq_points == exploration.points;
        let speedup = seq_nanos as f64 / par_nanos.max(1) as f64;
        println!(
            "{:<8} {:>12.1} {:>12.1} {:>8.2}x {:>10}",
            name,
            seq_nanos as f64 / 1e6,
            par_nanos as f64 / 1e6,
            speedup,
            identical
        );
        sweep_rows.push(format!(
            concat!(
                "{{\"app\":\"{}\",\"points\":{},\"threads\":{},",
                "\"seq_nanos\":{},\"par_nanos\":{},\"speedup\":{:.4},",
                "\"identical\":{}}}"
            ),
            name,
            weights.len(),
            threads,
            seq_nanos,
            par_nanos,
            speedup,
            identical
        ));
        assert!(
            identical,
            "parallel sweep must reproduce the sequential points bit-for-bit"
        );
    }

    // Operating-point axis: one simulated 8-point sweep re-weighed to
    // every (node × vdd) point of the default scaling table, versus a
    // from-scratch search at one scaled point. The per-point marginal
    // cost is pure arithmetic — the section pins both the speed claim
    // and the bit-exactness of the re-weighting.
    const VDD_STEPS: usize = 8;
    println!("\nnodes: node x vdd re-weighting of one simulated sweep\n");
    println!(
        "{:<8} {:>7} {:>10} {:>11} {:>11} {:>10} {:>9} {:>10}",
        "app", "points", "base ms", "avg rw ns", "max rw ns", "fresh ms", "marginal", "identical"
    );
    let mut node_rows: Vec<String> = Vec::new();
    for &name in &sweep_apps {
        let w = by_name(name).expect("paper workload exists");
        let app = w.app().expect("bundled workload lowers");
        let workload = Workload::from_arrays(w.arrays(SEED));
        let base_config = SystemConfig::new();
        let configs = hardware_weight_sweep(&weights, &base_config);

        let base_start = Instant::now();
        let base = explore(&app, &workload, &configs).expect("base sweep runs");
        let base_nanos = base_start.elapsed().as_nanos();

        // Every point of the table: each node at VDD_STEPS supplies
        // descending from nominal to the sweep floor.
        let mut points: Vec<ResolvedPoint> = Vec::new();
        for node in base_config.scaling.nodes() {
            let row = base_config.scaling.row(node).expect("listed node");
            for vdd in row.vdd_sweep(&base_config.process, VDD_STEPS) {
                let rp = base_config
                    .clone()
                    .with_operating_point(OperatingPoint { node_nm: node, vdd })
                    .resolved_point()
                    .expect("table point is valid")
                    .expect("point is set");
                points.push(rp);
            }
        }

        // Marginal cost per point: re-weigh every base design point.
        let mut total_rw: u128 = 0;
        let mut max_rw: u128 = 0;
        let mut reweighed: Vec<Vec<(u64, u64, u64)>> = Vec::with_capacity(points.len());
        for rp in &points {
            let rw_start = Instant::now();
            let tuples: Vec<(u64, u64, u64)> = base
                .points
                .iter()
                .map(|p| {
                    let wm = rp.weigh_raw(p.energy, p.cycles, p.geq);
                    (
                        wm.energy.joules().to_bits(),
                        wm.time.secs().to_bits(),
                        wm.area_cells.to_bits(),
                    )
                })
                .collect();
            let nanos = rw_start.elapsed().as_nanos();
            total_rw += nanos;
            max_rw = max_rw.max(nanos);
            reweighed.push(tuples);
        }
        let avg_rw = total_rw / points.len() as u128;

        // From-scratch reference: a full search at the 180 nm nominal
        // point (first supply of its sweep) must reproduce the
        // memoized re-weighting bit for bit.
        let fresh_index = points
            .iter()
            .position(|rp| rp.point.node_nm == 180)
            .expect("180nm is in the default table");
        let fresh_rp = points[fresh_index];
        let fresh_start = Instant::now();
        let fresh_config = configs[0].1.clone().with_operating_point(fresh_rp.point);
        let engine = Engine::new(fresh_config).expect("engine");
        let session = engine.session(&app, &workload);
        let outcome = Partitioner::new(&session)
            .expect("initial run")
            .run()
            .expect("search");
        let fresh_nanos = fresh_start.elapsed().as_nanos();
        // Mirror the sweep's point assembly for the first weight.
        let (energy, cycles, geq) = match &outcome.best {
            Some((_, detail)) => (
                detail.metrics.total_energy(),
                detail.metrics.total_cycles(),
                detail.metrics.geq,
            ),
            None => (
                outcome.initial.total_energy(),
                outcome.initial.total_cycles(),
                GateEq::ZERO,
            ),
        };
        let wm = fresh_rp.weigh_raw(energy, cycles, geq);
        let fresh_tuple = (
            wm.energy.joules().to_bits(),
            wm.time.secs().to_bits(),
            wm.area_cells.to_bits(),
        );
        // base.points[0] is the initial design; [1] is configs[0].
        let identical = reweighed[fresh_index][1] == fresh_tuple;
        let marginal_ratio = avg_rw as f64 / fresh_nanos.max(1) as f64;
        println!(
            "{:<8} {:>7} {:>10.1} {:>11} {:>11} {:>10.1} {:>9.6} {:>10}",
            name,
            points.len(),
            base_nanos as f64 / 1e6,
            avg_rw,
            max_rw,
            fresh_nanos as f64 / 1e6,
            marginal_ratio,
            identical
        );
        node_rows.push(format!(
            concat!(
                "{{\"app\":\"{}\",\"points\":{},\"base_nanos\":{},",
                "\"avg_reweight_nanos\":{},\"max_reweight_nanos\":{},",
                "\"fresh_nanos\":{},\"marginal_ratio\":{:.9},\"identical\":{}}}"
            ),
            name,
            points.len(),
            base_nanos,
            avg_rw,
            max_rw,
            fresh_nanos,
            marginal_ratio,
            identical
        ));
        assert!(
            identical,
            "re-weighted operating point must match the from-scratch flow bit-for-bit"
        );
    }

    // Serve daemon: a warm artifact store versus the cold per-request
    // engines every client paid before it, then Zipf-like fingerprint
    // reuse through a byte-budgeted store.
    const SERVE_REQUESTS: usize = 24;
    println!("\nserve: warm store vs per-request engines ({SERVE_REQUESTS} requests/app)\n");
    println!(
        "{:<8} {:>4} {:>12} {:>12} {:>9} {:>9} {:>10}",
        "app", "N", "cold ms", "warm ms", "speedup", "hit rate", "identical"
    );
    let serve_apps: Vec<PaperWorkload> = match filter.as_deref() {
        Some(name) => vec![by_name(name).expect("validated above")],
        None => all(),
    };
    let mut serve_rows: Vec<String> = Vec::new();
    let mut footprints: Vec<u64> = Vec::new();
    for w in &serve_apps {
        let (row, bytes) = measure_serve_app(w, SERVE_REQUESTS);
        serve_rows.push(row);
        footprints.push(bytes);
    }
    let zipf_row = measure_serve_zipf(&serve_apps, &footprints, 24);
    let pipelined_row = measure_serve_pipelined(&serve_apps, 8);
    let coalesced_row = measure_serve_coalescing(&serve_apps[0], 16);

    // Corpus factory: generated-workload throughput through the
    // sharded, resumable runner, plus a back-to-back determinism
    // re-run (same seed, fresh journal → byte-identical results file).
    const CORPUS_APPS: u64 = 24;
    println!("\ncorpus: generated-workload factory ({CORPUS_APPS} apps, seed {SEED})\n");
    println!(
        "{:>6} {:>6} {:>10} {:>9} {:>9} {:>9} {:>10}",
        "apps", "chunk", "total ms", "apps/sec", "frontier", "buckets", "identical"
    );
    let corpus_row = {
        let scratch = |tag: &str| {
            std::env::temp_dir().join(format!(
                "corepart-bench-corpus-{}-{tag}",
                std::process::id()
            ))
        };
        let mut options = CorpusOptions::new(SystemConfig::new());
        options.chunk = 8;
        let (out_a, journal_a) = (scratch("a.tsv"), scratch("a.journal"));
        let start = Instant::now();
        let outcome = run_gen_corpus(
            SEED,
            CORPUS_APPS,
            options.clone(),
            &journal_a,
            &out_a,
            false,
        )
        .expect("corpus runs");
        let corpus_nanos = start.elapsed().as_nanos();

        let (out_b, journal_b) = (scratch("b.tsv"), scratch("b.journal"));
        run_gen_corpus(
            SEED,
            CORPUS_APPS,
            options.clone(),
            &journal_b,
            &out_b,
            false,
        )
        .expect("corpus re-runs");
        let identical =
            std::fs::read(&out_a).expect("results a") == std::fs::read(&out_b).expect("results b");
        for p in [&out_a, &journal_a, &out_b, &journal_b] {
            let _ = std::fs::remove_file(p);
        }

        let apps_per_sec = CORPUS_APPS as f64 / (corpus_nanos as f64 / 1e9);
        println!(
            "{:>6} {:>6} {:>10.1} {:>9.2} {:>9} {:>9} {:>10}",
            CORPUS_APPS,
            options.chunk,
            corpus_nanos as f64 / 1e6,
            apps_per_sec,
            outcome.frontier.len(),
            outcome.features.len(),
            identical
        );
        assert!(
            identical,
            "corpus results file must be byte-identical across reruns"
        );
        let trace_uses = measure_corpus_trace_uses(&options, CORPUS_APPS);
        format!(
            concat!(
                "{{\"apps\":{},\"chunk\":{},\"threads\":{},\"total_nanos\":{},",
                "\"apps_per_sec\":{:.4},\"frontier_points\":{},",
                "\"feature_buckets\":{},\"identical\":{},{}}}"
            ),
            CORPUS_APPS,
            options.chunk,
            threads,
            corpus_nanos,
            apps_per_sec,
            outcome.frontier.len(),
            outcome.features.len(),
            identical,
            trace_uses
        )
    };

    let json = format!(
        concat!(
            "{{\"host\":{},\"seed\":{},\"threads\":{},\"simulator\":[{}],\"workloads\":[{}],\"batch\":[{}],",
            "\"sweep\":[{}],\"nodes\":[{}],\"serve\":{{\"per_app\":[{}],\"zipf\":{},",
            "\"pipelined\":{},\"coalesced\":{}}},",
            "\"corpus\":{}}}\n"
        ),
        host_json(&[("rev", &git_rev())], SIM_REPS),
        SEED,
        threads,
        simulator_rows.join(","),
        outcome_rows.join(","),
        batch_rows.join(","),
        sweep_rows.join(","),
        node_rows.join(","),
        serve_rows.join(","),
        zipf_row,
        pipelined_row,
        coalesced_row,
        corpus_row
    );
    let path = "BENCH_partition.json";
    std::fs::write(path, &json).expect("write BENCH_partition.json");
    println!("\nwrote {path}");
}
