//! Determinism guarantees of the parallel, memoizing search engine.
//!
//! The engine promises bit-identical results for every thread count
//! ([`SystemConfig::threads`]): the estimate grid and the growth
//! rounds are parallel maps folded sequentially in candidate order,
//! and the schedule cache computes each key exactly once. These tests
//! pin that promise on the six paper workloads, on a full exploration
//! sweep, and — property-style — on the memoized schedule results
//! themselves.
//!
//! The same promise extends to the trace-replay verification engine:
//! replaying the captured reference trace under any hardware-block set
//! — on one thread or split into lane groups on several — must
//! reproduce direct simulation ([`run_iss`]): `RunStats` and
//! `HierarchyReport` bit for bit. A search that falls back to direct
//! simulation (capture over cap) must produce the identical outcome.
//!
//! Direct simulation itself runs on one thread or two — with two, the
//! cache hierarchy and the trace capture move to a helper thread fed
//! in chunks — and both paths must agree bit for bit, errors included.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use corepart::engine::Baseline;
use corepart::engine::Engine;
use corepart::evaluate::{evaluate_initial, run_iss, STREAM_CHUNK_EVENTS};
use corepart::explore::{explore, hardware_weight_sweep};
use corepart::ir::lower::lower;
use corepart::ir::op::BlockId;
use corepart::ir::parser::parse;
use corepart::partition::{Partitioner, ScheduleKey};
use corepart::prepare::{prepare, PreparedApp, Workload};
use corepart::sched::binding::{bind, schedule_cluster, utilization};
use corepart::sched::cache::{ScheduleCache, ScheduledCluster};
use corepart::system::SystemConfig;
use corepart_workloads::{all, by_name};

/// Everything a baseline capture produces that a thread count could
/// disturb: metrics, run statistics and, when the trace fits, its
/// fingerprint, heap size and event counts.
type Captured = (
    corepart::system::DesignMetrics,
    corepart::isa::simulator::RunStats,
    Option<(u64, usize, u64, u64)>,
);

fn capture_on(
    prepared: &PreparedApp,
    config: &SystemConfig,
    threads: usize,
    cap: usize,
) -> Captured {
    let config = config.clone().with_trace_cap(cap);
    let Baseline {
        metrics,
        stats,
        replay,
    } = evaluate_initial(prepared, &config, threads).expect("initial run");
    let trace = replay.map(|engine| {
        let t = engine.trace();
        t.validate().expect("a fresh capture validates");
        (t.fingerprint(), t.heap_bytes(), t.events(), t.data_events())
    });
    (metrics, stats, trace)
}

/// The baseline of an uncapped capture on the default thread count —
/// its replay engine is the one replay reference of the proptests.
fn uncapped_baseline(prepared: &PreparedApp, config: &SystemConfig) -> Baseline {
    let config = config.clone().with_trace_cap(usize::MAX);
    let threads = corepart::resolve_threads(config.threads);
    evaluate_initial(prepared, &config, threads).expect("initial run")
}

/// Asserts that direct simulation on one thread and on two agree bit
/// for bit on `prepared`: the baseline capture (metrics, statistics,
/// trace) and [`run_iss`] of the initial design and of `hw`.
fn assert_thread_counts_agree(name: &str, prepared: &PreparedApp, hw: &HashSet<BlockId>) {
    let config = SystemConfig::new();
    let cap = config.trace_cap_bytes;
    let one = capture_on(prepared, &config, 1, cap);
    let two = capture_on(prepared, &config, 2, cap);
    assert!(one.2.is_some(), "`{name}` fits the default trace cap");
    assert_eq!(one, two, "baseline capture diverged on `{name}`");
    for set in [&HashSet::new(), hw] {
        let direct = |threads| {
            run_iss(prepared, &config.clone().with_threads(threads), set).expect("direct run")
        };
        let (one, two) = (direct(1), direct(2));
        assert_eq!(one.stats, two.stats, "RunStats diverged on `{name}`");
        assert_eq!(
            one.report, two.report,
            "HierarchyReport diverged on `{name}`"
        );
    }
}

fn references(stats: &corepart::isa::simulator::RunStats) -> u64 {
    stats.sw_ifetches + stats.sw_reads + stats.sw_writes
}

#[test]
fn direct_simulation_is_thread_count_invariant_on_paper_workloads() {
    for w in all() {
        let app = w.app().expect("workload lowers");
        let workload = Workload::from_arrays(w.arrays(1));
        let prepared = prepare(app, workload, &SystemConfig::new()).expect("prepares");
        let (_, stats, _) = capture_on(&prepared, &SystemConfig::new(), 1, 0);
        // Long enough that the two-thread run starts its helper.
        assert!(
            references(&stats) > STREAM_CHUNK_EVENTS as u64,
            "`{}`",
            w.name
        );
        let hot = prepared.chain.iter().find(|c| c.is_loop()).expect("a loop");
        let hw = hot.blocks.iter().copied().collect();
        assert_thread_counts_agree(w.name, &prepared, &hw);
    }
}

#[test]
fn direct_simulation_is_thread_count_invariant_on_generated_apps() {
    for seed in 1..=12 {
        let generated = corepart_conform::generate(seed);
        let app = lower(&parse(&generated.source()).expect("parses")).expect("lowers");
        let workload = Workload::from_arrays(generated.workload_arrays());
        let prepared = prepare(app, workload, &SystemConfig::new()).expect("prepares");
        let hw = prepared
            .chain
            .iter()
            .take(1)
            .flat_map(|c| c.blocks.iter().copied())
            .collect();
        assert_thread_counts_agree(&format!("generated #{seed}"), &prepared, &hw);
    }
}

#[test]
fn capture_caps_and_cycle_limits_are_thread_count_invariant() {
    let w = by_name("ckey").expect("bundled");
    let app = w.app().expect("lowers");
    let prepared = prepare(
        app,
        Workload::from_arrays(w.arrays(1)),
        &SystemConfig::new(),
    )
    .expect("prepares");
    let config = SystemConfig::new();

    // A cap of 0 disables capture and a 64-byte cap overflows at once:
    // both give no trace and unchanged metrics, on either path.
    let full = capture_on(&prepared, &config, 1, config.trace_cap_bytes);
    for cap in [0, 64] {
        for threads in [1, 2] {
            let capped = capture_on(&prepared, &config, threads, cap);
            assert_eq!(capped.2, None, "cap {cap}, threads {threads}");
            assert_eq!((&capped.0, &capped.1), (&full.0, &full.1), "cap {cap}");
        }
    }

    // A cycle budget that runs out half way, long after the helper has
    // started: both paths fail with the same typed error. The helper is
    // scoped, so each call returning means it was joined.
    let mut limited = config.clone();
    limited.max_cycles = full.1.cycles.count() / 2;
    assert!(references(&full.1) / 2 > 4 * STREAM_CHUNK_EVENTS as u64);
    let describe = |e: corepart::CorepartError| format!("{e:?}");
    let capture_errors: Vec<String> = [1, 2]
        .map(|threads| {
            let config = limited.clone().with_trace_cap(usize::MAX);
            describe(evaluate_initial(&prepared, &config, threads).unwrap_err())
        })
        .to_vec();
    let direct_errors: Vec<String> = [1, 2]
        .map(|threads| {
            let config = limited.clone().with_threads(threads);
            describe(run_iss(&prepared, &config, &HashSet::new()).unwrap_err())
        })
        .to_vec();
    assert!(
        capture_errors[0].contains("CycleLimit"),
        "{}",
        capture_errors[0]
    );
    assert_eq!(capture_errors[0], capture_errors[1]);
    assert_eq!(direct_errors[0], direct_errors[1]);
    assert_eq!(capture_errors[0], direct_errors[0]);
}

#[test]
fn parallel_search_matches_sequential_on_all_six_workloads() {
    for w in all() {
        let app = w.app().expect("workload lowers");
        let workload = Workload::from_arrays(w.arrays(1));
        // Two isolated engines: the thread knob is not part of any
        // stage fingerprint, so sessions on a shared engine would also
        // share the schedule cache and the second search would see the
        // first one's entries — this test wants two cold searches.
        let search = |threads: usize| {
            let engine = Engine::new(SystemConfig::new().with_threads(threads)).expect("engine");
            let session = engine.session(&app, &workload);
            Partitioner::new(&session).expect("initial run").run()
        };
        let sequential = search(1).expect("sequential search");
        let parallel = search(4).expect("parallel search");

        // PartitionOutcome equality covers the initial metrics, the
        // chosen partition + its verified detail, and the search
        // statistics (wall times excluded by design).
        assert_eq!(sequential, parallel, "outcome diverged on `{}`", w.name);
        assert_eq!(
            sequential.search.cache_hits, parallel.search.cache_hits,
            "cache hits diverged on `{}`",
            w.name
        );
        assert_eq!(
            sequential.search.cache_misses, parallel.search.cache_misses,
            "cache misses diverged on `{}`",
            w.name
        );
    }
}

#[test]
fn exploration_sweep_is_thread_count_invariant() {
    let w = by_name("digs").expect("digs exists");
    let app = w.app().expect("lowers");
    let workload = Workload::from_arrays(w.arrays(1));
    let weights = [0.0, 0.1, 0.2, 0.5, 1.0, 2.0];

    let sweep = |threads: usize| {
        let configs = hardware_weight_sweep(&weights, &SystemConfig::new().with_threads(threads));
        explore(&app, &workload, &configs).expect("sweep runs")
    };
    let sequential = sweep(1);
    let parallel = sweep(3);

    // DesignPoint is PartialEq over raw f64s: bit-identical or bust.
    assert_eq!(sequential.points, parallel.points);
    assert_eq!(
        sequential
            .pareto_frontier()
            .iter()
            .map(|p| p.label.clone())
            .collect::<Vec<_>>(),
        parallel
            .pareto_frontier()
            .iter()
            .map(|p| p.label.clone())
            .collect::<Vec<_>>(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Memoized schedule results equal freshly computed ones for any
    /// cluster subset and any resource set, and repeat lookups are
    /// served from the cache.
    #[test]
    fn memoized_schedules_equal_fresh_computation(
        picks in prop::collection::vec(0usize..64, 1..5),
        set_index in 0usize..5,
    ) {
        let w = by_name("trick").expect("trick exists");
        let config = SystemConfig::new();
        let prepared = prepare(
            w.app().expect("lowers"),
            Workload::from_arrays(w.arrays(1)),
            &config,
        )
        .expect("prepares");

        // Map the raw picks onto actual cluster ids, dedup, sort —
        // the canonical partition order.
        let cluster_ids: Vec<_> = prepared.chain.iter().map(|c| c.id).collect();
        let mut clusters: Vec<_> = picks
            .iter()
            .map(|&p| cluster_ids[p % cluster_ids.len()])
            .collect();
        clusters.sort();
        clusters.dedup();
        let set = &config.resource_sets[set_index % config.resource_sets.len()];

        let mut blocks = Vec::new();
        for &cid in &clusters {
            blocks.extend(prepared.chain.cluster(cid).blocks.iter().copied());
        }

        let cache: Arc<ScheduleCache<ScheduleKey>> = Arc::new(ScheduleCache::new());
        let key: ScheduleKey = (clusters.clone(), set.name().to_owned(), set.iter().collect());
        let compute = || {
            let sched = schedule_cluster(&prepared.app, &blocks, set, &config.library)?;
            let binding = bind(&sched, &config.library);
            let util = utilization(&sched, &binding, &prepared.profile, &config.library);
            Ok(ScheduledCluster { sched, binding, util })
        };

        let fresh = compute();
        let cached_first = cache.get_or_compute(key.clone(), compute);
        let cached_again = cache.get_or_compute(key, || unreachable!("must be cached"));

        match (fresh, cached_first, cached_again) {
            (Ok(fresh), Ok(first), Ok(again)) => {
                prop_assert_eq!(&fresh, &*first);
                prop_assert!(Arc::ptr_eq(&first, &again));
                prop_assert_eq!(cache.misses(), 1);
                prop_assert_eq!(cache.hits(), 1);
            }
            (Err(fresh_err), Err(first_err), Err(again_err)) => {
                // Infeasibility must be cached faithfully too.
                prop_assert_eq!(&fresh_err, &first_err);
                prop_assert_eq!(&first_err, &again_err);
            }
            other => prop_assert!(false, "cache/fresh disagreement: {:?}", other),
        }
    }
}

#[test]
fn replay_matches_direct_simulation_on_all_six_workloads() {
    // Fixed regression case per paper workload: the hardware-block set
    // of the top pre-selected cluster, verified once by direct
    // simulation and once by replaying the captured reference trace.
    for w in all() {
        let app = w.app().expect("workload lowers");
        let workload = Workload::from_arrays(w.arrays(1));
        let factory = Engine::new(SystemConfig::new()).expect("engine");
        let session = factory.session(&app, &workload);
        let config = session.config();
        let prepared = session.prepared().expect("workload prepares");
        let partitioner = Partitioner::new(&session).expect("initial run");
        let engine = partitioner
            .replay_engine()
            .expect("every paper workload fits the default trace cap");

        let top = partitioner
            .candidates()
            .first()
            .cloned()
            .expect("pre-selection keeps a candidate");
        let hw: HashSet<BlockId> = prepared
            .chain
            .cluster(top.cluster)
            .blocks
            .iter()
            .copied()
            .collect();

        let direct = run_iss(prepared, config, &hw).expect("direct simulation");
        let replayed = engine.verify(config, &hw).expect("replay");
        assert_eq!(
            direct.stats, replayed.stats,
            "RunStats diverged on `{}`",
            w.name
        );
        assert_eq!(
            direct.report, replayed.report,
            "HierarchyReport diverged on `{}`",
            w.name
        );
    }
}

#[test]
fn batched_replay_matches_sequential_on_fixed_candidate_sets() {
    // Fixed regression case on two paper workloads: the batched kernel
    // must reproduce a direct simulation per lane — empty set, every
    // single-cluster set, and the union of all.
    for name in ["digs", "MPG"] {
        let w = by_name(name).expect("workload exists");
        let app = w.app().expect("lowers");
        let workload = Workload::from_arrays(w.arrays(1));
        let factory = Engine::new(SystemConfig::new()).expect("engine");
        let session = factory.session(&app, &workload);
        let config = session.config();
        let prepared = session.prepared().expect("prepares");
        let partitioner = Partitioner::new(&session).expect("initial run");
        let engine = partitioner
            .replay_engine()
            .expect("paper workload fits the default trace cap");

        let mut candidates: Vec<HashSet<BlockId>> = vec![HashSet::new()];
        let mut union: HashSet<BlockId> = HashSet::new();
        for cluster in prepared.chain.iter() {
            let hw: HashSet<BlockId> = cluster.blocks.iter().copied().collect();
            union.extend(hw.iter().copied());
            candidates.push(hw);
        }
        candidates.push(union);

        let batched = engine
            .verify_batch(config, &candidates)
            .expect("batched replay");
        assert_eq!(engine.batches(), 1, "one walk verifies every lane");
        assert_eq!(batched.len(), candidates.len());
        for (hw, got) in candidates.iter().zip(&batched) {
            let direct = run_iss(prepared, config, hw).expect("direct simulation");
            assert_eq!(&direct, &**got, "batched lane diverged on `{name}`");
        }
    }
}

#[test]
fn verification_reuses_estimate_phase_schedule_cache_on_mpg() {
    // The verification path builds the same `ScheduleKey` the estimate
    // phase used, so the winner's schedule trio must be a cache hit —
    // this used to report `cache_hits: 0` on all six workloads.
    let w = by_name("MPG").expect("MPG exists");
    let app = w.app().expect("lowers");
    let workload = Workload::from_arrays(w.arrays(1));
    let engine = Engine::new(SystemConfig::new()).expect("engine");
    let session = engine.session(&app, &workload);
    let partitioner = Partitioner::new(&session).expect("initial run");
    let outcome = partitioner.run().expect("search");
    assert!(outcome.best.is_some(), "mpg finds a partition");
    assert!(
        outcome.search.cache_hits > 0,
        "verification must hit the estimate phase's schedule-cache entry, got {:?}",
        outcome.search
    );
    assert_eq!(outcome.search.replayed, 1, "one replayed verification");
}

#[test]
fn tiny_trace_cap_falls_back_to_identical_direct_search() {
    // A 16-byte cap discards every capture; the search silently falls
    // back to direct simulation and must produce the same outcome.
    let w = by_name("digs").expect("digs exists");
    let app = w.app().expect("lowers");
    let workload = Workload::from_arrays(w.arrays(1));
    // Isolated engines — outcome equality includes the schedule-cache
    // hit/miss counters, so both searches must start cold. The trace
    // cap is part of the baseline fingerprint, so the capped session
    // genuinely has no replay engine to fall back on.
    let replay_engine = Engine::new(SystemConfig::new()).expect("engine");
    let replay_session = replay_engine.session(&app, &workload);
    let fallback_engine = Engine::new(SystemConfig::new().with_trace_cap(16)).expect("engine");
    let fallback_session = fallback_engine.session(&app, &workload);

    let with_replay = Partitioner::new(&replay_session).expect("initial run");
    assert!(with_replay.replay_engine().is_some());
    let without_replay = Partitioner::new(&fallback_session).expect("initial run");
    assert!(
        without_replay.replay_engine().is_none(),
        "16-byte cap overflows"
    );

    let replayed = with_replay.run().expect("replayed search");
    let direct = without_replay.run().expect("direct search");
    assert_eq!(replayed, direct);
    assert!(replayed.search.replayed > 0);
    assert_eq!(direct.search.replayed, 0);
}

const REPLAY_PROGRAMS: [&str; 3] = [
    r#"app p0; var a[32]; var s = 0;
    func main() {
        for (var i = 0; i < 32; i = i + 1) { a[i] = a[i] * 3 + i; }
        for (var j = 0; j < 32; j = j + 1) { s = s + a[j]; }
        return s;
    }"#,
    r#"app p1; var x[24]; var y[24]; var t = 0;
    func main() {
        for (var i = 1; i < 23; i = i + 1) {
            y[i] = (x[i - 1] + x[i] * 2 + x[i + 1]) >> 2;
        }
        for (var j = 0; j < 24; j = j + 1) {
            if (y[j] > 4) { t = t + y[j]; } else { t = t - 1; }
        }
        return t;
    }"#,
    r#"app p2; var b[16]; var acc = 1;
    func main() {
        for (var i = 0; i < 16; i = i + 1) {
            b[i] = (b[i] ^ (i << 2)) & 255;
            while (b[i] > 9) { b[i] = b[i] - 7; }
        }
        for (var j = 0; j < 16; j = j + 1) { acc = acc + b[j] * b[j]; }
        return acc;
    }"#,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replaying the captured trace under an arbitrary hardware-block
    /// subset reproduces the direct partitioned simulation bit for bit
    /// — `RunStats` and `HierarchyReport` alike — on random small
    /// programs with random inputs.
    #[test]
    fn replay_is_bit_identical_for_random_hw_subsets(
        program in 0usize..3,
        seed in 0i64..1000,
        mask in prop::collection::vec(any::<bool>(), 64..65),
    ) {
        let config = SystemConfig::new();
        let app = lower(&parse(REPLAY_PROGRAMS[program]).expect("parses")).expect("lowers");
        let array = app.arrays().first().map(|a| a.name.clone()).expect("has an array");
        let len = app.arrays().first().map(|a| a.len).expect("array length");
        let input: Vec<i64> = (0..len as i64).map(|i| (i * 7 + seed) % 19 - 9).collect();
        let prepared = prepare(
            app,
            Workload::from_arrays([(array.as_str(), input)]),
            &config,
        )
        .expect("prepares");

        let hw: HashSet<BlockId> = (0..prepared.app.blocks().len())
            .filter(|&b| mask[b % mask.len()])
            .map(|b| BlockId(b as u32))
            .collect();

        let engine = uncapped_baseline(&prepared, &config)
            .replay
            .expect("tiny program fits");

        let direct = run_iss(&prepared, &config, &hw).expect("direct simulation");
        let replayed = engine.verify(&config, &hw).expect("replay");
        prop_assert_eq!(&direct.stats, &replayed.stats);
        prop_assert_eq!(&direct.report, &replayed.report);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The batched replay kernel is bit-identical (`==` on
    /// [`VerifiedRun`](corepart::verify::VerifiedRun)) to direct
    /// simulation for any K random hardware-block subsets of a paper
    /// workload — shared decode and interleaved accounting must not
    /// perturb a single f64 in any lane.
    #[test]
    fn batched_replay_is_bit_identical_for_random_k_subsets(
        workload_pick in 0usize..2,
        masks in prop::collection::vec(
            prop::collection::vec(any::<bool>(), 16..17),
            1..6,
        ),
    ) {
        let name = ["digs", "trick"][workload_pick];
        let w = by_name(name).expect("workload exists");
        let config = SystemConfig::new();
        let prepared = prepare(
            w.app().expect("lowers"),
            Workload::from_arrays(w.arrays(1)),
            &config,
        )
        .expect("prepares");

        let candidates: Vec<HashSet<BlockId>> = masks
            .iter()
            .map(|mask| {
                (0..prepared.app.blocks().len())
                    .filter(|&b| mask[b % mask.len()])
                    .map(|b| BlockId(b as u32))
                    .collect()
            })
            .collect();

        let engine = uncapped_baseline(&prepared, &config)
            .replay
            .expect("paper workload fits");

        let batched = engine.verify_batch(&config, &candidates).expect("batch");
        prop_assert_eq!(batched.len(), candidates.len());
        for (hw, got) in candidates.iter().zip(&batched) {
            let direct = run_iss(&prepared, &config, hw).expect("direct simulation");
            prop_assert_eq!(&direct, &**got);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The batch split into lane groups on several threads is
    /// bit-identical to direct simulation for every thread count, on
    /// every paper workload: threading changes the schedule of the
    /// walks, never a single f64 in any lane.
    #[test]
    fn threaded_batched_replay_is_bit_identical_on_all_workloads(
        workload_pick in 0usize..6,
        threads_pick in 0usize..4,
        masks in prop::collection::vec(
            prop::collection::vec(any::<bool>(), 16..17),
            1..6,
        ),
    ) {
        let threads = [1usize, 2, 3, 8][threads_pick];
        let workloads = all();
        let w = &workloads[workload_pick % workloads.len()];
        let config = SystemConfig::new();
        let prepared = prepare(
            w.app().expect("lowers"),
            Workload::from_arrays(w.arrays(1)),
            &config,
        )
        .expect("prepares");

        let candidates: Vec<HashSet<BlockId>> = masks
            .iter()
            .map(|mask| {
                (0..prepared.app.blocks().len())
                    .filter(|&b| mask[b % mask.len()])
                    .map(|b| BlockId(b as u32))
                    .collect()
            })
            .collect();

        let engine = uncapped_baseline(&prepared, &config)
            .replay
            .expect("paper workload fits");

        let batched = engine
            .verify_batch_with(&config, &candidates, threads)
            .expect("batch");
        prop_assert_eq!(batched.len(), candidates.len());
        for (hw, got) in candidates.iter().zip(&batched) {
            let direct = run_iss(&prepared, &config, hw).expect("direct simulation");
            prop_assert_eq!(&direct, &**got);
        }
    }
}
