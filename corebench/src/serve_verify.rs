//! `serve-verify`: the daemon's write path under real queueing. Open
//! loop at a fixed rate over a few connections with `"ordered":false`;
//! every request is a distinct `verify` key, so each one misses the
//! result memo and runs schedule/estimate plus a replay (coalesced with
//! same-trace neighbours when they queue together).

use std::collections::HashSet;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use corepart::engine::Engine;
use corepart::ir::cluster::ClusterId;
use corepart::prepare::Workload;
use corepart::serve::{ComputeKind, ComputeRequest, Server};
use corepart::store::StoreStats;
use corepart::system::SystemConfig;
use corepart_workloads::all;

use crate::calib::Clock;
use crate::net::{
    answer, at_ns, check_fresh, response_id, since_ns, stat_field, stop_daemon, timed_set_ups,
    write_line, Client, Pace, Pacer,
};
use crate::probe::probe;
use crate::report::{Ctx, Run};
use crate::stats::{percentile, Rng};
use crate::trace::Tracer;

/// Sizes of one `serve-verify` run.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Paper applications in the pool.
    pub apps: usize,
    /// Designer resource sets in the pool (indices 0..sets).
    pub sets: usize,
    /// Offered load, requests per second.
    pub rate: f64,
    /// Client connections, one thread each.
    pub conns: usize,
    /// Segments of the run, each on a fresh daemon.
    pub segments: usize,
    /// Timed set-ups (daemon spawn plus one `partition` per
    /// application) before each segment; the segment runs on the last
    /// one's daemon.
    pub setups: usize,
    /// Every this many requests is checked against a fresh engine.
    pub oracle_every: usize,
    /// Requests probed layer by layer in a traced run.
    pub probe_ops: usize,
    /// Candidates per batched replay in the traced run's kernel probe.
    pub batch_lanes: usize,
}

/// The sizes the benchmark runs. At 200 req/s the daemon's busiest
/// shard ran close to saturation: in a slow phase of the host its queue
/// grew and the median latency jumped from 10 ms to 20–140 ms. At 100
/// req/s the queue wait stays under 0.1 ms. A set-up is short and
/// depends on whether the second vCPU is free, so the median of 12 a
/// run still spread 12–13 % (IQR over ten seeds); a run times 20.
pub const SIZES: Sizes = Sizes {
    apps: 6,
    sets: 5,
    rate: 100.0,
    conns: 2,
    segments: 4,
    setups: 5,
    oracle_every: 100,
    probe_ops: 24,
    batch_lanes: 16,
};

/// The applications run on the input arrays of this seed in every run;
/// the benchmark seed picks the draw and its order. The daemon places
/// a request on a shard by a hash of its text, arrays included, so
/// seed-dependent arrays would put two heavy applications on one shard
/// in some runs and not in others, which moves p99 by several times.
const INPUT_SEED: u64 = 1;

/// One pool key: application, clusters, resource set.
type Key = (usize, Vec<u32>, usize);

type Arrays = Vec<(String, Vec<i64>)>;

/// Every (application, non-empty cluster subset, resource set) of one
/// application.
fn keys_of(app: usize, chain_len: usize, sets: usize) -> Vec<Key> {
    let mut keys = Vec::new();
    for mask in 1u64..(1 << chain_len) {
        let clusters: Vec<u32> = (0..chain_len as u32)
            .filter(|c| mask >> c & 1 == 1)
            .collect();
        for set in 0..sets {
            keys.push((app, clusters.clone(), set));
        }
    }
    keys
}

/// The `total` requests of a run, drawn without repeats from the pool
/// of every (application, non-empty cluster subset, resource set) and
/// shuffled by the seed. The draw is stratified: every key of the
/// applications with the fewest keys, smallest first, topped up with a
/// seeded sample of the first one that does not fit whole. The few keys
/// that cost 100 ms (some `ckey` subsets on sets 0 and 4) are then in
/// every run, not in a seed-dependent handful, and they set the tail.
pub fn draw(seed: u64, chain_lens: &[usize], sets: usize, total: usize) -> Vec<Key> {
    let mut rng = Rng::new(seed, 200);
    let mut by_size: Vec<usize> = (0..chain_lens.len()).collect();
    by_size.sort_by_key(|&a| chain_lens[a]);
    let mut keys = Vec::with_capacity(total);
    for a in by_size {
        let mut more = keys_of(a, chain_lens[a], sets);
        if keys.len() + more.len() > total {
            rng.shuffle(&mut more);
            more.truncate(total - keys.len());
        }
        keys.extend(more);
    }
    rng.shuffle(&mut keys);
    keys
}

/// The verify request for pool key `key`; `inputs` holds each
/// application's source and arrays.
fn request(inputs: &[(&'static str, Arrays)], key: &Key, id: u64) -> ComputeRequest {
    let (source, arrays) = &inputs[key.0];
    let mut req = ComputeRequest::new(ComputeKind::Verify, source);
    req.id = Some(id);
    req.arrays = arrays.clone();
    req.clusters = key.1.clone();
    req.set_index = key.2;
    req.ordered = false;
    req
}

/// What one connection's reader saw.
#[derive(Default)]
struct Received {
    /// (request id, answer) of each answered request.
    answers: Vec<(usize, String)>,
    latencies_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    compute_ms: Vec<f64>,
    failures: Vec<String>,
}

/// The pacing thread: writes each of `lines` at its due time, dealt
/// round robin over the connections. It sleeps between sends, which
/// wakes it on time; a socket timeout would not (see
/// [`crate::net::WATCHDOG`]).
fn send_paced(
    writers: &mut [TcpStream],
    lines: &[String],
    pacer: &mut Pacer,
    start: Instant,
) -> Result<(), String> {
    loop {
        match pacer.poll(since_ns(start)) {
            Pace::Send(j) => {
                let conn = &mut writers[j % writers.len()];
                write_line(conn, &lines[j]).map_err(|e| format!("send {j}: {e}"))?;
            }
            Pace::Wait(ns) => {
                std::thread::sleep(at_ns(start, ns).saturating_duration_since(Instant::now()));
            }
            Pace::Done => return Ok(()),
        }
    }
}

/// Reads `expected` responses, timing each from its request's due
/// time; request `first + j` was due `schedule.due_ns(j)` after
/// `start`.
fn receive(
    client: &mut Client,
    expected: usize,
    schedule: &Pacer,
    start: Instant,
    first: usize,
    tracer: &Tracer,
) -> Received {
    let mut got = Received::default();
    for _ in 0..expected {
        let line = match client.recv() {
            Ok(line) => line,
            Err(e) => {
                got.failures.push(format!("receive: {e}"));
                break;
            }
        };
        let now = Instant::now();
        let Some(id) = response_id(&line).map(|i| i as usize) else {
            got.failures
                .push(format!("response without an id: {line:.120}"));
            continue;
        };
        let Some(j) = id.checked_sub(first) else {
            got.failures
                .push(format!("response to unknown request {id}"));
            continue;
        };
        let due = at_ns(start, schedule.due_ns(j));
        tracer.record("serve.request", id as u64, due, now);
        got.latencies_ms
            .push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
        match answer(&line) {
            Ok(a) => got.answers.push((id, a.to_owned())),
            Err(e) => got.failures.push(format!("request {id}: {e}")),
        }
        if let (Some(q), Some(c)) = (
            stat_field(&line, "queue_nanos"),
            stat_field(&line, "compute_nanos"),
        ) {
            got.queue_ms.push(q as f64 / 1e6);
            got.compute_ms.push(c as f64 / 1e6);
        }
    }
    got
}

/// What one segment's open loop saw.
struct OpenLoop {
    received: Vec<Received>,
    late_ms: Vec<f64>,
    /// Seconds from the first due time to the last answer.
    seconds: f64,
}

/// Runs one segment's open loop: `lines` (ids from `first`) at `rate`
/// over `conns` fresh connections, one reader thread each, written by
/// one pacing thread.
fn open_loop(
    server: &Server,
    lines: &[String],
    first: usize,
    rate: f64,
    conns: usize,
    tracer: &Tracer,
) -> Result<OpenLoop, String> {
    let connect = |e: std::io::Error| format!("connect: {e}");
    let mut clients = (0..conns.max(1))
        .map(|_| Client::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(connect)?;
    let mut writers = clients
        .iter()
        .map(Client::writer)
        .collect::<Result<Vec<_>, _>>()
        .map_err(connect)?;
    let conns = clients.len();
    let mut pacer = Pacer::new(rate, lines.len());
    let schedule = pacer.clone();
    // Senders and readers share one start a moment ahead, so the first
    // request is not late by the threads' start-up.
    let start = Instant::now() + Duration::from_millis(5);
    let (sent, received) = std::thread::scope(|s| {
        let readers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let expected = (c..lines.len()).step_by(conns).count();
                let schedule = &schedule;
                s.spawn(move || receive(client, expected, schedule, start, first, tracer))
            })
            .collect();
        let sent = send_paced(&mut writers, lines, &mut pacer, start);
        let received: Vec<Received> = readers
            .into_iter()
            .map(|h| h.join().expect("a reader thread panicked"))
            .collect();
        (sent, received)
    });
    sent?;
    Ok(OpenLoop {
        received,
        late_ms: pacer.late_ms().to_vec(),
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Store counters summed over the segments' daemons.
#[derive(Default)]
struct Counters {
    requests: u64,
    hits: u64,
    evictions: u64,
    coalesced: u64,
}

impl Counters {
    fn add(&mut self, before: &StoreStats, after: &StoreStats) {
        self.requests += after.requests - before.requests;
        self.hits += after.hits - before.hits;
        self.evictions += after.evictions - before.evictions;
        self.coalesced += after.pipeline.coalesced_k2_4 + after.pipeline.coalesced_k5_16
            - before.pipeline.coalesced_k2_4
            - before.pipeline.coalesced_k5_16;
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, sizes: &Sizes) -> Run {
    let mut run = Run::default();
    let apps: Vec<_> = all().into_iter().take(sizes.apps).collect();

    // Inputs: each application's cluster count sizes the pool.
    let mut chain_lens = Vec::new();
    for w in &apps {
        let len = w
            .app()
            .map_err(corepart::CorepartError::from)
            .and_then(|app| {
                let engine = Engine::new(SystemConfig::new())?;
                let workload = Workload::from_arrays(w.arrays(INPUT_SEED));
                let session = engine.session(&app, &workload);
                Ok(session.prepared()?.chain.len())
            });
        match len {
            Ok(len) => chain_lens.push(len),
            Err(e) => {
                run.problem(format!("preparing {}: {e}", w.name));
                return run;
            }
        }
    }
    let pool_keys: usize = chain_lens
        .iter()
        .map(|&l| ((1usize << l) - 1) * sizes.sets)
        .sum();
    let wanted = (sizes.rate * ctx.run_for.as_secs_f64()).round() as usize;
    let total = wanted.clamp(1, pool_keys);
    let keys = draw(ctx.seed, &chain_lens, sizes.sets, total);
    let inputs: Vec<(&'static str, Arrays)> = apps
        .iter()
        .map(|w| (w.source, w.arrays(INPUT_SEED)))
        .collect();
    let segments = sizes.segments.clamp(1, total);
    run.sizes = vec![
        ("pool_keys", pool_keys as u64),
        ("requests", total as u64),
        ("rate_per_s", sizes.rate as u64),
        ("connections", sizes.conns as u64),
        ("segments", segments as u64),
        ("setups", (segments * sizes.setups.max(1)) as u64),
    ];
    if total < wanted {
        run.problem(format!(
            "the pool holds {pool_keys} keys, {wanted} asked for"
        ));
    }

    let warm_reqs: Vec<ComputeRequest> = apps
        .iter()
        .map(|w| {
            let mut req = ComputeRequest::new(ComputeKind::Partition, w.source);
            req.arrays = w.arrays(INPUT_SEED);
            req
        })
        .collect();
    let warm_lines: Vec<String> = warm_reqs.iter().map(ComputeRequest::to_json).collect();
    let mut warm_answers: Option<Vec<String>> = None;
    let mut answers: Vec<Option<String>> = vec![None; total];
    let (mut queue_ms, mut compute_ms) = (Vec::new(), Vec::new());
    let mut late_ms = Vec::new();
    let mut counters = Counters::default();
    let per_segment = total.div_ceil(segments);
    // Set-up is CPU-bound, so it is timed against the reference kernel;
    // the measured phase is paced by the clock and is not.
    let mut clock = Clock::new();
    for seg in 0..segments {
        let first = seg * per_segment;
        let ids = first..total.min(first + per_segment);
        let up = timed_set_ups(
            &mut clock,
            &mut run.setup_s,
            &warm_lines,
            sizes.conns,
            sizes.setups,
        );
        let (server, warm) = match up {
            Ok(up) => up,
            Err(e) => {
                run.problem(format!("set-up: {e}"));
                return run;
            }
        };
        match &warm_answers {
            None => warm_answers = Some(warm),
            Some(want) if *want == warm => {}
            Some(_) => run.problem("set-ups answered the warm-up differently"),
        }
        let lines: Vec<String> = ids
            .clone()
            .map(|i| request(&inputs, &keys[i], i as u64).to_json())
            .collect();
        let before = server.store().stats();
        match open_loop(&server, &lines, first, sizes.rate, sizes.conns, &ctx.tracer) {
            Ok(done) => {
                run.measured_s += done.seconds;
                late_ms.extend(done.late_ms);
                for got in done.received {
                    run.latencies_ms.extend(got.latencies_ms);
                    queue_ms.extend(got.queue_ms);
                    compute_ms.extend(got.compute_ms);
                    for (i, a) in got.answers {
                        match answers.get_mut(i) {
                            Some(slot) => *slot = Some(a),
                            None => run.problem(format!("response to unknown request {i}")),
                        }
                    }
                    for f in got.failures {
                        run.problem(f);
                    }
                }
            }
            Err(e) => run.problem(e),
        }
        counters.add(&before, &server.store().stats());
        if ctx.traced() && seg + 1 == segments {
            let ops: Vec<ComputeRequest> = (0..sizes.probe_ops.min(total))
                .map(|i| request(&inputs, &keys[i], i as u64))
                .collect();
            match probe(&ctx.tracer, &ops, Some(&server)) {
                Ok(layers) => run.layers = layers,
                Err(e) => run.problem(e),
            }
        }
        stop_daemon(server);
    }
    run.host_speed(&clock);
    run.attempted = total as u64;
    run.items = answers.iter().flatten().count() as u64;

    let p = |v: &[f64], q| percentile(v, q).unwrap_or(0.0);
    let late_max_ms = p(&late_ms, 100.0);
    run.detail("loadgen.late_ms_max", late_max_ms);
    run.detail("loadgen.late_ms_p99", p(&late_ms, 99.0));
    run.detail("serve.queue_ms_p50", p(&queue_ms, 50.0));
    run.detail("serve.queue_ms_p99", p(&queue_ms, 99.0));
    run.detail("serve.compute_ms_p50", p(&compute_ms, 50.0));
    run.detail("serve.compute_ms_p99", p(&compute_ms, 99.0));
    run.detail("serve.coalesced_batches", counters.coalesced as f64);
    run.detail("store.evictions", counters.evictions as f64);
    run.detail(
        "store.hit_rate",
        counters.hits as f64 / counters.requests.max(1) as f64,
    );
    if late_max_ms > 10.0 {
        eprintln!(
            "corebench: serve-verify generator ran {:.1} ms late; this run's latencies are suspect",
            late_max_ms
        );
    }
    if ctx.traced() {
        match batch_us_per_candidate(&apps, &keys, sizes.batch_lanes) {
            Ok(us) => run.detail("verify.batch_us_per_candidate", us),
            Err(e) => run.problem(e),
        }
    }

    // The oracle: the set-up answers and every `oracle_every`-th
    // request against fresh engines.
    for (req, served) in warm_reqs.iter().zip(warm_answers.iter().flatten()) {
        if let Err(e) = check_fresh(req, served) {
            run.problem(e);
        }
    }
    for (i, a) in answers.iter().enumerate() {
        match a {
            Some(a) => {
                run.digest.add(a.as_bytes());
                if i % sizes.oracle_every.max(1) == 0 {
                    if let Err(e) = check_fresh(&request(&inputs, &keys[i], i as u64), a) {
                        run.problem(format!("request {i}: {e}"));
                    }
                }
            }
            None => run.fail(format!("request {i} has no answer")),
        }
    }
    run
}

/// The batched replay kernel on its own: per application, one call
/// verifying `lanes` of its pool's hardware sets on a fresh engine;
/// microseconds per candidate, over all applications.
fn batch_us_per_candidate(
    apps: &[corepart_workloads::PaperWorkload],
    keys: &[Key],
    lanes: usize,
) -> Result<f64, String> {
    let (mut nanos, mut candidates) = (0u128, 0usize);
    for (a, w) in apps.iter().enumerate() {
        let fail = |e: corepart::CorepartError| format!("batch probe of {}: {e}", w.name);
        let app = w.app().map_err(|e| fail(e.into()))?;
        let engine = Engine::new(SystemConfig::new()).map_err(fail)?;
        let workload = Workload::from_arrays(w.arrays(INPUT_SEED));
        let session = engine.session(&app, &workload);
        let prepared = session.prepared().map_err(fail)?;
        let Some(replay) = session.replay_engine().map_err(fail)? else {
            return Err(format!("batch probe of {}: no captured trace", w.name));
        };
        let sets: Vec<HashSet<_>> = keys
            .iter()
            .filter(|k| k.0 == a)
            .take(lanes)
            .map(|k| {
                k.1.iter()
                    .flat_map(|&c| prepared.chain.cluster(ClusterId(c)).blocks.iter().copied())
                    .collect()
            })
            .collect();
        let started = Instant::now();
        let verified = replay.verify_batch(session.config(), &sets);
        nanos += started.elapsed().as_nanos();
        verified.map_err(|e| fail(e.into()))?;
        candidates += sets.len();
    }
    Ok(nanos as f64 / 1e3 / candidates.max(1) as f64)
}
