//! `serve-warm`: the daemon's read path. Closed loop, one caller per
//! connection at depth 1, each request drawn uniformly from a fixed key
//! set that set-up has already answered, so every measured request is
//! a result-memo hit: request parse, per-request BDL parse, memo
//! lookup, response write — and the wire.

use std::time::Instant;

use corepart::serve::{ComputeKind, ComputeRequest, Server};
use corepart_workloads::all;

use crate::calib::Clock;
use crate::net::{answer, check_fresh, stop_daemon, timed_set_ups, Client};
use crate::probe::probe;
use crate::report::{Ctx, Run};
use crate::stats::Rng;
use crate::trace::Tracer;

/// Sizes of one `serve-warm` run.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Paper applications in the key set (6 keys each).
    pub apps: usize,
    /// Client connections, one calling thread each.
    pub conns: usize,
    /// Segments of the run, each on a fresh daemon.
    pub segments: usize,
    /// Timed set-ups (daemon spawn plus warm-up of every key) before
    /// each segment; the segment runs on the last one's daemon.
    pub setups: usize,
    /// Every this many keys is probed layer by layer in a traced run.
    pub probe_every: usize,
}

/// The sizes the benchmark runs.
pub const SIZES: Sizes = Sizes {
    apps: 6,
    conns: 2,
    segments: 4,
    setups: 3,
    probe_every: 3,
};

/// Per application: `partition`, `explore` (default weights) and
/// `verify` of clusters {0} and {0, 1} on resource sets 2 and 4.
pub fn keys(seed: u64, apps: usize) -> Vec<ComputeRequest> {
    let mut keys = Vec::new();
    for w in all().into_iter().take(apps) {
        let arrays = w.arrays(seed);
        let mut push = |kind, clusters: &[u32], set_index| {
            let mut req = ComputeRequest::new(kind, w.source);
            req.arrays = arrays.clone();
            req.clusters = clusters.to_vec();
            req.set_index = set_index;
            keys.push(req);
        };
        push(ComputeKind::Partition, &[], 2);
        push(ComputeKind::Explore, &[], 2);
        for clusters in [&[0][..], &[0, 1]] {
            for set in [2, 4] {
                push(ComputeKind::Verify, clusters, set);
            }
        }
    }
    keys
}

/// What one closed-loop caller saw.
struct Caller {
    latencies_ms: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
}

/// One caller: random keys, one at a time, until `deadline`. Every
/// answer must equal the set-up's answer to the same key.
fn call_until(
    server: &Server,
    lines: &[String],
    warm: &[String],
    mut rng: Rng,
    deadline: Instant,
    tracer: &Tracer,
    caller: u64,
) -> Caller {
    let mut out = Caller {
        latencies_ms: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
    };
    let mut client = match Client::connect(server.addr()) {
        Ok(c) => c,
        Err(e) => {
            out.attempted = 1;
            out.failures.push(format!("connect: {e}"));
            return out;
        }
    };
    // Each caller makes at least one request, however short the run.
    while out.attempted == 0 || Instant::now() < deadline {
        let k = rng.below(lines.len());
        out.attempted += 1;
        let started = Instant::now();
        let response = client.call(&lines[k]);
        let ended = Instant::now();
        tracer.record(
            "serve.request",
            caller << 32 | out.attempted,
            started,
            ended,
        );
        match response {
            Err(e) => {
                out.failures.push(format!("request failed: {e}"));
                break;
            }
            Ok(r) => match answer(&r) {
                Ok(a) if a == warm[k] => {
                    out.latencies_ms.push((ended - started).as_secs_f64() * 1e3)
                }
                Ok(_) => out
                    .failures
                    .push(format!("key {k}: warm answer differs from set-up")),
                Err(e) => out.failures.push(e),
            },
        }
    }
    out
}

/// Runs the workload.
pub fn run(ctx: &Ctx, sizes: &Sizes) -> Run {
    let keys = keys(ctx.seed, sizes.apps);
    let lines: Vec<String> = keys.iter().map(ComputeRequest::to_json).collect();
    let segments = sizes.segments.max(1);
    let mut run = Run {
        sizes: vec![
            ("keys", keys.len() as u64),
            ("connections", sizes.conns as u64),
            ("depth", 1),
            ("segments", segments as u64),
            ("setups", (segments * sizes.setups.max(1)) as u64),
        ],
        ..Run::default()
    };

    let mut warm: Option<Vec<String>> = None;
    let (mut requests, mut hits, mut evictions) = (0, 0, 0);
    // Set-up is CPU-bound, so it is timed against the reference kernel;
    // the measured phase waits on the wire and is not.
    let mut clock = Clock::new();
    for seg in 0..segments {
        let up = timed_set_ups(
            &mut clock,
            &mut run.setup_s,
            &lines,
            sizes.conns,
            sizes.setups,
        );
        let (server, answers) = match up {
            Ok(up) => up,
            Err(e) => {
                run.problem(format!("set-up: {e}"));
                return run;
            }
        };
        let want = warm.get_or_insert_with(|| answers.clone());
        if *want != answers {
            run.problem("set-ups answered the keys differently");
        }
        let before = server.store().stats();

        let started = Instant::now();
        let deadline = started + ctx.run_for / segments as u32;
        let callers: Vec<Caller> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..sizes.conns)
                .map(|c| {
                    let (server, lines, want) = (&server, &lines, &*want);
                    let caller = (seg * sizes.conns + c) as u64;
                    let rng = Rng::new(ctx.seed, 100 + caller);
                    s.spawn(move || {
                        call_until(server, lines, want, rng, deadline, &ctx.tracer, caller)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a caller thread panicked"))
                .collect()
        });
        run.measured_s += started.elapsed().as_secs_f64();
        for caller in callers {
            run.attempted += caller.attempted;
            run.items += caller.latencies_ms.len() as u64;
            run.latencies_ms.extend(caller.latencies_ms);
            for f in caller.failures {
                run.fail(f);
            }
        }
        let after = server.store().stats();
        requests += after.requests - before.requests;
        hits += after.hits - before.hits;
        evictions += after.evictions - before.evictions;

        if ctx.traced() && seg + 1 == segments {
            let ops: Vec<ComputeRequest> = keys
                .iter()
                .step_by(sizes.probe_every.max(1))
                .cloned()
                .collect();
            match probe(&ctx.tracer, &ops, Some(&server)) {
                Ok(layers) => run.layers = layers,
                Err(e) => run.problem(e),
            }
        }
        stop_daemon(server);
    }
    run.host_speed(&clock);
    run.detail("store.hit_rate", hits as f64 / requests.max(1) as f64);
    run.detail("store.evictions", evictions as f64);

    // The oracle: every set-up answer (which every measured answer
    // matched) against a fresh engine.
    for (req, served) in keys.iter().zip(warm.iter().flatten()) {
        run.digest.add(served.as_bytes());
        if let Err(e) = check_fresh(req, served) {
            run.problem(e);
        }
    }
    run
}
