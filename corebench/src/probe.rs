//! The layer probe of a traced run: each sampled operation of a
//! workload, expressed as the serve request that asks for it, is
//! pushed through every public layer in turn, and each call is timed
//! from the benchmark's side. All four workloads report the same layer
//! metrics, measured on their own operations.

use std::time::Instant;

use corepart::corpus::{evaluate_corpus_entry, point_to_line, source_features};
use corepart::corpus::{CorpusEntry, CorpusOptions};
use corepart::engine::Engine;
use corepart::explore::{explore_in, hardware_weight_sweep};
use corepart::ir::cluster::ClusterId;
use corepart::ir::lower::lower;
use corepart::ir::parser::parse;
use corepart::json::{
    exploration_to_json_at, outcome_result_json_at, parse_json, verify_result_json_at,
};
use corepart::partition::Partitioner;
use corepart::prepare::Workload;
use corepart::serve::{handle_line, ComputeKind, ComputeRequest, Server, EXPLORE_WEIGHTS};
use corepart::system::SystemConfig;
use corepart::{CorepartError, Partition};

use crate::net::{answer, spawn_daemon, stop_daemon, Client};
use crate::stats::{mean, median};
use crate::trace::Tracer;

/// Span op ids of the probe start here, apart from the workload's own.
const PROBE_OP_BASE: u64 = 1 << 40;

/// Warm repeats of each request against the daemon.
const WARM_REPEATS: usize = 3;

/// Runs `f`, records it as a span, and returns its duration in ms.
fn timed<R>(t: &Tracer, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    t.record(name, op, start, end);
    (out, (end - start).as_secs_f64() * 1e3)
}

#[derive(Default)]
struct Samples {
    parse_request: Vec<f64>,
    parse: Vec<f64>,
    lower: Vec<f64>,
    prepare: Vec<f64>,
    baseline: Vec<f64>,
    compute: Vec<f64>,
    render: Vec<f64>,
    handle: Vec<f64>,
    transport: Vec<f64>,
    response_bytes: Vec<f64>,
    instructions: u64,
    baseline_s: f64,
}

/// Probes `ops` and returns the per-layer metrics by name. `server` is
/// the workload's own daemon; without one the probe starts its own.
///
/// # Errors
///
/// Any layer failing on an operation the workload itself completed,
/// and daemon or connection failures.
pub fn probe(
    t: &Tracer,
    ops: &[ComputeRequest],
    server: Option<&Server>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut s = Samples::default();
    for (i, req) in ops.iter().enumerate() {
        probe_local(t, PROBE_OP_BASE + i as u64, req, &mut s)
            .map_err(|e| format!("probe of {} `{}`: {e}", req.kind.name(), app_name(req)))?;
    }

    let own = match server {
        Some(_) => None,
        None => Some(spawn_daemon()?),
    };
    let server = server.or(own.as_ref()).expect("a daemon is running");
    let served = probe_served(t, ops, server, &mut s);
    if let Some(own) = own {
        stop_daemon(own);
    }
    served?;

    let us = |v: &[f64]| median(v) * 1e3;
    Ok(vec![
        ("json.parse_request_us_p50", us(&s.parse_request)),
        ("ir.parse_us_p50", us(&s.parse)),
        ("ir.lower_us_p50", us(&s.lower)),
        ("prepare.ms_p50", median(&s.prepare)),
        ("simulator.baseline_ms_p50", median(&s.baseline)),
        (
            "simulator.minstr_per_s",
            s.instructions as f64 / s.baseline_s.max(1e-9) / 1e6,
        ),
        ("partition.compute_ms_p50", median(&s.compute)),
        ("json.render_us_p50", us(&s.render)),
        ("serve.handle_us_p50", us(&s.handle)),
        ("serve.transport_ms_p50", median(&s.transport)),
        ("serve.response_kb_mean", mean(&s.response_bytes) / 1024.0),
    ])
}

fn app_name(req: &ComputeRequest) -> String {
    req.source
        .trim_start()
        .strip_prefix("app ")
        .and_then(|rest| rest.split(';').next())
        .unwrap_or("?")
        .to_owned()
}

/// The in-process layers: request parse, BDL parse and lowering,
/// preparation and the baseline simulation on a fresh engine, the
/// operation's compute with those resolved, and rendering.
fn probe_local(
    t: &Tracer,
    op: u64,
    req: &ComputeRequest,
    s: &mut Samples,
) -> Result<(), CorepartError> {
    let line = req.to_json();
    let (parsed, ms) = timed(t, "json.parse_request", op, || parse_json(&line));
    parsed.map_err(|message| CorepartError::Config { message })?;
    s.parse_request.push(ms);

    let (program, ms) = timed(t, "ir.parse", op, || parse(&req.source));
    let program = program?;
    s.parse.push(ms);
    let (app, ms) = timed(t, "ir.lower", op, || lower(&program));
    let app = app?;
    s.lower.push(ms);

    let workload = Workload::from_arrays(req.arrays.clone());
    let engine = Engine::new(SystemConfig::new())?;
    let session = engine.session(&app, &workload);
    let (prepared, ms) = timed(t, "prepare", op, || session.prepared().map(|_| ()));
    prepared?;
    s.prepare.push(ms);
    let (baseline, ms) = timed(t, "simulator.baseline", op, || {
        session
            .baseline()
            .map(|b| b.stats.inst_counts.values().sum::<u64>())
    });
    s.instructions += baseline?;
    s.baseline_s += ms / 1e3;
    s.baseline.push(ms);

    let config = session.config().clone();
    let (rendered, compute_ms, render_ms) = match req.kind {
        ComputeKind::Partition => {
            let (outcome, c) = timed(t, "partition.compute", op, || {
                Partitioner::new(&session)?.run()
            });
            let outcome = outcome?;
            let (json, r) = timed(t, "json.render", op, || {
                outcome_result_json_at(app.name(), &outcome, None)
            });
            (json, c, r)
        }
        ComputeKind::Explore => {
            let weights = req.weights.clone().unwrap_or(EXPLORE_WEIGHTS.to_vec());
            let configs = hardware_weight_sweep(&weights, &config);
            let (ex, c) = timed(t, "partition.compute", op, || {
                explore_in(&engine, &app, &workload, &configs)
            });
            let ex = ex?;
            let (json, r) = timed(t, "json.render", op, || exploration_to_json_at(&ex, None));
            (json, c, r)
        }
        ComputeKind::Verify => {
            let partition = Partition {
                clusters: req.clusters.iter().map(|&c| ClusterId(c)).collect(),
                set: config.resource_set(req.set_index)?.clone(),
            };
            let (detail, c) = timed(t, "partition.compute", op, || {
                Partitioner::new(&session)?.evaluate(&partition)
            });
            // An infeasible resource set is a deterministic answer, not
            // a probe failure: the compute ran, there is nothing to
            // render.
            match detail {
                Ok(detail) => {
                    let (json, r) = timed(t, "json.render", op, || {
                        verify_result_json_at(app.name(), &partition, &detail, None)
                    });
                    (json, c, r)
                }
                Err(CorepartError::Sched(_)) => (String::new(), c, 0.0),
                Err(e) => return Err(e),
            }
        }
        ComputeKind::Corpus => {
            let meta = req.corpus.clone().ok_or_else(|| CorepartError::Config {
                message: "corpus request without entry metadata".into(),
            })?;
            let mut options = CorpusOptions::new(SystemConfig::new());
            options.g_sweep = req.weights.clone().unwrap_or(options.g_sweep);
            let entry = CorpusEntry {
                index: meta.index,
                seed: meta.seed,
                name: meta.name,
                source: req.source.clone(),
                app: app.clone(),
                workload: workload.clone(),
                features: source_features(&program),
            };
            let (out, c) = timed(t, "partition.compute", op, || {
                evaluate_corpus_entry(&engine, &entry, &options)
            });
            let (row, points) = out?;
            let (text, r) = timed(t, "json.render", op, || {
                let mut text = row.to_line();
                for p in &points {
                    text.push_str(&point_to_line(p));
                }
                text
            });
            (text, c, r)
        }
    };
    std::hint::black_box(rendered);
    s.compute.push(compute_ms);
    if render_ms > 0.0 {
        s.render.push(render_ms);
    }
    Ok(())
}

/// The daemon's layers: each request answered once to warm it, then
/// timed warm in-process (`handle_line` on the daemon's own store) and
/// over the wire; the wire time beyond the in-process time is
/// transport.
fn probe_served(
    t: &Tracer,
    ops: &[ComputeRequest],
    server: &Server,
    s: &mut Samples,
) -> Result<(), String> {
    let mut client =
        Client::connect(server.addr()).map_err(|e| format!("probe cannot connect: {e}"))?;
    for (i, req) in ops.iter().enumerate() {
        let op = PROBE_OP_BASE + i as u64;
        let line = req.to_json();
        let io = |e: std::io::Error| format!("probe request failed: {e}");
        let warm = client.call(&line).map_err(io)?;
        answer(&warm)?;
        let mut handle = Vec::with_capacity(WARM_REPEATS);
        let mut rtt = Vec::with_capacity(WARM_REPEATS);
        for _ in 0..WARM_REPEATS {
            let (_, ms) = timed(t, "serve.handle", op, || handle_line(server.store(), &line));
            handle.push(ms);
            let (response, ms) = timed(t, "serve.round_trip", op, || client.call(&line));
            let response = response.map_err(io)?;
            answer(&response)?;
            s.response_bytes.push(response.len() as f64);
            rtt.push(ms);
        }
        s.transport.push(median(&rtt) - median(&handle));
        s.handle.extend(handle);
    }
    Ok(())
}
