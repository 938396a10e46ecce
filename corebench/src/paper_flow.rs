//! `paper-flow`: the designer's cold command-line path. One caller, a
//! closed loop of rounds; each round runs, for every paper
//! application, exactly what `corepart partition --json` and
//! `corepart explore --json` do, each on a fresh engine. Latency is
//! per round: the twelve commands cost between milliseconds and a few
//! hundred, so a percentile over single commands would only say which
//! command sits at that rank.

use std::path::PathBuf;
use std::time::Instant;

use corepart::engine::Engine;
use corepart::explore::{explore_in, hardware_weight_sweep};
use corepart::ir::lower::lower;
use corepart::ir::parser::parse;
use corepart::json::{exploration_to_json, outcome_to_json_at, table1_to_json};
use corepart::partition::{Partitioner, SearchStats};
use corepart::prepare::Workload;
use corepart::report::{Table1, Table1Entry};
use corepart::serve::{ComputeKind, ComputeRequest, EXPLORE_WEIGHTS};
use corepart::system::SystemConfig;
use corepart::CorepartError;
use corepart_workloads::{all, PaperWorkload};

use crate::calib::{Clock, Lap};
use crate::probe::probe;
use crate::report::{Ctx, Run};
use crate::stats::median;
use crate::trace::Tracer;

/// Sizes of one `paper-flow` run.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Paper applications per round, in Table-1 order (6 = all).
    pub apps: usize,
    /// Segments of the run, each warm-up rounds followed by at least one
    /// measured round.
    pub segments: usize,
    /// Warm-up rounds at the start of each segment, each timed as one
    /// set-up.
    pub setups: usize,
}

/// The sizes the benchmark runs. With one warm-up round per segment,
/// the median of the 4 set-ups spread 7–15 % (IQR over ten seeds).
pub const SIZES: Sizes = Sizes {
    apps: 6,
    segments: 4,
    setups: 2,
};

/// The deterministic output of one round, plus its search counters.
#[derive(Debug, PartialEq)]
struct RoundOutput {
    /// Table 1 over the round's partitions (the golden's form).
    table1: String,
    /// Each application's `explore --json` output.
    explores: Vec<String>,
    /// Search counters (their equality ignores timings).
    search: Vec<SearchStats>,
}

/// `corepart partition --json` on one application, with a span around
/// each call into a layer. Returns the Table-1 entry and the search
/// counters; the command's own JSON is rendered and dropped, as the
/// CLI prints it.
fn partition_command(
    t: &Tracer,
    op: u64,
    w: &PaperWorkload,
    workload: &Workload,
) -> Result<(Table1Entry, SearchStats), CorepartError> {
    let parent = t.reserve();
    t.span_as(parent, "cli.partition", op, 0, || {
        let program = t.span("ir.parse", op, parent, || parse(w.source))?;
        let app = t.span("ir.lower", op, parent, || lower(&program))?;
        let engine = t.span(
            "engine.new",
            op,
            parent,
            || Engine::new(SystemConfig::new()),
        )?;
        let session = engine.session(&app, workload);
        t.span("prepare", op, parent, || session.prepared().map(|_| ()))?;
        t.span("simulator.baseline", op, parent, || {
            session.baseline().map(|_| ())
        })?;
        let outcome = t.span("partition.run", op, parent, || {
            Partitioner::new(&session)?.run()
        })?;
        let json = t.span("json.render", op, parent, || {
            outcome_to_json_at(app.name(), &outcome, None)
        });
        std::hint::black_box(json);
        Ok((
            Table1Entry::from_outcome(app.name(), &outcome),
            outcome.search,
        ))
    })
}

/// `corepart explore --json` on one application; returns its output.
fn explore_command(
    t: &Tracer,
    op: u64,
    w: &PaperWorkload,
    workload: &Workload,
) -> Result<String, CorepartError> {
    let parent = t.reserve();
    t.span_as(parent, "cli.explore", op, 0, || {
        let program = t.span("ir.parse", op, parent, || parse(w.source))?;
        let app = t.span("ir.lower", op, parent, || lower(&program))?;
        let configs = hardware_weight_sweep(&EXPLORE_WEIGHTS, &SystemConfig::new());
        let engine = t.span("engine.new", op, parent, || {
            Engine::new(configs[0].1.clone())
        })?;
        let ex = t.span("explore", op, parent, || {
            explore_in(&engine, &app, workload, &configs)
        })?;
        Ok(t.span("json.render", op, parent, || exploration_to_json(&ex)))
    })
}

/// One round; `op` numbers its commands for the spans. The host's speed
/// is sampled between the commands.
fn round(
    t: &Tracer,
    op: &mut u64,
    apps: &[(PaperWorkload, Workload)],
    lap: &mut Lap,
) -> Result<RoundOutput, String> {
    let mut table = Table1::new();
    let mut explores = Vec::with_capacity(apps.len());
    let mut search = Vec::with_capacity(apps.len());
    for (i, (w, workload)) in apps.iter().enumerate() {
        if i > 0 {
            lap.between();
        }
        *op += 1;
        let (entry, stats) = partition_command(t, *op, w, workload)
            .map_err(|e| format!("partition {}: {e}", w.name))?;
        table.push(entry);
        search.push(stats);
        lap.between();
        *op += 1;
        let json =
            explore_command(t, *op, w, workload).map_err(|e| format!("explore {}: {e}", w.name))?;
        explores.push(json + "\n");
    }
    Ok(RoundOutput {
        table1: table1_to_json(&table) + "\n",
        explores,
        search,
    })
}

fn goldens_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/goldens"))
}

fn golden_name(app: &str) -> String {
    let stem: String = app
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    format!("explore_{stem}.json")
}

/// The reference a round must equal: the committed goldens at seed 1
/// (all six applications), otherwise the direct-simulation flow
/// (`threads = 1`, no trace capture — the equivalence-test oracle).
fn reference(seed: u64, apps: &[(PaperWorkload, Workload)]) -> Result<RoundOutput, String> {
    if seed == 1 && apps.len() == all().len() {
        let read = |name: &str| {
            let path = goldens_dir().join(name);
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
        };
        let explores = apps
            .iter()
            .map(|(w, _)| read(&golden_name(w.name)))
            .collect::<Result<_, _>>()?;
        return Ok(RoundOutput {
            table1: read("table1.json")?,
            explores,
            search: Vec::new(),
        });
    }
    let direct = SystemConfig::new().with_threads(1).with_trace_cap(0);
    let mut table = Table1::new();
    let mut explores = Vec::new();
    for (w, workload) in apps {
        let fail = |e: CorepartError| format!("direct-simulation oracle on {}: {e}", w.name);
        let app = w.app().map_err(|e| fail(e.into()))?;
        let engine = Engine::new(direct.clone()).map_err(fail)?;
        let session = engine.session(&app, workload);
        let outcome = Partitioner::new(&session)
            .and_then(|p| p.run())
            .map_err(fail)?;
        table.push(Table1Entry::from_outcome(app.name(), &outcome));
        let configs = hardware_weight_sweep(&EXPLORE_WEIGHTS, &direct);
        let engine = Engine::new(direct.clone()).map_err(fail)?;
        let ex = explore_in(&engine, &app, workload, &configs).map_err(fail)?;
        explores.push(exploration_to_json(&ex) + "\n");
    }
    Ok(RoundOutput {
        table1: table1_to_json(&table) + "\n",
        explores,
        search: Vec::new(),
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx, sizes: &Sizes) -> Run {
    let t = &ctx.tracer;
    let apps: Vec<(PaperWorkload, Workload)> = all()
        .into_iter()
        .take(sizes.apps)
        .map(|w| {
            let workload = Workload::from_arrays(w.arrays(ctx.seed));
            (w, workload)
        })
        .collect();
    let segments = sizes.segments.max(1);
    let commands = 2 * apps.len() as u64;
    let mut run = Run {
        sizes: vec![
            ("apps", apps.len() as u64),
            ("commands_per_round", commands),
            ("explore_weights", EXPLORE_WEIGHTS.len() as u64),
            ("segments", segments as u64),
            ("setups", (segments * sizes.setups.max(1)) as u64),
        ],
        ..Run::default()
    };
    let mut op = 0u64;
    let mut clock = Clock::new();
    let mut wall_ms = Vec::new();

    // Each segment starts with warm-up rounds (lazy initialisation,
    // allocator and page warmth), each timed as a set-up. The first is
    // also the output every later round must reproduce.
    let mut first: Option<RoundOutput> = None;
    let mut rounds = 0u64;
    for _ in 0..segments {
        for _ in 0..sizes.setups.max(1) {
            let (out, setup) = clock.time_steps(|lap| round(t, &mut op, &apps, lap));
            run.setup_s.push(setup.scaled_ms / 1e3);
            match (out, &first) {
                (Ok(out), None) => first = Some(out),
                (Ok(out), Some(want)) if out == *want => {}
                (Ok(_), Some(_)) => run.problem("a set-up round differs from the first round"),
                (Err(e), _) => {
                    run.problem(format!("set-up round: {e}"));
                    return run;
                }
            }
        }
        let want = first.as_ref().expect("the first set-up round succeeded");

        let deadline = Instant::now() + ctx.run_for / segments as u32;
        loop {
            let (out, timing) = clock.time_steps(|lap| round(t, &mut op, &apps, lap));
            rounds += 1;
            run.attempted += 1;
            match out {
                Ok(out) if out == *want => {
                    run.latencies_ms.push(timing.scaled_ms);
                    wall_ms.push(timing.wall_ms);
                    run.items += commands;
                    run.measured_s += timing.scaled_ms / 1e3;
                }
                Ok(_) => run.fail(format!("round {rounds} differs from the first round")),
                Err(e) => run.fail(format!("round {rounds}: {e}")),
            }
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    let first = first.expect("at least one set-up round ran");
    run.sizes.push(("rounds", rounds));
    run.detail("latency_p50_wall_ms", median(&wall_ms));
    run.host_speed(&clock);

    let estimated: usize = first.search.iter().map(|s| s.estimated).sum();
    let hits: u64 = first.search.iter().map(|s| s.cache_hits).sum();
    let misses: u64 = first.search.iter().map(|s| s.cache_misses).sum();
    run.detail("partition.estimated", estimated as f64);
    run.detail(
        "sched.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );

    if ctx.traced() {
        let ops: Vec<ComputeRequest> = apps
            .iter()
            .flat_map(|(w, _)| {
                [ComputeKind::Partition, ComputeKind::Explore].map(|kind| {
                    let mut req = ComputeRequest::new(kind, w.source);
                    req.arrays = w.arrays(ctx.seed);
                    req
                })
            })
            .collect();
        match probe(t, &ops, None) {
            Ok(layers) => run.layers = layers,
            Err(e) => run.problem(e),
        }
    }

    // The oracle runs after the measured phase and counts toward no
    // metric.
    match reference(ctx.seed, &apps) {
        Ok(want) => {
            if first.table1 != want.table1 {
                run.problem("Table-1 JSON differs from the reference");
            }
            for ((w, _), (got, want)) in apps.iter().zip(first.explores.iter().zip(&want.explores))
            {
                if got != want {
                    run.problem(format!(
                        "explore JSON of {} differs from the reference",
                        w.name
                    ));
                }
            }
        }
        Err(e) => run.problem(e),
    }
    run.digest.add(first.table1.as_bytes());
    for json in &first.explores {
        run.digest.add(json.as_bytes());
    }
    run
}
