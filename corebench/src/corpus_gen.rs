//! `corpus-gen`: many tiny generated applications through the
//! journaled corpus runner, in-process, threads automatic. Each pass
//! is one `run_gen_corpus` call over a fresh run seed derived from the
//! benchmark seed, so a run covers thousands of distinct applications
//! and the app mix averages out between seeds.

use std::time::Instant;

use corepart::corpus::{evaluate_corpus_entry, CorpusOptions};
use corepart::engine::Engine;
use corepart::serve::{ComputeKind, ComputeRequest, CorpusMeta};
use corepart::system::SystemConfig;
use corepart_conform::corpus::{gen_entry, run_gen_corpus};

use crate::calib::Clock;
use crate::probe::probe;
use crate::report::{Ctx, Run};
use crate::stats::median;

/// Sizes of one `corpus-gen` run.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Applications per measured pass.
    pub pass_apps: u64,
    /// Journal chunk size.
    pub chunk: usize,
    /// Applications in each set-up pass.
    pub setup_apps: u64,
    /// Segments of the run, each timed set-up passes followed by at
    /// least one measured pass.
    pub segments: usize,
    /// Timed set-up passes at the start of each segment, each on a run
    /// seed of its own.
    pub setups: usize,
    /// Every this many rows is re-evaluated on a fresh engine.
    pub oracle_every: u64,
    /// Applications the traced run probes layer by layer.
    pub probe_apps: u64,
}

/// The sizes the benchmark runs. A set-up pass's time depends on its
/// application mix as much as on the host: the median of 4 passes per
/// run spread 12 % (IQR over ten seeds), so a run times 12.
pub const SIZES: Sizes = Sizes {
    pass_apps: 64,
    chunk: 32,
    setup_apps: 128,
    segments: 4,
    setups: 3,
    oracle_every: 100,
    probe_apps: 24,
};

/// Set-up passes draw from their own run seeds, never a measured one.
const SETUP_PASS: u64 = 1 << 32;

/// The run seed of pass `k` under benchmark seed `seed`.
fn pass_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, sizes: &Sizes) -> Run {
    let t = &ctx.tracer;
    let segments = sizes.segments.max(1);
    let mut run = Run {
        sizes: vec![
            ("pass_apps", sizes.pass_apps),
            ("chunk", sizes.chunk as u64),
            ("threads", 0),
            ("setup_apps", sizes.setup_apps),
            ("segments", segments as u64),
            ("setups", (segments * sizes.setups.max(1)) as u64),
        ],
        ..Run::default()
    };
    let dir = ctx.scratch.join(format!("corpus-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        run.problem(format!("cannot create {}: {e}", dir.display()));
        return run;
    }
    let (journal, out) = (dir.join("corpus.journal"), dir.join("corpus.tsv"));
    let mut options = CorpusOptions::new(SystemConfig::new());
    options.chunk = sizes.chunk;
    let pass = |run_seed: u64, apps: u64| {
        run_gen_corpus(run_seed, apps, options.clone(), &journal, &out, false)
    };

    // (run seed, index, row) of every `oracle_every`-th measured row.
    let mut sampled = Vec::new();
    let mut passes = 0u64;
    let mut clock = Clock::new();
    let mut wall_ms = Vec::new();
    let setups = sizes.setups.max(1) as u64;
    for seg in 0..segments as u64 {
        for k in 0..setups {
            let setup_seed = pass_seed(ctx.seed, SETUP_PASS + seg * setups + k);
            let (outcome, setup) = clock.time(|| pass(setup_seed, sizes.setup_apps));
            run.setup_s.push(setup.scaled_ms / 1e3);
            if let Err(e) = outcome {
                run.problem(format!("set-up pass: {e}"));
            }
        }

        let deadline = Instant::now() + ctx.run_for / segments as u32;
        loop {
            let run_seed = pass_seed(ctx.seed, passes);
            let (outcome, timing) = clock.time(|| {
                t.span("corpus.pass", passes, 0, || pass(run_seed, sizes.pass_apps))
            });
            run.attempted += 1;
            match outcome {
                Ok(o) if o.finished && o.rows.len() as u64 == sizes.pass_apps => {
                    run.latencies_ms.push(timing.scaled_ms);
                    wall_ms.push(timing.wall_ms);
                    run.items += sizes.pass_apps;
                    run.measured_s += timing.scaled_ms / 1e3;
                    for row in &o.rows {
                        if (passes * sizes.pass_apps + row.index).is_multiple_of(sizes.oracle_every)
                        {
                            sampled.push((run_seed, row.index, row.to_line()));
                        }
                    }
                    if passes == 0 {
                        match std::fs::read(&out) {
                            Ok(tsv) => run.digest.add(&tsv),
                            Err(e) => run.problem(format!("cannot read {}: {e}", out.display())),
                        }
                    }
                }
                Ok(o) => run.fail(format!(
                    "pass {passes}: {} of {} rows, finished={}",
                    o.rows.len(),
                    sizes.pass_apps,
                    o.finished
                )),
                Err(e) => run.fail(format!("pass {passes}: {e}")),
            }
            passes += 1;
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    run.sizes.push(("passes", passes));
    run.detail("latency_p50_wall_ms", median(&wall_ms));
    run.host_speed(&clock);
    run.detail("corpus.apps", run.items as f64);
    let _ = std::fs::remove_dir_all(&dir);

    if ctx.traced() {
        let step = (sizes.pass_apps / sizes.probe_apps.max(1)).max(1);
        let ops: Vec<ComputeRequest> = (0..sizes.pass_apps)
            .step_by(step as usize)
            .take(sizes.probe_apps as usize)
            .filter_map(|index| gen_entry(pass_seed(ctx.seed, 0), index).ok())
            .map(|entry| {
                let mut req = ComputeRequest::new(ComputeKind::Corpus, &entry.source);
                req.arrays = entry.workload.arrays.clone();
                req.weights = Some(options.g_sweep.clone());
                req.corpus = Some(CorpusMeta {
                    index: entry.index,
                    seed: entry.seed,
                    name: entry.name,
                });
                req
            })
            .collect();
        match probe(t, &ops, None) {
            Ok(layers) => run.layers = layers,
            Err(e) => run.problem(e),
        }
    }

    // The oracle: sampled rows re-evaluated, each on a fresh engine.
    run.sizes.push(("oracle_rows", sampled.len() as u64));
    for (run_seed, index, line) in sampled {
        let fresh = gen_entry(run_seed, index).and_then(|entry| {
            let engine = Engine::new(options.base.clone().with_threads(1))?;
            evaluate_corpus_entry(&engine, &entry, &options)
        });
        match fresh {
            Ok((row, _)) if row.to_line() == line => {}
            Ok(_) => run.problem(format!(
                "row {index} of run seed {run_seed} differs on a fresh engine"
            )),
            Err(e) => run.problem(format!("fresh re-evaluation of row {index}: {e}")),
        }
    }
    run
}
