//! `corebench` — the end-to-end and per-layer benchmark of corepart's
//! three surfaces: the command-line flow, the corpus runner and the
//! serve daemon. See the package's `README.md` for the workloads, the
//! metric dictionary and the comparison protocol.
//!
//! ```text
//! cargo run --release --offline --manifest-path corebench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--workload`, one workload runs in this process. Its record
//! (host, sizes, digest, every metric) is printed as one JSON line, and
//! its result follows as the last line. That result holds the
//! end-to-end metrics, or the per-layer ones with `--trace 1`. A table
//! goes to stderr. Without `--workload`, every workload runs in turn,
//! each in a child process of its own, and a combined result follows.
//! The exit status is 1 when any output was wrong, 2 on bad arguments.

mod calib;
mod corpus_gen;
mod net;
mod paper_flow;
mod probe;
mod report;
mod serve_verify;
mod serve_warm;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use corepart::json::{parse_json, JsonValue};

use report::{Ctx, Report, Run};
use trace::Tracer;

/// The workloads, in run order.
const WORKLOADS: [&str; 4] = ["paper-flow", "corpus-gen", "serve-warm", "serve-verify"];

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == name)
                        .ok_or(format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or(format!("bad seconds `{v}` (1..=600)"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace flag `{v}` (0 or 1)")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Where runs write their files: the build's target directory, which
/// lies inside the checkout.
fn scratch_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")))
        .join("corebench")
}

fn run_workload(name: &str, ctx: &Ctx) -> Run {
    match name {
        "paper-flow" => paper_flow::run(ctx, &paper_flow::SIZES),
        "corpus-gen" => corpus_gen::run(ctx, &corpus_gen::SIZES),
        "serve-warm" => serve_warm::run(ctx, &serve_warm::SIZES),
        "serve-verify" => serve_verify::run(ctx, &serve_verify::SIZES),
        other => unreachable!("workload `{other}` was validated"),
    }
}

fn run_one(workload: &'static str, args: &Args) -> ExitCode {
    let ctx = Ctx {
        seed: args.seed,
        run_for: Duration::from_secs(args.seconds),
        tracer: Tracer::new(args.trace),
        scratch: scratch_dir(),
    };
    let mut run = run_workload(workload, &ctx);
    if args.trace {
        let path = ctx
            .scratch
            .join(format!("spans-{workload}-seed{}.jsonl", args.seed));
        match ctx.tracer.write(&path) {
            Ok(()) => eprintln!("corebench: spans written to {}", path.display()),
            Err(e) => run.problem(format!("cannot write {}: {e}", path.display())),
        }
    }
    let report = Report::new(workload, args.seed, args.seconds, args.trace, run);
    eprint!("{}", report.table());
    println!("{}", report.detail_json());
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own (so each reports
/// its own peak memory) and combines their results, metric names
/// prefixed by workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("corebench: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let stdout = match output {
            Ok(o) => String::from_utf8_lossy(&o.stdout).into_owned(),
            Err(e) => {
                eprintln!("corebench: cannot run {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let lines: Vec<&str> = stdout.lines().collect();
        for line in lines.iter().take(lines.len().saturating_sub(1)) {
            println!("{line}");
        }
        let Some(result) = lines.last().and_then(|l| parse_json(l).ok()) else {
            eprintln!("corebench: {workload} printed no result");
            correct = false;
            continue;
        };
        correct &= result.get("correct").and_then(JsonValue::as_bool) == Some(true);
        attempted += result
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        failed += result
            .get("failed")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        if let Some(JsonValue::Obj(items)) = result.get("metrics") {
            for (name, m) in items {
                let value = m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
                metrics.push(format!(
                    "\"{workload}.{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
                ));
            }
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "corebench: {e}\nusage: corebench [--workload {}] [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    //! One operation of each workload at a tiny size: the sizes are
    //! function arguments, never command-line knobs.

    use super::*;

    fn ctx(seed: u64, trace: bool) -> Ctx {
        Ctx {
            seed,
            run_for: Duration::ZERO,
            tracer: Tracer::new(trace),
            scratch: scratch_dir().join(format!("test-{}", std::process::id())),
        }
    }

    fn assert_sound(name: &'static str, run: Run, traced: bool) -> String {
        assert!(run.problems.is_empty(), "{name}: {:?}", run.problems);
        assert_eq!(run.failed, 0, "{name}");
        assert!(run.attempted > 0 && !run.latencies_ms.is_empty(), "{name}");
        let report = Report::new(name, 2, 1, traced, run);
        assert!(report.correct(), "{}", report.table());
        let result = parse_json(&report.result_json()).expect("result line parses");
        let JsonValue::Obj(metrics) = result.get("metrics").unwrap() else {
            panic!("metrics object");
        };
        let want: &[(&str, &str)] = if traced {
            &report::PER_LAYER
        } else {
            &report::END_TO_END
        };
        assert_eq!(metrics.len(), want.len(), "{name}");
        report.run.digest.hex()
    }

    #[test]
    fn paper_flow_one_round() {
        let sizes = paper_flow::Sizes {
            apps: 1,
            segments: 1,
            setups: 2,
        };
        let run = paper_flow::run(&ctx(2, false), &sizes);
        assert_eq!(run.setup_s.len(), 2);
        let digest = assert_sound("paper-flow", run, false);
        let again = assert_sound("paper-flow", paper_flow::run(&ctx(2, true), &sizes), true);
        assert_eq!(digest, again, "the digest does not depend on tracing");
    }

    #[test]
    fn corpus_gen_one_pass_per_segment() {
        let sizes = corpus_gen::Sizes {
            pass_apps: 4,
            chunk: 2,
            setup_apps: 2,
            segments: 2,
            setups: 2,
            oracle_every: 3,
            probe_apps: 2,
        };
        let run = corpus_gen::run(&ctx(2, false), &sizes);
        assert_eq!((run.attempted, run.setup_s.len()), (2, 4));
        let a = assert_sound("corpus-gen", run, false);
        let b = assert_sound("corpus-gen", corpus_gen::run(&ctx(2, true), &sizes), true);
        assert_eq!(a, b);
    }

    #[test]
    fn serve_warm_one_key_set() {
        let sizes = serve_warm::Sizes {
            apps: 1,
            conns: 1,
            segments: 2,
            setups: 2,
            probe_every: 6,
        };
        let run = serve_warm::run(&ctx(2, true), &sizes);
        assert_eq!(run.setup_s.len(), 4);
        assert_sound("serve-warm", run, true);
    }

    #[test]
    fn serve_verify_a_few_requests() {
        let sizes = serve_verify::Sizes {
            apps: 1,
            sets: 2,
            rate: 5.0,
            conns: 2,
            segments: 2,
            setups: 1,
            oracle_every: 2,
            probe_ops: 2,
            batch_lanes: 2,
        };
        let mut c = ctx(2, true);
        c.run_for = Duration::from_secs(1);
        let run = serve_verify::run(&c, &sizes);
        assert_eq!((run.attempted, run.items), (5, 5));
        assert_eq!(run.setup_s.len(), 2);
        assert_sound("serve-verify", run, true);
    }

    #[test]
    fn serve_draws_are_seeded_and_stratified() {
        let lens = [3, 5, 2];
        let a = serve_verify::draw(1, &lens, 5, 60);
        assert_eq!(a.len(), 60);
        assert_eq!(a, serve_verify::draw(1, &lens, 5, 60));
        assert_ne!(a, serve_verify::draw(2, &lens, 5, 60));
        // Every key of the smaller applications, whatever the seed...
        for seed in 1..4 {
            let d = serve_verify::draw(seed, &lens, 5, 60);
            assert_eq!(d.iter().filter(|k| k.0 != 1).count(), (7 + 3) * 5);
            let mut unique = d.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), 60, "no repeats");
        }
        // ...and the whole pool when asked for all of it.
        assert_eq!(
            serve_verify::draw(3, &lens, 5, 1000).len(),
            (7 + 31 + 3) * 5
        );
        assert_eq!(serve_warm::keys(1, 6).len(), 36);
    }
}
