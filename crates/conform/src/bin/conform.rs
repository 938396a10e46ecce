//! The `conform` binary: CI entry point for the conformance sweep and
//! the generated-workload corpus runner.
//!
//! ```text
//! conform [--seed N] [--cases N] [--fault-every N] [--max-shrink N]
//!         [--report PATH] [--verbose]
//! conform corpus [--seed N] [--count N] [--out P] [--journal P]
//!                [--chunk N] [--limit N] [--resume] [--threads N]
//!                [--json] [--connect host:port] [--connections N]
//! ```
//!
//! With `--connect`, corpus chunks are shipped to a running
//! `corepart serve` daemon as pipelined requests over `--connections`
//! persistent connections; TSV and journal stay byte-identical to a
//! local run.
//!
//! Exit codes: 0 all oracles held (or corpus ran), 1 violations found
//! (report written) or corpus runtime error, 2 usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use corepart::corpus::{CorpusOptions, RemoteOptions};
use corepart::json::corpus_to_json;
use corepart::system::SystemConfig;
use corepart_conform::corpus::run_gen_corpus_with;
use corepart_conform::report::summary_to_json;
use corepart_conform::runner::{run, RunnerOptions};

const USAGE: &str = "usage: conform [--seed N] [--cases N] [--fault-every N] \
                     [--max-shrink N] [--report PATH] [--verbose]\n       \
                     conform corpus [--seed N] [--count N] [--out P] [--journal P] \
                     [--chunk N] [--limit N] [--resume] [--threads N] \
                     [--json] [--connect host:port] [--connections N]";

fn parse_u64(flag: &str, value: Option<String>) -> Result<u64, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag} needs an unsigned integer, got '{value}'"))
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<(RunnerOptions, String), String> {
    let mut options = RunnerOptions::default();
    let mut report_path = "conform-report.json".to_string();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => options.seed = parse_u64("--seed", args.next())?,
            "--cases" => options.cases = parse_u64("--cases", args.next())?,
            "--fault-every" => options.fault_every = parse_u64("--fault-every", args.next())?,
            "--max-shrink" => {
                options.max_shrink_steps = parse_u64("--max-shrink", args.next())? as usize;
            }
            "--report" => {
                report_path = args.next().ok_or("--report needs a path")?;
            }
            "--verbose" => options.verbose = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok((options, report_path))
}

/// Flags of the `conform corpus` subcommand.
struct CorpusArgs {
    seed: u64,
    count: u64,
    out: PathBuf,
    journal: Option<PathBuf>,
    chunk: Option<usize>,
    limit: Option<u64>,
    resume: bool,
    threads: usize,
    json: bool,
    connect: Option<String>,
    connections: usize,
}

fn parse_corpus_args(args: impl Iterator<Item = String>) -> Result<CorpusArgs, String> {
    let mut parsed = CorpusArgs {
        seed: 1,
        count: 100,
        out: PathBuf::from("corpus.tsv"),
        journal: None,
        chunk: None,
        limit: None,
        resume: false,
        threads: 0,
        json: false,
        connect: None,
        connections: 1,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => parsed.seed = parse_u64("--seed", args.next())?,
            "--count" => parsed.count = parse_u64("--count", args.next())?,
            "--out" => parsed.out = PathBuf::from(args.next().ok_or("--out needs a path")?),
            "--journal" => {
                parsed.journal = Some(PathBuf::from(args.next().ok_or("--journal needs a path")?));
            }
            "--chunk" => parsed.chunk = Some(parse_u64("--chunk", args.next())? as usize),
            "--limit" => parsed.limit = Some(parse_u64("--limit", args.next())?),
            "--resume" => parsed.resume = true,
            "--threads" => parsed.threads = parse_u64("--threads", args.next())? as usize,
            "--json" => parsed.json = true,
            "--connect" => {
                parsed.connect = Some(args.next().ok_or("--connect needs host:port")?);
            }
            "--connections" => {
                parsed.connections = parse_u64("--connections", args.next())? as usize;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

fn corpus_main(args: CorpusArgs) -> ExitCode {
    let mut options = CorpusOptions::new(SystemConfig::new());
    if let Some(c) = args.chunk {
        options.chunk = c;
    }
    options.threads = args.threads;
    options.limit = args.limit;
    let journal = args
        .journal
        .unwrap_or_else(|| PathBuf::from(format!("{}.journal", args.out.display())));
    let remote = args.connect.as_deref().map(|addr| {
        let mut r = RemoteOptions::new(addr);
        r.connections = args.connections;
        r
    });
    let outcome = match run_gen_corpus_with(
        args.seed,
        args.count,
        options,
        &journal,
        &args.out,
        args.resume,
        remote.as_ref(),
    ) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.json {
        println!("{}", corpus_to_json(&outcome));
    } else if outcome.finished {
        println!(
            "corpus complete: seed {} | {} app(s) ({} evaluated, {} replayed) -> {}",
            args.seed,
            outcome.count,
            outcome.evaluated,
            outcome.replayed,
            args.out.display()
        );
        println!(
            "frontier: {} point(s); feature buckets: {}",
            outcome.frontier.len(),
            outcome.features.len()
        );
    } else {
        println!(
            "corpus interrupted after {}/{} chunk(s); rerun with --resume to continue",
            outcome.chunks_done, outcome.chunks
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("corpus") {
        raw.next();
        return match parse_corpus_args(raw) {
            Ok(args) => corpus_main(args),
            Err(message) => {
                if !message.is_empty() {
                    eprintln!("error: {message}");
                }
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let (options, report_path) = match parse_args(raw) {
        Ok(parsed) => parsed,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!(
        "conform: seed {} | {} cases | fault battery every {} cases",
        options.seed, options.cases, options.fault_every
    );
    let summary = run(&options);
    println!(
        "conform: {} cases run, {} with fault injection, {} violation(s)",
        summary.cases_run,
        summary.fault_cases,
        summary.failures.len()
    );

    if summary.passed() {
        return ExitCode::SUCCESS;
    }

    for failure in &summary.failures {
        eprintln!(
            "violation: case {} (seed {}) oracle '{}': {}",
            failure.case_index, failure.case_seed, failure.oracle, failure.detail
        );
        eprintln!(
            "  shrunk {} -> {} nodes in {} steps; reproducer:\n{}",
            failure.size_before, failure.size_after, failure.shrink_steps, failure.source
        );
    }
    let json = summary_to_json(&summary);
    match std::fs::write(&report_path, &json) {
        Ok(()) => eprintln!("failure report written to {report_path}"),
        Err(e) => eprintln!("error: could not write {report_path}: {e}"),
    }
    ExitCode::FAILURE
}
