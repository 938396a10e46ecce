//! `corepart` — command-line front end to the partitioning flow.
//!
//! ```text
//! corepart partition <file.bdl> [--json] [--n-max N] [--factor-f F]
//!                    [--factor-g G] [--array name=v1,v2,...]...
//! corepart explore   <file.bdl> [--json] [--nodes a,b,...]
//!                    [--vdd-steps N] [--array ...]...
//! corepart clusters  <file.bdl> [--array ...]...
//! corepart disasm    <file.bdl>
//! corepart schedule  <file.bdl> [--set-index I] [--array ...]...
//! corepart corpus    <dir> [--out P] [--journal P] [--chunk N]
//!                    [--limit N] [--resume] [--json] [--array ...]...
//!                    [--connect host:port] [--connections N]
//! corepart serve     [--port P] [--shards S] [--store-budget-mb M]
//!                    [--max-connections N] [--timeout-ms T]
//! ```
//!
//! Every command also accepts the global `--threads N` flag (0 =
//! automatic) and the operating-point flags `--node N` (technology
//! node in nm) and `--vdd V` (supply in volts) — results are then
//! re-weighed to that point (simulation still runs at the base
//! process; an unknown node or out-of-range supply is a configuration
//! error).
//!
//! * `partition` — run the full Fig.-5 design flow; print the Table-1
//!   rows (or JSON with `--json`).
//! * `explore` — sweep the objective hardware weight (§3.5 design-
//!   space exploration) and render the Pareto frontier (or the full
//!   point set as JSON with `--json`). With `--nodes a,b,...` the
//!   sweep additionally re-weighs every design point to each listed
//!   technology node at `--vdd-steps` supplies (default 4) descending
//!   from nominal, and renders the 3D energy/time/area frontier — one
//!   simulation pass, the node×vdd axes are pure arithmetic.
//! * `clusters` — show the cluster chain with gen/use summaries and
//!   profiled invocation counts.
//! * `disasm` — compile for the µP core and disassemble.
//! * `schedule` — list-schedule the hottest cluster on one designer
//!   resource set and render the Gantt chart.
//! * `corpus` — run the full partition sweep over every `.bdl` file in
//!   a directory (sorted by name) through the resumable sharded corpus
//!   runner (see [`corepart::corpus`]): a columnar results file, an
//!   aggregate Pareto frontier, per-feature saving statistics, and an
//!   on-disk journal that lets an interrupted run continue from the
//!   last completed chunk with `--resume`. With `--connect host:port`
//!   the chunks are shipped to a running `corepart serve` daemon as
//!   pipelined requests over `--connections N` persistent connections
//!   — TSV, journal, and frontier byte-identical to the local run.
//! * `serve` — run the long-lived JSON-lines-over-TCP daemon backed by
//!   the sharded, byte-budgeted warm artifact store (see
//!   [`corepart::serve`]), with pipelined connections, cross-request
//!   verify coalescing, an optional connection cap
//!   (`--max-connections`) and per-request timeout (`--timeout-ms`).

use std::path::PathBuf;
use std::process::ExitCode;

use corepart::corpus::{
    fingerprint64, run_corpus_with, source_features, CorpusEntry, CorpusOptions, RemoteOptions,
};
use corepart::engine::Engine;
use corepart::error::CorepartError;
use corepart::evaluate::Partition;
use corepart::explore::{explore, explore_nodes, hardware_weight_sweep};
use corepart::flow::DesignFlow;
use corepart::json::corpus_to_json;
use corepart::json::{exploration_to_json, node_exploration_to_json, outcome_to_json_at};
use corepart::partition::Partitioner;
use corepart::prepare::Workload;
use corepart::report::{Table1, Table1Entry};
use corepart::serve::{ServeOptions, Server, EXPLORE_WEIGHTS};
use corepart::system::SystemConfig;
use corepart_ir::lower::lower;
use corepart_ir::parser::parse;
use corepart_tech::scaling::OperatingPoint;

struct Args {
    command: String,
    file: String,
    json: bool,
    set_index: usize,
    arrays: Vec<(String, Vec<i64>)>,
    n_max: Option<usize>,
    factor_f: Option<f64>,
    factor_g: Option<f64>,
    threads: Option<usize>,
    node: Option<u32>,
    vdd: Option<f64>,
    nodes: Option<Vec<u32>>,
    vdd_steps: usize,
    serve: ServeOptions,
    out: Option<String>,
    journal: Option<String>,
    chunk: Option<usize>,
    limit: Option<u64>,
    resume: bool,
    connect: Option<String>,
    connections: usize,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: corepart <partition|explore|clusters|disasm|schedule> <file.bdl> \
         [--json] [--threads N] [--set-index I] [--n-max N] [--factor-f F] \
         [--factor-g G] [--node N] [--vdd V] [--nodes a,b,...] [--vdd-steps N] \
         [--array name=v1,v2,...]...\n       \
         corepart corpus <dir> [--out P] [--journal P] [--chunk N] [--limit N] \
         [--resume] [--json] [--threads N] [--connect host:port] [--connections N]\n       \
         corepart serve [--port P] [--shards S] [--store-budget-mb M] [--threads N] \
         [--max-connections N] [--timeout-ms T]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command")?;
    // `serve` is a daemon over request-supplied sources — it takes no
    // input file.
    let file = if command == "serve" {
        String::new()
    } else {
        it.next().ok_or("missing input file")?
    };
    let mut args = Args {
        command,
        file,
        json: false,
        set_index: 2,
        arrays: Vec::new(),
        n_max: None,
        factor_f: None,
        factor_g: None,
        threads: None,
        node: None,
        vdd: None,
        nodes: None,
        vdd_steps: 4,
        serve: ServeOptions::default(),
        out: None,
        journal: None,
        chunk: None,
        limit: None,
        resume: false,
        connect: None,
        connections: 1,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => args.json = true,
            "--port" => {
                let v = it.next().ok_or("--port needs a value")?;
                args.serve.port = v.parse().map_err(|_| format!("bad port `{v}`"))?;
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                args.serve.shards = v.parse().map_err(|_| format!("bad shard count `{v}`"))?;
            }
            "--store-budget-mb" => {
                let v = it.next().ok_or("--store-budget-mb needs a value")?;
                let mb: u64 = v.parse().map_err(|_| format!("bad budget `{v}`"))?;
                args.serve.budget_bytes = mb << 20;
            }
            "--max-connections" => {
                let v = it.next().ok_or("--max-connections needs a value")?;
                args.serve.max_connections =
                    v.parse().map_err(|_| format!("bad connection cap `{v}`"))?;
            }
            "--timeout-ms" => {
                let v = it.next().ok_or("--timeout-ms needs a value")?;
                args.serve.request_timeout_ms =
                    v.parse().map_err(|_| format!("bad timeout `{v}`"))?;
            }
            "--connect" => {
                args.connect = Some(it.next().ok_or("--connect needs host:port")?);
            }
            "--connections" => {
                let v = it.next().ok_or("--connections needs a value")?;
                args.connections = v
                    .parse()
                    .map_err(|_| format!("bad connection count `{v}`"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                args.threads = Some(v.parse().map_err(|_| format!("bad thread count `{v}`"))?);
            }
            "--set-index" => {
                let v = it.next().ok_or("--set-index needs a value")?;
                args.set_index = v.parse().map_err(|_| format!("bad set index `{v}`"))?;
            }
            "--n-max" => {
                let v = it.next().ok_or("--n-max needs a value")?;
                args.n_max = Some(v.parse().map_err(|_| format!("bad n-max `{v}`"))?);
            }
            "--factor-f" => {
                let v = it.next().ok_or("--factor-f needs a value")?;
                args.factor_f = Some(v.parse().map_err(|_| format!("bad factor `{v}`"))?);
            }
            "--factor-g" => {
                let v = it.next().ok_or("--factor-g needs a value")?;
                args.factor_g = Some(v.parse().map_err(|_| format!("bad factor `{v}`"))?);
            }
            "--node" => {
                let v = it.next().ok_or("--node needs a value")?;
                args.node = Some(v.parse().map_err(|_| format!("bad node `{v}`"))?);
            }
            "--vdd" => {
                let v = it.next().ok_or("--vdd needs a value")?;
                args.vdd = Some(v.parse().map_err(|_| format!("bad voltage `{v}`"))?);
            }
            "--nodes" => {
                let spec = it.next().ok_or("--nodes needs a,b,...")?;
                let nodes: Result<Vec<u32>, _> =
                    spec.split(',').map(|v| v.trim().parse::<u32>()).collect();
                args.nodes = Some(nodes.map_err(|_| format!("bad node list `{spec}`"))?);
            }
            "--vdd-steps" => {
                let v = it.next().ok_or("--vdd-steps needs a value")?;
                args.vdd_steps = v.parse().map_err(|_| format!("bad step count `{v}`"))?;
            }
            "--out" => {
                args.out = Some(it.next().ok_or("--out needs a path")?);
            }
            "--journal" => {
                args.journal = Some(it.next().ok_or("--journal needs a path")?);
            }
            "--chunk" => {
                let v = it.next().ok_or("--chunk needs a value")?;
                args.chunk = Some(v.parse().map_err(|_| format!("bad chunk size `{v}`"))?);
            }
            "--limit" => {
                let v = it.next().ok_or("--limit needs a value")?;
                args.limit = Some(v.parse().map_err(|_| format!("bad limit `{v}`"))?);
            }
            "--resume" => args.resume = true,
            "--array" => {
                let spec = it.next().ok_or("--array needs name=v1,v2,...")?;
                let (name, vals) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("bad --array spec `{spec}`"))?;
                let data: Result<Vec<i64>, _> =
                    vals.split(',').map(|v| v.trim().parse::<i64>()).collect();
                args.arrays.push((
                    name.to_owned(),
                    data.map_err(|_| format!("bad numbers in `{spec}`"))?,
                ));
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn config_from(args: &Args) -> SystemConfig {
    let mut config = SystemConfig::new();
    if let Some(n) = args.n_max {
        config.n_max = n;
    }
    if let Some(f) = args.factor_f {
        config.factor_f = f;
    }
    if let Some(g) = args.factor_g {
        config.factor_g = g;
    }
    if let Some(t) = args.threads {
        config.threads = t;
    }
    if args.node.is_some() || args.vdd.is_some() {
        let native = OperatingPoint::native_of(&config.process);
        let node_nm = args.node.unwrap_or(native.node_nm);
        let vdd = args.vdd.unwrap_or_else(|| {
            config
                .scaling
                .row(node_nm)
                .map(|r| r.nominal_vdd(&config.process))
                .unwrap_or(native.vdd)
        });
        config.operating_point = Some(OperatingPoint { node_nm, vdd });
    }
    config
}

fn serve(args: &Args) -> Result<(), String> {
    let mut opts = args.serve.clone();
    if let Some(t) = args.threads {
        opts.threads = t;
    }
    let server = Server::spawn(config_from(args), &opts).map_err(|e| e.to_string())?;
    println!("listening on {}", server.addr());
    server.join();
    println!("shutdown complete");
    Ok(())
}

/// Runs the corpus verb over a directory of `.bdl` files: every file,
/// sorted by name, becomes one corpus entry.
fn corpus_over_dir(args: &Args) -> Result<(), String> {
    let dir = PathBuf::from(&args.file);
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "bdl"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .bdl files in {}", dir.display()));
    }

    let mut options = CorpusOptions::new(config_from(args));
    if let Some(c) = args.chunk {
        options.chunk = c;
    }
    if let Some(t) = args.threads {
        options.threads = t;
    }
    options.limit = args.limit;
    // The journal must refuse to resume over a *different* file set:
    // fold the sorted file names into the provider tag.
    let names: Vec<&str> = files
        .iter()
        .filter_map(|p| p.file_name().and_then(|n| n.to_str()))
        .collect();
    options.provider_tag = format!("dir-{:016x}", fingerprint64(names.join("\n").as_bytes()));

    let workload = Workload::from_arrays(args.arrays.clone());
    let provider = |index: u64| -> Result<CorpusEntry, CorepartError> {
        let path = &files[index as usize];
        let source = std::fs::read_to_string(path).map_err(|e| CorepartError::Config {
            message: format!("{}: {e}", path.display()),
        })?;
        let program = parse(&source)?;
        let features = source_features(&program);
        let app = lower(&program)?;
        Ok(CorpusEntry {
            index,
            seed: 0,
            name: path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("entry")
                .to_owned(),
            source,
            app,
            workload: workload.clone(),
            features,
        })
    };

    let out = PathBuf::from(args.out.as_deref().unwrap_or("corpus.tsv"));
    let journal = args
        .journal
        .clone()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("{}.journal", out.display())));
    let remote = args.connect.as_deref().map(|addr| {
        let mut r = RemoteOptions::new(addr);
        r.connections = args.connections;
        r
    });
    let outcome = run_corpus_with(
        files.len() as u64,
        provider,
        &options,
        &journal,
        &out,
        args.resume,
        remote.as_ref(),
    )
    .map_err(|e| e.to_string())?;
    if args.json {
        println!("{}", corpus_to_json(&outcome));
    } else if outcome.finished {
        println!(
            "corpus complete: {} app(s) ({} evaluated, {} replayed) -> {}",
            outcome.count,
            outcome.evaluated,
            outcome.replayed,
            out.display()
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
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    if args.command == "serve" {
        return serve(args);
    }
    if args.command == "corpus" {
        return corpus_over_dir(args);
    }
    let source = std::fs::read_to_string(&args.file).map_err(|e| format!("{}: {e}", args.file))?;
    let config = config_from(args);
    let workload = Workload::from_arrays(args.arrays.clone());

    match args.command.as_str() {
        "partition" => {
            let point = config.resolved_point().map_err(|e| e.to_string())?;
            let flow = DesignFlow::with_config(config);
            let result = flow
                .run_source(&source, workload)
                .map_err(|e| e.to_string())?;
            if args.json {
                println!(
                    "{}",
                    outcome_to_json_at(&result.app_name, &result.outcome, point.as_ref())
                );
            } else {
                let mut table = Table1::new();
                table.push(Table1Entry::from_outcome(&result.app_name, &result.outcome));
                println!("{table}");
                match &result.outcome.best {
                    Some((partition, detail)) => println!(
                        "chosen: {} cluster(s) on `{}` — {} hardware, U_R {:.3} vs U_uP {:.3}",
                        partition.clusters.len(),
                        partition.set.name(),
                        detail.metrics.geq,
                        detail.u_r,
                        detail.u_up,
                    ),
                    None => println!("no partition beat the initial design"),
                }
                if let Some(rp) = &point {
                    let w = rp.weigh(&result.outcome.initial);
                    print!(
                        "at {}: initial {:.3e} J / {:.3e} s",
                        rp.point,
                        w.energy.joules(),
                        w.time.secs()
                    );
                    if let Some((_, detail)) = &result.outcome.best {
                        let b = rp.weigh(&detail.metrics);
                        print!(
                            " — best {:.3e} J / {:.3e} s / {:.0} cells",
                            b.energy.joules(),
                            b.time.secs(),
                            b.area_cells
                        );
                    }
                    println!();
                }
            }
            Ok(())
        }
        "explore" => {
            let app =
                lower(&parse(&source).map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
            let configs = hardware_weight_sweep(&EXPLORE_WEIGHTS, &config);
            if let Some(nodes) = &args.nodes {
                let nx = explore_nodes(&app, &workload, &configs, nodes, args.vdd_steps)
                    .map_err(|e| e.to_string())?;
                if args.json {
                    println!("{}", node_exploration_to_json(&nx));
                } else {
                    print!("{}", nx.render_frontier());
                }
                return Ok(());
            }
            let ex = explore(&app, &workload, &configs).map_err(|e| e.to_string())?;
            if args.json {
                println!("{}", exploration_to_json(&ex));
            } else {
                print!("{}", ex.render_frontier());
            }
            Ok(())
        }
        "clusters" => {
            let app =
                lower(&parse(&source).map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
            let engine = Engine::new(config).map_err(|e| e.to_string())?;
            let session = engine.session(&app, &workload);
            let prepared = session.prepared().map_err(|e| e.to_string())?;
            println!("cluster chain of `{}`:", prepared.app.name());
            for c in prepared.chain.iter() {
                let inv =
                    corepart_ir::cluster::cluster_invocations(&prepared.app, &prepared.profile, c);
                println!("  {c} | {inv} invocation(s)");
                println!(
                    "      gen: {}",
                    c.gen_use
                        .gen
                        .iter()
                        .map(|d| d.to_string())
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                println!(
                    "      use: {}",
                    c.gen_use
                        .use_
                        .iter()
                        .map(|d| d.to_string())
                        .collect::<Vec<_>>()
                        .join(" ")
                );
            }
            Ok(())
        }
        "disasm" => {
            let app =
                lower(&parse(&source).map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
            let prog = corepart_isa::codegen::compile(&app);
            print!("{}", prog.disassemble());
            Ok(())
        }
        "schedule" => {
            let app =
                lower(&parse(&source).map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
            let engine = Engine::new(config).map_err(|e| e.to_string())?;
            let session = engine.session(&app, &workload);
            let config = session.config();
            let partitioner = Partitioner::new(&session).map_err(|e| e.to_string())?;
            let cand = partitioner
                .candidates()
                .into_iter()
                .next()
                .ok_or("no candidate clusters")?;
            let set = config
                .resource_set(args.set_index)
                .map_err(|e| e.to_string())?;
            let scheduled = partitioner
                .scheduled(&Partition::single(cand.cluster, set.clone()))
                .map_err(|e| e.to_string())?;
            print!(
                "{}",
                corepart_sched::gantt::render_cluster(
                    &scheduled.sched,
                    &scheduled.binding,
                    &config.library
                )
            );
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
