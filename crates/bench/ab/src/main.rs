//! Interleaved A/B timing: one process links a parent revision of
//! `corepart` (`old`, a package-renamed copy) and the working tree's
//! (`new`), and times the same cell code against each, alternating
//! which side runs first in every repetition. Both sides share the
//! binary, the heap and the moment, so what differs between them is the
//! code, not the build or the host's load (EXPERIMENTS P15, P25, P28).
//!
//! ```text
//! crates/bench/ab/ab.sh <parent-rev> [cell]
//! ```
//!
//! The script writes the parent copy to `target/ab-parent/` and runs
//! this binary with the parent's revision and the optional cell filter
//! (a substring of the cell names). Every cell reports, over [`REPS`]
//! repetitions per side, the median, min and max wall time of a
//! repetition, the change of the median, how many repetitions the
//! change won, and `identical`: whether every repetition on both sides
//! computed the same thing (a digest of a rendering both revisions
//! share). Inputs reach the sides only as BDL text and `i64` arrays.
//! The report is printed and written to `target/ab-parent/report.json`
//! under the host block of `BENCH_partition.json`.

use std::fmt::Debug;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use corepart_bench::{git_rev, host_json, median_min_max, SEED};

/// Repetitions of every cell on each side.
const REPS: usize = 21;

/// One application as the sides receive it.
struct Input {
    name: String,
    source: String,
    arrays: Vec<(String, Vec<i64>)>,
}

/// Everything the cells read.
struct Inputs {
    /// The six paper applications at [`SEED`], in Table-1 order.
    paper: Vec<Input>,
    /// `gen_entry(SEED, 0..64)`, with each entry's index and seed.
    corpus: Vec<(u64, u64, Input)>,
}

impl Inputs {
    fn new() -> Self {
        let paper = corepart_workloads::all()
            .iter()
            .map(|w| Input {
                name: w.name.to_owned(),
                source: w.source.to_owned(),
                arrays: w.arrays(SEED),
            })
            .collect();
        let corpus = (0..64)
            .map(|index| {
                let entry = corepart_conform::corpus::gen_entry(SEED, index).expect("lowers");
                let input = Input {
                    name: entry.name,
                    source: entry.source,
                    arrays: entry.workload.arrays,
                };
                (index, entry.seed, input)
            })
            .collect();
        Inputs { paper, corpus }
    }
}

/// A kernel of `n` multiply-accumulate statements inside a 64-trip loop;
/// `n` scales the scheduling problem.
fn kernel_source(n: usize) -> String {
    let mut body = String::new();
    for i in 0..n {
        body.push_str(&format!(
            "acc = acc + x[(i + {i}) & 63] * {w} + (x[(i + {j}) & 63] >> {s});\n",
            w = 3 + i % 5,
            j = i + 1,
            s = 1 + i % 3,
        ));
    }
    format!(
        "app bench; var x[64]; var acc = 0; func main() {{
            for (var i = 0; i < 64; i = i + 1) {{ {body} }}
            return acc;
        }}"
    )
}

/// One repetition on one side: its wall time and a digest of what it
/// computed.
struct Sample {
    ms: f64,
    digest: u64,
}

/// Runs `work` `iters` times on the clock, then digests the `Debug`
/// text of `render` of its last result off the clock.
fn time<T, R: Debug>(
    iters: usize,
    mut work: impl FnMut() -> T,
    render: impl FnOnce(T) -> R,
) -> Sample {
    let started = Instant::now();
    let mut out = black_box(work());
    for _ in 1..iters {
        out = black_box(work());
    }
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let mut hasher = DefaultHasher::new();
    format!("{:?}", render(out)).hash(&mut hasher);
    Sample {
        ms,
        digest: hasher.finish(),
    }
}

/// The cells, expanded once against each side. Every cell builds its
/// state off the clock and times only its work. Renderings leave out
/// hash maps, whose order differs between maps, and phase times.
macro_rules! side {
    ($side:ident) => {
        mod $side {
            use ::$side as corepart;

            use corepart::cache::cache::Cache;
            use corepart::cache::config::{CacheConfig, Replacement, WritePolicy};
            use corepart::corpus::{
                evaluate_corpus_entry, point_to_line, source_features, CorpusEntry, CorpusOptions,
            };
            use corepart::engine::Engine;
            use corepart::evaluate::Partition;
            use corepart::explore::{explore_in, hardware_weight_sweep};
            use corepart::ir::cdfg::Application;
            use corepart::ir::cluster::decompose;
            use corepart::ir::dataflow::region_gen_use;
            use corepart::ir::interp::Interpreter;
            use corepart::ir::lower::lower;
            use corepart::ir::op::BlockId;
            use corepart::ir::parser::parse;
            use corepart::json::{
                exploration_to_json, outcome_to_json_at, result_field, table1_to_json,
            };
            use corepart::partition::Partitioner;
            use corepart::prepare::Workload;
            use corepart::report::{Table1, Table1Entry};
            use corepart::sched::binding::{bind, schedule_cluster, utilization};
            use corepart::serve::{handle_line, ComputeKind, ComputeRequest, EXPLORE_WEIGHTS};
            use corepart::store::{ArtifactStore, StoreOptions};
            use corepart::system::SystemConfig;
            use corepart::tech::resource::{ResourceLibrary, ResourceSet};

            use super::{black_box, kernel_source, time, Input, Inputs, OnceLock, Sample};

            /// Every cell: name, iterations per repetition, body.
            pub const CELLS: &[(&str, usize, fn(&Inputs, usize) -> Sample)] = &[
                ("parse+lower/16-mac", 200, |_, n| parse_lower(n)),
                ("decompose/16-mac", 1000, |_, n| decompose_kernel(n)),
                ("region_gen_use/16-mac", 1000, |_, n| gen_use(n)),
                ("schedule+bind+U_R/4-mac", 400, |_, n| schedule(4, n)),
                ("schedule+bind+U_R/16-mac", 100, |_, n| schedule(16, n)),
                ("schedule+bind+U_R/64-mac", 10, |_, n| schedule(64, n)),
                ("cache/1M-strided-reads/assoc-1", 1, |_, n| cache(1, n)),
                ("cache/1M-strided-reads/assoc-4", 1, |_, n| cache(4, n)),
                ("estimate/3d-single", 2000, estimate),
                ("paper-flow/round", 1, round),
                ("search-only/paper-six", 1, search_only),
                ("corpus-entry/gen-64/threads-1", 1, corpus_entries),
                ("serve/warm-hit/paper-36", 20, warm_hits),
            ];

            fn app(source: &str) -> Application {
                lower(&parse(source).expect("parses")).expect("lowers")
            }

            fn workload(input: &Input) -> Workload {
                Workload::from_arrays(input.arrays.clone())
            }

            fn parse_lower(iters: usize) -> Sample {
                let source = kernel_source(16);
                time(iters, || app(black_box(&source)), |a| a)
            }

            fn decompose_kernel(iters: usize) -> Sample {
                let a = app(&kernel_source(16));
                time(iters, || decompose(black_box(&a)), |chain| chain)
            }

            fn gen_use(iters: usize) -> Sample {
                let a = app(&kernel_source(16));
                let blocks: Vec<BlockId> = (0..a.blocks().len() as u32).map(BlockId).collect();
                time(iters, || region_gen_use(black_box(&a), &blocks), |g| g)
            }

            /// List schedule, bind and `U_R` of an `n`-MAC kernel's loop
            /// on the third default resource set.
            fn schedule(n: usize, iters: usize) -> Sample {
                let lib = ResourceLibrary::cmos6();
                let set = ResourceSet::default_family()[2].clone();
                let a = app(&kernel_source(n));
                let profile = Interpreter::new(&a).run(100_000_000).expect("runs");
                let lp = a.structure().iter().find(|s| s.is_loop()).expect("loop");
                let blocks = lp.blocks().to_vec();
                time(
                    iters,
                    || {
                        let sched = schedule_cluster(black_box(&a), &blocks, &set, &lib);
                        let sched = sched.expect("schedules");
                        let binding = bind(&sched, &lib);
                        let u = utilization(&sched, &binding, &profile, &lib);
                        (sched, binding, u)
                    },
                    |(sched, binding, u)| (sched, binding.instances, binding.geq_rs, u),
                )
            }

            /// One million strided reads through an 8 KiB, 16-byte-line
            /// LRU write-back cache.
            fn cache(assoc: usize, iters: usize) -> Sample {
                let (lru, wb) = (Replacement::Lru, WritePolicy::WriteBack);
                let config = CacheConfig::new(8 * 1024, 16, assoc, lru, wb, 8).expect("config");
                let reads = || {
                    let mut cache = Cache::new(black_box(config.clone()));
                    for i in 0..1_000_000u32 {
                        cache.read(0x1000 + (i * 52) % (64 * 1024));
                    }
                    cache.stats()
                };
                time(iters, reads, |stats| stats)
            }

            /// Fig. 1 lines 8–11 for `3d`'s first candidate on the third
            /// resource set, with the session's schedule cache warm after
            /// the first call.
            fn estimate(inputs: &Inputs, iters: usize) -> Sample {
                let (a, w) = (app(&inputs.paper[0].source), workload(&inputs.paper[0]));
                let engine = Engine::new(SystemConfig::new()).expect("engine");
                let session = engine.session(&a, &w);
                let partitioner = Partitioner::new(&session).expect("initial run");
                let candidate = partitioner.candidates()[0].cluster;
                let set = session.config().resource_set(2).expect("set").clone();
                let partition = Partition::single(candidate, set);
                time(
                    iters,
                    || {
                        partitioner
                            .estimate(black_box(&partition))
                            .expect("estimates")
                    },
                    |e| e,
                )
            }

            /// What a corebench `paper-flow` round runs: for every paper
            /// application, `partition --json` and `explore --json`, each
            /// from the source on a fresh engine.
            fn round(inputs: &Inputs, iters: usize) -> Sample {
                let round = || {
                    let mut table = Table1::new();
                    let mut explores = String::new();
                    for input in &inputs.paper {
                        let (a, w) = (app(&input.source), workload(input));
                        let engine = Engine::new(SystemConfig::new()).expect("engine");
                        let session = engine.session(&a, &w);
                        let outcome = Partitioner::new(&session).and_then(|p| p.run());
                        let outcome = outcome.expect("search");
                        black_box(outcome_to_json_at(a.name(), &outcome, None));
                        table.push(Table1Entry::from_outcome(a.name(), &outcome));

                        let a = app(&input.source);
                        let configs = hardware_weight_sweep(&EXPLORE_WEIGHTS, &SystemConfig::new());
                        let engine = Engine::new(configs[0].1.clone()).expect("engine");
                        let ex = explore_in(&engine, &a, &w, &configs).expect("explore");
                        explores += &exploration_to_json(&ex);
                    }
                    table1_to_json(&table) + &explores
                };
                time(iters, round, |text| text)
            }

            /// `Partitioner::run` on every paper application, each on a
            /// fresh engine whose baseline is resolved before the clock.
            fn search_only(inputs: &Inputs, iters: usize) -> Sample {
                let apps: Vec<(Application, Workload)> = inputs
                    .paper
                    .iter()
                    .map(|i| (app(&i.source), workload(i)))
                    .collect();
                let engines: Vec<Engine> = apps
                    .iter()
                    .map(|_| Engine::new(SystemConfig::new()).expect("engine"))
                    .collect();
                let sessions: Vec<_> = engines
                    .iter()
                    .zip(&apps)
                    .map(|(e, (a, w))| e.session(a, w))
                    .collect();
                let partitioners: Vec<Partitioner> = sessions
                    .iter()
                    .map(|s| Partitioner::new(s).expect("initial run"))
                    .collect();
                let search = || -> Vec<_> {
                    partitioners
                        .iter()
                        .map(|p| p.run().expect("search"))
                        .collect()
                };
                time(iters, search, |outcomes| {
                    let rows = outcomes.iter().zip(&inputs.paper).map(|(o, i)| {
                        let s = &o.search;
                        let counters = [s.candidates, s.estimated, s.rejected_by_utilization];
                        let more = [s.infeasible, s.growth_steps, s.verifications];
                        let cache = (s.cache_hits, s.cache_misses);
                        (
                            Table1Entry::from_outcome(i.name.as_str(), o),
                            counters,
                            more,
                            cache,
                        )
                    });
                    rows.collect::<Vec<_>>()
                })
            }

            /// `handle_line` over the 36 lines of corebench `serve-warm`
            /// (every paper application's `partition`, `explore` and
            /// verifies of clusters {0} and {0, 1} on sets 2 and 4) on a
            /// store that answered each once, off the clock and once per
            /// side: every timed call is a result-memo hit.
            fn warm_hits(inputs: &Inputs, iters: usize) -> Sample {
                static WARM: OnceLock<(ArtifactStore, Vec<String>)> = OnceLock::new();
                let (store, lines) = WARM.get_or_init(|| {
                    let mut lines = Vec::new();
                    for input in &inputs.paper {
                        let (partition, explore) = (ComputeKind::Partition, ComputeKind::Explore);
                        let mut keys = vec![(partition, &[][..], 2), (explore, &[][..], 2)];
                        for clusters in [&[0][..], &[0, 1]] {
                            keys.extend([2, 4].map(|set| (ComputeKind::Verify, clusters, set)));
                        }
                        for (kind, clusters, set_index) in keys {
                            let mut req = ComputeRequest::new(kind, &input.source);
                            req.arrays = input.arrays.clone();
                            req.clusters = clusters.to_vec();
                            req.set_index = set_index;
                            lines.push(req.to_json());
                        }
                    }
                    let options = StoreOptions::default();
                    let store = ArtifactStore::new(SystemConfig::new(), &options).expect("store");
                    for line in &lines {
                        black_box(handle_line(&store, line));
                    }
                    (store, lines)
                });
                let answer_all = || -> Vec<String> {
                    let answer = |line: &String| handle_line(store, black_box(line)).0;
                    lines.iter().map(answer).collect()
                };
                time(iters, answer_all, |responses| {
                    let result = |r: &String| result_field(r).expect("answered").to_owned();
                    responses.iter().map(result).collect::<Vec<_>>()
                })
            }

            /// `evaluate_corpus_entry` over the generated entries, each on
            /// a fresh threads-1 engine built before the clock.
            fn corpus_entries(inputs: &Inputs, iters: usize) -> Sample {
                let options = CorpusOptions::new(SystemConfig::new());
                let entry = |&(index, seed, ref input): &(u64, u64, Input)| {
                    let program = parse(&input.source).expect("parses");
                    CorpusEntry {
                        index,
                        seed,
                        name: input.name.clone(),
                        source: input.source.clone(),
                        app: lower(&program).expect("lowers"),
                        workload: workload(input),
                        features: source_features(&program),
                    }
                };
                let entries: Vec<CorpusEntry> = inputs.corpus.iter().map(entry).collect();
                let threads_1 = options.base.clone().with_threads(1);
                let engines: Vec<Engine> = entries
                    .iter()
                    .map(|_| Engine::new(threads_1.clone()).expect("engine"))
                    .collect();
                let evaluate = || -> Vec<_> {
                    let pairs = entries.iter().zip(&engines);
                    pairs
                        .map(|(e, engine)| evaluate_corpus_entry(engine, e, &options))
                        .collect()
                };
                time(iters, evaluate, |results| {
                    let rendered = results.into_iter().map(|result| {
                        let (row, points) = result.expect("evaluates");
                        (
                            row.to_line(),
                            points.iter().map(point_to_line).collect::<Vec<_>>(),
                        )
                    });
                    rendered.collect::<Vec<_>>()
                })
            }
        }
    };
}

side!(old);
side!(new);

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(parent) = args.next() else {
        eprintln!("usage: corepart-ab <parent-rev> [cell]  (run it through ab.sh)");
        std::process::exit(2);
    };
    let filter = args.next().unwrap_or_default();
    let host = host_json(&[("parent", &parent), ("change", &git_rev())], REPS);
    println!("host: {host}\n");
    println!(
        "{:<34} {:>5} {:>28} {:>28} {:>8} {:>5} identical",
        "cell", "iters", "parent ms med [min, max]", "change ms med [min, max]", "Δ %", "wins"
    );

    let inputs = Inputs::new();
    let mut rows = Vec::new();
    for (&(name, iters, old_cell), &(_, _, new_cell)) in old::CELLS.iter().zip(new::CELLS) {
        if !name.contains(filter.as_str()) {
            continue;
        }
        let (mut parent_ms, mut change_ms, mut digests) = (Vec::new(), Vec::new(), Vec::new());
        for rep in 0..REPS {
            // The sides take turns going first.
            let mut sides = [old_cell, new_cell];
            sides.rotate_left(rep % 2);
            let mut samples = sides.map(|cell| cell(&inputs, iters));
            samples.rotate_left(rep % 2);
            let [old_sample, new_sample] = samples;
            parent_ms.push(old_sample.ms);
            change_ms.push(new_sample.ms);
            digests.extend([old_sample.digest, new_sample.digest]);
        }
        let identical = digests.iter().all(|&d| d == digests[0]);
        let wins = parent_ms
            .iter()
            .zip(&change_ms)
            .filter(|(p, c)| c < p)
            .count();
        let (parent, change) = (median_min_max(parent_ms), median_min_max(change_ms));
        let delta = (change.0 / parent.0 - 1.0) * 100.0;
        let text = |(med, min, max): (f64, f64, f64)| format!("{med:.3} [{min:.3}, {max:.3}]");
        let (p, c, won) = (text(parent), text(change), format!("{wins}/{REPS}"));
        println!("{name:<34} {iters:>5} {p:>28} {c:>28} {delta:>+8.1} {won:>5} {identical:>9}");
        let json = |(med, min, max): (f64, f64, f64)| {
            format!("{{\"median\":{med:.4},\"min\":{min:.4},\"max\":{max:.4}}}")
        };
        rows.push(format!(
            "{{\"cell\":\"{name}\",\"iters\":{iters},\"reps\":{REPS},\"parent_ms\":{},\
             \"change_ms\":{},\"delta_pct\":{delta:.2},\"change_wins\":{wins},\
             \"identical\":{identical}}}",
            json(parent),
            json(change),
        ));
    }
    if rows.is_empty() {
        eprintln!("no cell matches {filter:?}");
        std::process::exit(2);
    }
    let report = format!("{{\"host\":{host},\"cells\":[{}]}}\n", rows.join(","));
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../../target/ab-parent/report.json"
    );
    std::fs::write(path, report).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote target/ab-parent/report.json");
}
