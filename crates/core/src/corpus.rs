//! Corpus-scale exploration: run the full partition/explore flow over
//! an unbounded, deterministic stream of applications.
//!
//! The paper validates on six fixed workloads; this module turns the
//! flow into a *workload factory* consumer. A corpus run maps a
//! deterministic entry provider (`index → application`) over a sharded
//! work queue — entries are evaluated chunk by chunk, in parallel
//! within a chunk via [`par_map`] — and folds every chunk into
//!
//! * one compact **columnar results file** (fixed column order,
//!   byte-stable for a given provider/configuration — see
//!   [`CorpusRow`]),
//! * an incremental **global 3D Pareto frontier** over every explored
//!   design point: each chunk's points are folded into the running
//!   frontier by the crate's one Pareto staircase
//!   ([`crate::explore`](mod@crate::explore)), which leaves it equal
//!   to the one-shot frontier over the concatenated point set (see
//!   [`CorpusOutcome::frontier`]),
//! * **per-feature statistics** (energy saving vs. loop depth, array
//!   footprint, cluster count, hardware-block count) from
//!   [`feature_stats`].
//!
//! Completed chunks are appended to an on-disk **journal** as they
//! finish, so an interrupted run — a kill, or a stop at
//! [`CorpusOptions::limit`] — resumes from the last completed chunk
//! instead of restarting: on
//! resume the journal's chunk records are replayed into the aggregates
//! (row parsing round-trips every `f64` bit-exactly through the
//! shortest-roundtrip rendering), and only the missing chunks are
//! computed. The final columnar file of an interrupted-and-resumed run
//! is byte-identical to an uninterrupted one.
//!
//! Entries are evaluated through one shared [`Engine`] per chunk, so
//! corpus entries reuse the engine's compute-once artifact pools —
//! in particular the schedule cache, which is keyed by resource
//! library and therefore shared across *different* generated
//! applications whose clusters schedule identically. Each entry's `G`
//! sweep is [`crate::explore()`]'s factor sweep: the weights share one
//! baseline, so all their winners are verified in one replay walk of
//! the entry's trace. Its configurations run at one thread, so the
//! sweep stays on the calling thread: the corpus parallelises across
//! entries (and a served `corpus` request across shards), never within
//! one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::hash::Hasher;
use std::io::{ErrorKind, Write as _};
use std::path::Path;

use corepart_ir::ast::{Program, Stmt};
use corepart_ir::cdfg::Application;

use crate::engine::{Engine, Fnv64};
use crate::error::CorepartError;
use crate::evaluate::cluster_blocks;
use crate::explore::{design_mask, sweep, DesignPoint};
use crate::json::{parse_json, JsonValue};
use crate::parallel::{par_map, resolve_threads};
use crate::prepare::Workload;
use crate::serve::{Client, ComputeKind, ComputeRequest, CorpusMeta};
use crate::system::SystemConfig;
use corepart_tech::units::GateEq;

/// Data-word size assumed by the array-footprint feature (the ISS is a
/// 32-bit machine; one declared element occupies one word).
const WORD_BYTES: u64 = 4;

// ---------------------------------------------------------------------
// Source features
// ---------------------------------------------------------------------

/// Structural features of one corpus entry, extracted from its parsed
/// source — the axes the per-feature statistics bucket savings over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SourceFeatures {
    /// Maximum loop-nest depth across all functions.
    pub loop_depth: u32,
    /// Total declared array footprint in bytes.
    pub array_bytes: u64,
    /// Total statement count across all function bodies (recursive).
    pub stmts: u32,
}

/// Extracts [`SourceFeatures`] from a parsed program.
pub fn source_features(program: &Program) -> SourceFeatures {
    fn walk(stmts: &[Stmt], depth: u32, max_depth: &mut u32, count: &mut u32) {
        for s in stmts {
            *count += 1;
            match s {
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    walk(then_body, depth, max_depth, count);
                    walk(else_body, depth, max_depth, count);
                }
                Stmt::While { body, .. } | Stmt::For { body, .. } => {
                    *max_depth = (*max_depth).max(depth + 1);
                    walk(body, depth + 1, max_depth, count);
                }
                _ => {}
            }
        }
    }
    let mut loop_depth = 0;
    let mut stmts = 0;
    for f in &program.funcs {
        walk(&f.body, 0, &mut loop_depth, &mut stmts);
    }
    SourceFeatures {
        loop_depth,
        array_bytes: program
            .arrays
            .iter()
            .map(|a| u64::from(a.len) * WORD_BYTES)
            .sum(),
        stmts,
    }
}

// ---------------------------------------------------------------------
// Entries and options
// ---------------------------------------------------------------------

/// One corpus entry, as produced by a provider: a lowered application
/// plus the metadata the results file records.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The entry's position in the corpus (== the provider argument).
    pub index: u64,
    /// The deterministic per-entry seed (0 for file-backed corpora).
    pub seed: u64,
    /// The entry name (sanitized into one results-file cell).
    pub name: String,
    /// The raw BDL source text. The distributed client ships it
    /// verbatim to the serve daemon, which re-parses and re-lowers it —
    /// so both sides derive features and applications from the same
    /// bytes.
    pub source: String,
    /// The lowered application.
    pub app: Application,
    /// The workload every evaluation runs under.
    pub workload: Workload,
    /// Structural features of the source.
    pub features: SourceFeatures,
}

/// Corpus-run configuration.
#[derive(Debug, Clone)]
pub struct CorpusOptions {
    /// The base system configuration (searches run with `threads = 1`
    /// inside the chunk-parallel map; the base thread count is
    /// ignored).
    pub base: SystemConfig,
    /// Objective hardware weights explored per entry (the `G` sweep);
    /// each contributes one design point to the global frontier.
    pub g_sweep: Vec<f64>,
    /// Entries per journal chunk (the resume granularity).
    pub chunk: usize,
    /// Worker threads for the within-chunk parallel map (0 = auto).
    pub threads: usize,
    /// Stop after at least this many freshly evaluated entries
    /// (rounded up to a chunk boundary); the journal keeps the run
    /// resumable. A limit of `n · chunk` stops after exactly `n` fresh
    /// chunks, which is how tests and CI interrupt a run on purpose.
    pub limit: Option<u64>,
    /// Provider identity recorded in (and checked against) the
    /// journal header, e.g. `"gen seed=7"`.
    pub provider_tag: String,
}

impl CorpusOptions {
    /// Options with the default `G` sweep and chunk size.
    pub fn new(base: SystemConfig) -> Self {
        CorpusOptions {
            base,
            g_sweep: vec![0.0, 0.2, 1.0],
            chunk: 32,
            threads: 0,
            limit: None,
            provider_tag: "unnamed".into(),
        }
    }

    fn validate(&self, count: u64) -> Result<(), CorepartError> {
        if count == 0 {
            return Err(CorepartError::Config {
                message: "corpus needs at least one entry".into(),
            });
        }
        if self.chunk == 0 {
            return Err(CorepartError::Config {
                message: "corpus chunk size must be at least 1".into(),
            });
        }
        if self.g_sweep.is_empty() {
            return Err(CorepartError::Config {
                message: "corpus needs at least one objective weight".into(),
            });
        }
        self.base.validate()
    }

    /// The journal parameter line: everything a resumed run must agree
    /// on. Thread counts (the base's is hashed at its default) and
    /// limits are deliberately excluded — they change wall time, never
    /// results.
    fn params(&self, count: u64) -> String {
        let mut base = self.base.clone();
        base.threads = SystemConfig::new().threads;
        let mut config = Fnv64::default();
        let _ = write!(config, "{base:?}");
        format!(
            "count={count} chunk={} gsweep={:?} provider={} config={:016x}",
            self.chunk,
            self.g_sweep,
            sanitize(&self.provider_tag),
            config.finish(),
        )
    }
}

/// Distributed execution: where and how to ship corpus chunks to a
/// running `corepart serve` daemon instead of evaluating in-process.
#[derive(Debug, Clone)]
pub struct RemoteOptions {
    /// The daemon's `host:port`.
    pub addr: String,
    /// Persistent connections to pipeline requests over (`0` = 1).
    /// Each chunk is split round-robin across them, all requests
    /// written before any response is read.
    pub connections: usize,
}

impl RemoteOptions {
    /// Options for one connection to `addr`.
    pub fn new(addr: &str) -> Self {
        RemoteOptions {
            addr: addr.to_owned(),
            connections: 1,
        }
    }
}

/// FNV-1a over `bytes` — the journal's configuration fingerprint.
/// Public so providers can fold their own identity (a directory
/// listing, a generator revision) into [`CorpusOptions::provider_tag`].
pub fn fingerprint64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv64::default();
    hash.write(bytes);
    hash.finish()
}

/// Collapses whitespace to `_` so a value fits one tab-separated cell.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
}

// ---------------------------------------------------------------------
// Columnar rows
// ---------------------------------------------------------------------

/// The fixed column order of the results file (tab-separated).
pub const COLUMNS: [&str; 21] = [
    "index",
    "seed",
    "name",
    "clusters",
    "loop_clusters",
    "loop_depth",
    "array_bytes",
    "stmts",
    "candidates",
    "estimated",
    "growth_steps",
    "verifications",
    "hw_clusters",
    "hw_blocks",
    "geq_cells",
    "initial_j",
    "best_j",
    "saving_pct",
    "initial_cycles",
    "best_cycles",
    "time_pct",
];

/// The results-file magic line.
pub const COLUMNAR_MAGIC: &str = "#corpart-corpus v1";

/// One evaluated corpus entry as a results-file row. Every `f64` is
/// rendered with Rust's shortest-roundtrip formatting, so
/// [`CorpusRow::parse_line`] reconstructs it bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusRow {
    /// Corpus index.
    pub index: u64,
    /// Per-entry seed.
    pub seed: u64,
    /// Entry name.
    pub name: String,
    /// Clusters in the decomposition chain.
    pub clusters: u32,
    /// Loop-nest clusters among them.
    pub loop_clusters: u32,
    /// Maximum source loop-nest depth.
    pub loop_depth: u32,
    /// Declared array footprint in bytes.
    pub array_bytes: u64,
    /// Source statement count.
    pub stmts: u32,
    /// Clusters surviving pre-selection (best sweep config).
    pub candidates: u32,
    /// (cluster, set) pairs estimated.
    pub estimated: u32,
    /// Greedy growth steps that improved the objective.
    pub growth_steps: u32,
    /// Full verifications run.
    pub verifications: u32,
    /// Clusters moved to hardware by the chosen design (0 = none won).
    pub hw_clusters: u32,
    /// Basic blocks moved to hardware by the chosen design.
    pub hw_blocks: u32,
    /// Additional hardware of the chosen design, gate-equivalent cells.
    pub geq_cells: u64,
    /// Initial (all-software) energy, joules.
    pub initial_j: f64,
    /// Chosen-design energy, joules (== `initial_j` when nothing won).
    pub best_j: f64,
    /// Energy saving of the chosen design, percent.
    pub saving_pct: f64,
    /// Initial execution cycles.
    pub initial_cycles: u64,
    /// Chosen-design execution cycles.
    pub best_cycles: u64,
    /// Execution-time change, percent (negative = faster).
    pub time_pct: f64,
}

impl CorpusRow {
    /// Renders the row as one tab-separated line (no newline).
    pub fn to_line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.index,
            self.seed,
            sanitize(&self.name),
            self.clusters,
            self.loop_clusters,
            self.loop_depth,
            self.array_bytes,
            self.stmts,
            self.candidates,
            self.estimated,
            self.growth_steps,
            self.verifications,
            self.hw_clusters,
            self.hw_blocks,
            self.geq_cells,
            self.initial_j,
            self.best_j,
            self.saving_pct,
            self.initial_cycles,
            self.best_cycles,
            self.time_pct,
        )
    }

    /// Parses a line produced by [`CorpusRow::to_line`]. Round-trips
    /// bit-exactly (shortest-roundtrip `f64` rendering).
    pub fn parse_line(line: &str) -> Result<CorpusRow, CorepartError> {
        let cells: Vec<&str> = line.split('\t').collect();
        if cells.len() != COLUMNS.len() {
            return Err(CorepartError::Config {
                message: format!(
                    "corpus row has {} cells, expected {}: {line:?}",
                    cells.len(),
                    COLUMNS.len()
                ),
            });
        }
        fn cell<T: std::str::FromStr>(cells: &[&str], i: usize) -> Result<T, CorepartError> {
            cells[i].parse().map_err(|_| CorepartError::Config {
                message: format!("bad corpus cell `{}` for column {}", cells[i], COLUMNS[i]),
            })
        }
        Ok(CorpusRow {
            index: cell(&cells, 0)?,
            seed: cell(&cells, 1)?,
            name: cells[2].to_owned(),
            clusters: cell(&cells, 3)?,
            loop_clusters: cell(&cells, 4)?,
            loop_depth: cell(&cells, 5)?,
            array_bytes: cell(&cells, 6)?,
            stmts: cell(&cells, 7)?,
            candidates: cell(&cells, 8)?,
            estimated: cell(&cells, 9)?,
            growth_steps: cell(&cells, 10)?,
            verifications: cell(&cells, 11)?,
            hw_clusters: cell(&cells, 12)?,
            hw_blocks: cell(&cells, 13)?,
            geq_cells: cell(&cells, 14)?,
            initial_j: cell(&cells, 15)?,
            best_j: cell(&cells, 16)?,
            saving_pct: cell(&cells, 17)?,
            initial_cycles: cell(&cells, 18)?,
            best_cycles: cell(&cells, 19)?,
            time_pct: cell(&cells, 20)?,
        })
    }
}

/// Renders the full columnar results file (magic + header + rows).
pub fn render_columnar(rows: &[CorpusRow]) -> String {
    let mut out = String::new();
    out.push_str(COLUMNAR_MAGIC);
    out.push('\n');
    out.push_str(&COLUMNS.join("\t"));
    out.push('\n');
    for row in rows {
        out.push_str(&row.to_line());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// Per-feature statistics
// ---------------------------------------------------------------------

/// Mean/max energy saving over the rows sharing one feature bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureStat {
    /// The bucketed feature (`loop_depth`, `array_bytes`, `clusters`,
    /// `hw_blocks`).
    pub feature: &'static str,
    /// The bucket value (array bytes are rounded up to a power of
    /// two; the other features bucket exactly).
    pub bucket: u64,
    /// Rows in the bucket.
    pub apps: u32,
    /// Mean saving, percent.
    pub mean_saving_pct: f64,
    /// Best saving, percent.
    pub max_saving_pct: f64,
}

/// Buckets `rows` by each feature axis and reports mean/max savings
/// per bucket, in (feature, bucket) order. Sums run in row order, so
/// the statistics are deterministic for a given row set.
pub fn feature_stats(rows: &[CorpusRow]) -> Vec<FeatureStat> {
    type Axis = (&'static str, fn(&CorpusRow) -> u64);
    let axes: [Axis; 4] = [
        ("loop_depth", |r| u64::from(r.loop_depth)),
        ("array_bytes", |r| r.array_bytes.next_power_of_two()),
        ("clusters", |r| u64::from(r.clusters)),
        ("hw_blocks", |r| u64::from(r.hw_blocks)),
    ];
    let mut out = Vec::new();
    for (feature, key) in axes {
        let mut buckets: BTreeMap<u64, (u32, f64, f64)> = BTreeMap::new();
        for row in rows {
            let entry = buckets
                .entry(key(row))
                .or_insert((0, 0.0, f64::NEG_INFINITY));
            entry.0 += 1;
            entry.1 += row.saving_pct;
            entry.2 = entry.2.max(row.saving_pct);
        }
        for (bucket, (apps, sum, max)) in buckets {
            out.push(FeatureStat {
                feature,
                bucket,
                apps,
                mean_saving_pct: sum / f64::from(apps),
                max_saving_pct: max,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------

const JOURNAL_MAGIC: &str = "corpart-corpus-journal v1";

/// One completed chunk's journal record.
#[derive(Debug, Clone, PartialEq, Default)]
struct ChunkRecord {
    rows: Vec<CorpusRow>,
    points: Vec<DesignPoint>,
}

/// Renders one design point as a tagged journal line (`point\t...`).
/// Public because the serve daemon's `corpus` command ships points as
/// these exact lines, so the distributed client folds them into its
/// journal byte-identically to local evaluation.
pub fn point_to_line(p: &DesignPoint) -> String {
    format!(
        "point\t{}\t{}\t{}\t{}\t{}\t{}",
        sanitize(&p.label).replace('\t', "_"),
        p.energy.joules(),
        p.cycles.count(),
        p.geq.cells(),
        p.saving_percent,
        u8::from(p.is_initial),
    )
}

/// Parses a tagged point line produced by [`point_to_line`] — the
/// inverse the distributed client applies to server responses.
/// Round-trips every `f64` bit-exactly.
pub fn point_from_line(line: &str) -> Result<DesignPoint, CorepartError> {
    let rest = line
        .strip_prefix("point\t")
        .ok_or_else(|| CorepartError::Config {
            message: format!("not a point line: {line:?}"),
        })?;
    let cells: Vec<&str> = rest.split('\t').collect();
    point_from_cells(&cells)
}

fn point_from_cells(cells: &[&str]) -> Result<DesignPoint, CorepartError> {
    let bad = |what: &str| CorepartError::Config {
        message: format!("bad journal point {what}: {cells:?}"),
    };
    if cells.len() != 6 {
        return Err(bad("arity"));
    }
    Ok(DesignPoint {
        label: cells[0].to_owned(),
        energy: corepart_tech::units::Energy::from_joules(
            cells[1].parse().map_err(|_| bad("energy"))?,
        ),
        cycles: corepart_tech::units::Cycles::new(cells[2].parse().map_err(|_| bad("cycles"))?),
        geq: GateEq::new(cells[3].parse().map_err(|_| bad("geq"))?),
        saving_percent: cells[4].parse().map_err(|_| bad("saving"))?,
        is_initial: cells[5] == "1",
    })
}

/// The resumable on-disk journal: a line-oriented log of completed
/// chunks. A chunk is durable once its `end` line is on disk; a
/// partial trailing chunk (interrupted mid-write) is discarded on
/// resume, and the journal is rewritten to the last durable prefix
/// before appending — so an interrupted-and-resumed journal is
/// byte-identical to an uninterrupted one.
struct Journal {
    file: fs::File,
}

impl Journal {
    fn header(params: &str) -> String {
        format!("{JOURNAL_MAGIC}\nmeta\t{params}\n")
    }

    /// Starts a fresh journal, truncating any existing file.
    fn create(path: &Path, params: &str) -> Result<Journal, CorepartError> {
        let mut file = fs::File::create(path).map_err(|e| CorepartError::Config {
            message: format!("cannot create journal {}: {e}", path.display()),
        })?;
        file.write_all(Journal::header(params).as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| CorepartError::Config {
                message: format!("cannot write journal {}: {e}", path.display()),
            })?;
        Ok(Journal { file })
    }

    /// Loads the durable chunk prefix of an existing journal, then
    /// rewrites the file to exactly that prefix and reopens it for
    /// appending. Returns the completed chunks keyed by index.
    fn resume(
        path: &Path,
        params: &str,
    ) -> Result<(Journal, BTreeMap<usize, ChunkRecord>), CorepartError> {
        let text = fs::read_to_string(path).map_err(|e| CorepartError::Config {
            message: format!("cannot read journal {}: {e}", path.display()),
        })?;
        let mut lines = text.lines();
        if lines.next() != Some(JOURNAL_MAGIC) {
            return Err(CorepartError::Config {
                message: format!("{} is not a corpus journal", path.display()),
            });
        }
        let expected_meta = format!("meta\t{params}");
        match lines.next() {
            Some(meta) if meta == expected_meta => {}
            Some(meta) => {
                return Err(CorepartError::Config {
                    message: format!(
                        "journal {} was written for different parameters\n  journal: {meta}\n  \
                         run:     {expected_meta}",
                        path.display()
                    ),
                });
            }
            None => {
                return Err(CorepartError::Config {
                    message: format!("journal {} is truncated", path.display()),
                });
            }
        }

        // Any malformed line — unknown tag, row outside a chunk, a
        // partial last line cut off mid-write — ends the durable
        // prefix; everything after it is discarded.
        let mut chunks: BTreeMap<usize, ChunkRecord> = BTreeMap::new();
        let mut durable = Journal::header(params);
        let mut current: Option<(usize, ChunkRecord, String)> = None;
        'scan: for line in lines {
            let Some((tag, rest)) = line.split_once('\t') else {
                break 'scan;
            };
            match tag {
                "chunk" => {
                    if current.is_some() {
                        break 'scan;
                    }
                    let Ok(k) = rest.parse::<usize>() else {
                        break 'scan;
                    };
                    current = Some((k, ChunkRecord::default(), format!("{line}\n")));
                }
                "row" => {
                    let Some((_, record, raw)) = current.as_mut() else {
                        break 'scan;
                    };
                    let Ok(row) = CorpusRow::parse_line(rest) else {
                        break 'scan;
                    };
                    record.rows.push(row);
                    raw.push_str(line);
                    raw.push('\n');
                }
                "point" => {
                    let Some((_, record, raw)) = current.as_mut() else {
                        break 'scan;
                    };
                    let cells: Vec<&str> = rest.split('\t').collect();
                    let Ok(p) = point_from_cells(&cells) else {
                        break 'scan;
                    };
                    record.points.push(p);
                    raw.push_str(line);
                    raw.push('\n');
                }
                "end" => {
                    let matches = current
                        .as_ref()
                        .is_some_and(|(k, _, _)| rest.parse::<usize>().ok() == Some(*k));
                    if !matches {
                        break 'scan;
                    }
                    let (k, record, raw) = current.take().expect("checked above");
                    durable.push_str(&raw);
                    durable.push_str(&format!("end\t{k}\n"));
                    chunks.insert(k, record);
                }
                _ => break 'scan,
            }
        }

        fs::write(path, &durable).map_err(|e| CorepartError::Config {
            message: format!("cannot rewrite journal {}: {e}", path.display()),
        })?;
        let file = fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| CorepartError::Config {
                message: format!("cannot reopen journal {}: {e}", path.display()),
            })?;
        Ok((Journal { file }, chunks))
    }

    /// Appends one completed chunk and flushes it to disk.
    fn append_chunk(&mut self, index: usize, record: &ChunkRecord) -> Result<(), CorepartError> {
        let mut text = format!("chunk\t{index}\n");
        for row in &record.rows {
            text.push_str("row\t");
            text.push_str(&row.to_line());
            text.push('\n');
        }
        for point in &record.points {
            text.push_str(&point_to_line(point));
            text.push('\n');
        }
        text.push_str(&format!("end\t{index}\n"));
        self.file
            .write_all(text.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| CorepartError::Config {
                message: format!("cannot append to journal: {e}"),
            })
    }
}

// ---------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------

/// The result of one corpus invocation (possibly partial).
#[derive(Debug, Clone)]
pub struct CorpusOutcome {
    /// Requested corpus size.
    pub count: u64,
    /// Total chunks in the corpus.
    pub chunks: usize,
    /// Chunks completed so far (replayed + fresh).
    pub chunks_done: usize,
    /// Entries freshly evaluated by this invocation.
    pub evaluated: u64,
    /// Entries replayed from the journal.
    pub replayed: u64,
    /// Whether every chunk is complete (the results file is only
    /// written when true).
    pub finished: bool,
    /// Every processed row, in corpus order.
    pub rows: Vec<CorpusRow>,
    /// The aggregate Pareto frontier over every processed design
    /// point, in first-seen order: the one-shot frontier of all points
    /// in corpus order, since dominance is transitive (a point dropped
    /// against an early chunk is also dropped against the whole set)
    /// and coincident points keep their first member either way.
    pub frontier: Vec<DesignPoint>,
    /// Per-feature saving statistics over the processed rows.
    pub features: Vec<FeatureStat>,
}

/// Runs (or resumes) a corpus: evaluates `count` entries from
/// `provider` under `options`, journaling to `journal_path`, and —
/// once every chunk is complete — writes the columnar results file to
/// `out_path`.
///
/// With `resume`, `journal_path` must hold a journal written with
/// identical parameters; its completed chunks are replayed instead of
/// recomputed. Without `resume`, any existing journal is overwritten.
///
/// With `remote = Some(..)`, chunks are shipped to a `corepart serve`
/// daemon as pipelined `corpus` requests over N persistent connections
/// instead of being evaluated in-process. The journal parameter line,
/// chunk records, TSV, and frontier are byte-identical either way (the
/// server evaluates through the same [`evaluate_corpus_entry`] and
/// ships rows/points as the exact journal lines), so a run may even be
/// interrupted locally and resumed remotely or vice versa.
///
/// # Errors
///
/// Configuration errors (zero count/chunk, parameter mismatch on
/// resume, unreadable journal) and any provider or flow error; with a
/// remote executor also connection and protocol failures against the
/// daemon — raised *before* the journal is touched when no connection
/// can be established at all.
pub fn run_corpus_with<P>(
    count: u64,
    provider: P,
    options: &CorpusOptions,
    journal_path: &Path,
    out_path: &Path,
    resume: bool,
    remote: Option<&RemoteOptions>,
) -> Result<CorpusOutcome, CorepartError>
where
    P: Fn(u64) -> Result<CorpusEntry, CorepartError> + Sync,
{
    options.validate(count)?;
    if remote.is_some() && options.base.operating_point.is_some() {
        return Err(CorepartError::Config {
            message: "distributed corpus runs do not support operating-point re-weighting".into(),
        });
    }
    // Connect before creating or rewriting the journal: a dead address
    // must not disturb a resumable run on disk.
    let mut remote_conns = remote.map(RemoteCorpus::connect).transpose()?;
    let params = options.params(count);
    let (mut journal, mut done) = if resume && journal_path.exists() {
        Journal::resume(journal_path, &params)?
    } else {
        (Journal::create(journal_path, &params)?, BTreeMap::new())
    };

    let chunks = count.div_ceil(options.chunk as u64) as usize;
    let threads = resolve_threads(options.threads);
    let mut frontier: Vec<DesignPoint> = Vec::new();
    let mut rows: Vec<CorpusRow> = Vec::with_capacity(count as usize);
    let mut evaluated: u64 = 0;
    let mut replayed: u64 = 0;
    let mut chunks_done = 0usize;
    let mut finished = true;

    for k in 0..chunks {
        let lo = k as u64 * options.chunk as u64;
        let hi = (lo + options.chunk as u64).min(count);
        let record = match done.remove(&k) {
            Some(record) => {
                let expect = (hi - lo) as usize;
                if record.rows.len() != expect {
                    return Err(CorepartError::Config {
                        message: format!(
                            "journal chunk {k} has {} rows, expected {expect}",
                            record.rows.len()
                        ),
                    });
                }
                replayed += record.rows.len() as u64;
                record
            }
            None => {
                // Stop *before* computing the next chunk once the limit
                // is reached; the journal keeps everything already done.
                if options.limit.is_some_and(|l| evaluated >= l) {
                    finished = false;
                    break;
                }
                // Every entry is generated before any is evaluated, so a
                // provider error (the earliest index's) leaves no trace.
                let indices: Vec<u64> = (lo..hi).collect();
                let entries: Vec<CorpusEntry> = par_map(&indices, threads, |_, &i| provider(i))
                    .into_iter()
                    .collect::<Result<_, _>>()?;
                let record = match remote_conns.as_mut() {
                    Some(rc) => rc.evaluate_chunk(&entries, options)?,
                    None => evaluate_chunk(&entries, options, threads)?,
                };
                journal.append_chunk(k, &record)?;
                evaluated += record.rows.len() as u64;
                record
            }
        };
        frontier.extend(record.points);
        let mut keep = design_mask(&frontier).into_iter();
        frontier.retain(|_| keep.next() == Some(true));
        rows.extend(record.rows);
        chunks_done += 1;
    }

    if finished {
        fs::write(out_path, render_columnar(&rows)).map_err(|e| CorepartError::Config {
            message: format!("cannot write results {}: {e}", out_path.display()),
        })?;
    }
    let features = feature_stats(&rows);
    Ok(CorpusOutcome {
        count,
        chunks,
        chunks_done,
        evaluated,
        replayed,
        finished,
        rows,
        frontier,
        features,
    })
}

/// Evaluates one chunk of entries in parallel through a shared
/// [`Engine`] (one per chunk: bounded artifact growth, shared
/// schedule cache within the chunk).
fn evaluate_chunk(
    entries: &[CorpusEntry],
    options: &CorpusOptions,
    threads: usize,
) -> Result<ChunkRecord, CorepartError> {
    let engine = Engine::new(options.base.clone().with_threads(1))?;
    let results = par_map(entries, threads, |_, entry| {
        evaluate_corpus_entry(&engine, entry, options)
    });
    let mut record = ChunkRecord::default();
    for result in results {
        let (row, points) = result?;
        record.rows.push(row);
        record.points.extend(points);
    }
    Ok(record)
}

/// The distributed executor: N persistent connections to one serve
/// daemon, each chunk shipped as pipelined `corpus` requests (all
/// writes before any read) split round-robin across the connections.
/// Responses come back in request order per connection, so reassembly
/// into corpus order needs no buffering beyond the daemon's own
/// reorder logic.
struct RemoteCorpus {
    addr: String,
    conns: Vec<Client>,
}

impl RemoteCorpus {
    /// Opens every connection up front, so a dead address fails the
    /// run before any journal state is touched.
    fn connect(options: &RemoteOptions) -> Result<RemoteCorpus, CorepartError> {
        let conns = (0..options.connections.max(1))
            .map(|_| {
                Client::connect(&options.addr).map_err(|e| CorepartError::Config {
                    message: format!("cannot connect to serve daemon {}: {e}", options.addr),
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(RemoteCorpus {
            addr: options.addr.clone(),
            conns,
        })
    }

    /// Ships one chunk and reassembles the server's rows and points
    /// into a [`ChunkRecord`] in corpus-entry order.
    fn evaluate_chunk(
        &mut self,
        entries: &[CorpusEntry],
        options: &CorpusOptions,
    ) -> Result<ChunkRecord, CorepartError> {
        let addr = self.addr.as_str();
        // The daemon refuses integers of magnitude 2^53 or more (the wire
        // carries only smaller ones exactly), so refuse them before sending.
        for entry in entries {
            for (array, data) in &entry.workload.arrays {
                if let Some(v) = data.iter().find(|v| v.unsigned_abs() >= 1 << 53) {
                    let (i, name) = (entry.index, &entry.name);
                    let message = format!(
                        "corpus entry {i} ({name}): array `{array}` holds {v}, past the \
                         ±2^53 integers the serve wire carries; run it without --connect"
                    );
                    return Err(CorepartError::Config { message });
                }
            }
        }
        let net = |e: std::io::Error| CorepartError::Config {
            message: format!("serve daemon {addr}: connection failed mid-chunk: {e}"),
        };
        let mut batches: Vec<Vec<&CorpusEntry>> = vec![Vec::new(); self.conns.len()];
        for (i, entry) in entries.iter().enumerate() {
            batches[i % self.conns.len()].push(entry);
        }
        // Write phase: every request of the chunk is in flight before
        // the first response is read — the pipelining that lets one
        // client keep every store shard busy. One write per connection.
        for (conn, batch) in self.conns.iter_mut().zip(&batches) {
            if batch.is_empty() {
                continue;
            }
            let lines: Vec<String> = batch
                .iter()
                .map(|entry| corpus_request(entry, options).to_json())
                .collect();
            conn.send(&lines.join("\n")).map_err(net)?;
        }
        // Read phase: per connection, responses arrive in request
        // order (corpus requests stay `ordered`).
        let mut results: Vec<Option<(CorpusRow, Vec<DesignPoint>)>> =
            entries.iter().map(|_| None).collect();
        for (conn, batch) in self.conns.iter_mut().zip(&batches) {
            for entry in batch {
                let line = conn.recv().map_err(|e| match e.kind() {
                    ErrorKind::UnexpectedEof => CorepartError::Config {
                        message: format!(
                            "serve daemon {addr} closed the connection mid-chunk \
                             (entry {} unanswered); re-run with --resume",
                            entry.index
                        ),
                    },
                    _ => net(e),
                })?;
                // Entries are consecutive corpus indices, so the slot
                // follows from the first entry's index.
                let pos = (entry.index - entries[0].index) as usize;
                results[pos] = Some(parse_corpus_response(line.trim_end(), entry, addr)?);
            }
        }
        let mut record = ChunkRecord::default();
        for result in results {
            let (row, points) = result.expect("every entry was assigned a connection");
            record.rows.push(row);
            record.points.extend(points);
        }
        Ok(record)
    }
}

/// Builds the wire request for one corpus entry: source and workload
/// shipped verbatim, the searchable knobs pinned explicitly so the
/// daemon's own base configuration cannot leak into the results.
/// (`factor_g` is irrelevant — [`evaluate_corpus_entry`] overrides it
/// per sweep step; every *other* configuration axis must already match
/// between client and daemon, which the journal's config fingerprint
/// cross-checks on resume.)
fn corpus_request(entry: &CorpusEntry, options: &CorpusOptions) -> ComputeRequest {
    let mut req = ComputeRequest::new(ComputeKind::Corpus, &entry.source);
    req.id = Some(entry.index);
    req.arrays = entry.workload.arrays.clone();
    req.n_max = Some(options.base.n_max);
    req.factor_f = Some(options.base.factor_f);
    req.weights = Some(options.g_sweep.clone());
    req.corpus = Some(CorpusMeta {
        index: entry.index,
        seed: entry.seed,
        name: entry.name.clone(),
    });
    req
}

/// Parses one `corpus` response line back into the row and points
/// local evaluation would have produced — bit-exactly, because both
/// travel as the journal's own tab-separated renderings.
fn parse_corpus_response(
    line: &str,
    entry: &CorpusEntry,
    addr: &str,
) -> Result<(CorpusRow, Vec<DesignPoint>), CorepartError> {
    let bad = |what: String| CorepartError::Config {
        message: format!("serve daemon {addr}: {what}"),
    };
    let v = parse_json(line).map_err(|e| bad(format!("unparseable response: {e}")))?;
    if v.get("id").and_then(JsonValue::as_u64) != Some(entry.index) {
        return Err(bad(format!(
            "response out of order: expected id {}, got {line:?}",
            entry.index
        )));
    }
    if !matches!(v.get("ok"), Some(JsonValue::Bool(true))) {
        let kind = v
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(JsonValue::as_str)
            .unwrap_or("unknown");
        let message = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(JsonValue::as_str)
            .unwrap_or("");
        return Err(bad(format!(
            "entry {} ({}) rejected [{kind}]: {message}",
            entry.index, entry.name
        )));
    }
    let result = v
        .get("result")
        .ok_or_else(|| bad("response has no result".into()))?;
    let row_line = result
        .get("row")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad("corpus result has no row".into()))?;
    let row = CorpusRow::parse_line(row_line)?;
    if row.index != entry.index {
        return Err(bad(format!(
            "row index {} does not match entry {}",
            row.index, entry.index
        )));
    }
    let rendered = result
        .get("points")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| bad("corpus result has no points".into()))?;
    let mut points = Vec::with_capacity(rendered.len());
    for p in rendered {
        let text = p
            .as_str()
            .ok_or_else(|| bad("corpus points must be strings".into()))?;
        points.push(point_from_line(text)?);
    }
    Ok((row, points))
}

/// Runs the `G` sweep on one entry and reduces it to a row plus its
/// design points. The sweep is [`crate::explore()`]'s: one search per
/// weight, one batched replay walk for all winners, then each search's
/// verification. The points are the initial design (`"<name>
/// initial"`) and one point per weight (`"<name> G=<g>"`); the row's
/// search/hardware columns come from the weight whose chosen design
/// has the lowest energy (ties broken toward the earlier weight).
///
/// Public because the serve daemon's `corpus` command evaluates
/// through this exact function — the distributed client's byte-
/// identity to local runs rests on both paths sharing it. Only
/// `options.base` and `options.g_sweep` matter here (each search runs
/// at `threads = 1`; the sweep's own parallelism is the engine's
/// thread count); the chunk/journal knobs are the runner's.
pub fn evaluate_corpus_entry(
    engine: &Engine,
    entry: &CorpusEntry,
    options: &CorpusOptions,
) -> Result<(CorpusRow, Vec<DesignPoint>), CorepartError> {
    let name = sanitize(&entry.name);
    let base = options.base.clone().with_threads(1);
    let mut configs = Vec::with_capacity(options.g_sweep.len());
    for &g in &options.g_sweep {
        configs.push((
            format!("{name} G={g}"),
            base.clone().with_factors(base.factor_f, g),
        ));
    }
    let sweep = sweep(engine, &entry.app, &entry.workload, &configs)?;
    let points = sweep.points(&format!("{name} initial"), &configs);

    // Ties go to the earlier weight: `min_by` keeps the first minimum.
    let (point, outcome) = points[1..]
        .iter()
        .zip(&sweep.outcomes)
        .min_by(|(a, _), (b, _)| a.energy.joules().total_cmp(&b.energy.joules()))
        .expect("g_sweep validated non-empty");
    let hw_clusters = outcome
        .best
        .as_ref()
        .map_or(&[][..], |(p, _)| &p.clusters[..]);
    let hw_blocks = cluster_blocks(&sweep.prepared, hw_clusters.iter().copied()).len() as u32;
    let chain = &sweep.prepared.chain;
    let initial = &sweep.outcomes[0].initial;
    let row = CorpusRow {
        index: entry.index,
        seed: entry.seed,
        name,
        clusters: chain.len() as u32,
        loop_clusters: chain.iter().filter(|c| c.is_loop()).count() as u32,
        loop_depth: entry.features.loop_depth,
        array_bytes: entry.features.array_bytes,
        stmts: entry.features.stmts,
        candidates: outcome.search.candidates as u32,
        estimated: outcome.search.estimated as u32,
        growth_steps: outcome.search.growth_steps as u32,
        verifications: outcome.search.verifications as u32,
        hw_clusters: hw_clusters.len() as u32,
        hw_blocks,
        geq_cells: point.geq.cells(),
        initial_j: initial.total_energy().joules(),
        best_j: point.energy.joules(),
        saving_pct: outcome.energy_saving_percent().unwrap_or(0.0),
        initial_cycles: initial.total_cycles().count(),
        best_cycles: point.cycles.count(),
        time_pct: outcome.time_change_percent().unwrap_or(0.0),
    };
    Ok((row, points))
}

#[cfg(test)]
mod tests {
    use super::*;
    use corepart_ir::parser::parse;
    use corepart_tech::units::{Cycles, Energy};

    #[test]
    fn source_features_count_depth_and_footprint() {
        let program = parse(
            r#"app feat; var a[16]; var b[8];
            func main() {
                var s = 0;
                for (var i = 0; i < 4; i = i + 1) {
                    if (s < 3) {
                        for (var j = 0; j < 4; j = j + 1) { s = s + a[j]; }
                    }
                }
                return s;
            }"#,
        )
        .expect("parses");
        let f = source_features(&program);
        assert_eq!(f.loop_depth, 2);
        assert_eq!(f.array_bytes, (16 + 8) * WORD_BYTES);
        // var, for, if, inner for, inner assign, outer return = 6.
        assert_eq!(f.stmts, 6);
    }

    #[test]
    fn row_line_round_trips_bit_exactly() {
        let row = CorpusRow {
            index: 3,
            seed: 0x9e3779b97f4a7c15,
            name: "gen three".into(),
            clusters: 4,
            loop_clusters: 2,
            loop_depth: 3,
            array_bytes: 256,
            stmts: 17,
            candidates: 2,
            estimated: 10,
            growth_steps: 1,
            verifications: 3,
            hw_clusters: 1,
            hw_blocks: 5,
            geq_cells: 12_345,
            initial_j: 1.234e-5,
            best_j: 0.1 + 0.2, // deliberately non-representable
            saving_pct: -0.0,
            initial_cycles: 987_654,
            best_cycles: 123,
            time_pct: f64::MIN_POSITIVE,
        };
        let parsed = CorpusRow::parse_line(&row.to_line()).expect("round-trips");
        // `name` is sanitized on render.
        assert_eq!(parsed.name, "gen_three");
        assert_eq!(parsed.best_j.to_bits(), row.best_j.to_bits());
        assert_eq!(parsed.saving_pct.to_bits(), row.saving_pct.to_bits());
        assert_eq!(parsed.time_pct.to_bits(), row.time_pct.to_bits());
        assert_eq!(parsed.to_line(), row.to_line());
        assert!(CorpusRow::parse_line("1\t2\t3").is_err());
    }

    #[test]
    fn journal_points_round_trip() {
        let p = DesignPoint {
            label: "gen7 G=0.2".into(),
            energy: Energy::from_joules(0.30000000000000004),
            cycles: Cycles::new(42),
            geq: GateEq::new(7),
            saving_percent: 33.3333333333,
            is_initial: false,
        };
        let line = point_to_line(&p);
        let cells: Vec<&str> = line.split('\t').skip(1).collect();
        let back = point_from_cells(&cells).expect("parses");
        assert_eq!(back.label, "gen7_G=0.2");
        assert_eq!(back.energy.joules().to_bits(), p.energy.joules().to_bits());
        assert_eq!(back.cycles, p.cycles);
        assert!(point_from_cells(&cells[..3]).is_err());
    }

    #[test]
    fn feature_stats_bucket_and_average() {
        let mut base = CorpusRow::parse_line(
            "0\t0\tx\t1\t1\t1\t96\t5\t1\t1\t0\t1\t1\t2\t10\t1\t0.5\t50\t100\t90\t-10",
        )
        .expect("template row");
        base.array_bytes = 96;
        let mut other = base.clone();
        other.index = 1;
        other.saving_pct = 70.0;
        other.loop_depth = 2;
        let stats = feature_stats(&[base, other]);
        let depth1 = stats
            .iter()
            .find(|s| s.feature == "loop_depth" && s.bucket == 1)
            .expect("bucket exists");
        assert_eq!(depth1.apps, 1);
        assert_eq!(depth1.mean_saving_pct, 50.0);
        let fp = stats
            .iter()
            .find(|s| s.feature == "array_bytes")
            .expect("footprint bucketed");
        assert_eq!(fp.bucket, 128, "rounded up to a power of two");
        let depth2 = stats
            .iter()
            .find(|s| s.feature == "loop_depth" && s.bucket == 2)
            .expect("bucket exists");
        assert_eq!(depth2.max_saving_pct, 70.0);
    }

    #[test]
    fn options_validation_rejects_degenerate_runs() {
        let options = CorpusOptions::new(SystemConfig::new());
        assert!(options.validate(0).is_err());
        let mut zero_chunk = options.clone();
        zero_chunk.chunk = 0;
        assert!(zero_chunk.validate(10).is_err());
        let mut no_sweep = options.clone();
        no_sweep.g_sweep.clear();
        assert!(no_sweep.validate(10).is_err());
        assert!(options.validate(10).is_ok());
    }
}
