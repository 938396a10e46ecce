//! `corepart serve` — a long-lived partitioning daemon speaking
//! JSON lines over TCP (`std::net` only, no dependencies).
//!
//! # Protocol
//!
//! One request per line, one response line per request, in request
//! order (clients may pipeline: many requests in flight on one
//! connection; a request carrying `"ordered":false` opts out of
//! ordering and is answered — matched by `id` — the moment its shard
//! finishes):
//!
//! ```text
//! {"id":1,"cmd":"partition","source":"app d; ...","arrays":{"x":[1,2]}}
//! {"id":2,"cmd":"explore","source":"...","weights":[0.0,1.0]}
//! {"id":3,"cmd":"verify","source":"...","clusters":[0],"set_index":2}
//! {"id":4,"cmd":"corpus","source":"...","weights":[0.0,1.0],"index":7,"seed":"9","name":"gen7"}
//! {"id":5,"cmd":"stats"}
//! {"id":6,"cmd":"shutdown"}
//! ```
//!
//! Compute requests may override the searchable knobs (`n_max`,
//! `factor_f`, `factor_g`) per request, and may name an optional
//! `operating_point` (`{"node_nm":180,"vdd":1.8}`) resolved against the
//! base configuration's node-scaling table — the answer then carries an
//! extra `operating_point` member with the designs re-weighed to that
//! point (simulation still runs once, at the base process); everything
//! else comes from the daemon's base configuration. Responses are
//!
//! ```text
//! {"id":1,"ok":true,"cmd":"partition","result":{...},"stats":{...}}
//! {"id":9,"ok":false,"error":{"kind":"ir","message":"..."}}
//! ```
//!
//! where `result` is *deterministic* — byte-identical to what a fresh
//! in-process [`Engine`] produces for the same request (see
//! [`respond_fresh`]; the conformance oracle compares the two) — and
//! `stats` is advisory (shard, store hit, latency, session counters).
//! Determinism lets the store memoize the rendered `result` per exact
//! request: a repeat is answered from the memo without re-running the
//! search, and its `stats` then carries no `session` counters (no
//! fresh session produced any).
//! Error kinds mirror [`CorepartError`]: `ir`, `sim`, `sched`,
//! `config`, plus `request` for lines the protocol itself rejects and
//! `too_large` for a line longer than [`MAX_LINE_BYTES`] (the daemon
//! then closes that connection). A line that is not UTF-8 is a
//! `request` error like any malformed line, and so is an integer of
//! magnitude 2^53 or more (`id`, array elements and the other integer
//! fields): past that bound a JSON number no longer parses to itself,
//! so the request would silently compute on other values. A
//! failing request never poisons the store: parse errors are answered
//! before the store is touched, and deeper failures are memoized
//! error values that later identical requests replay.
//!
//! # Threading
//!
//! [`Server::spawn`] starts one worker thread per store shard plus an
//! accept loop; each connection gets a reader thread and a writer
//! thread. The reader parses each line and answers `stats`/`shutdown`
//! inline. For a compute request it builds the result key once (the
//! routing fingerprint comes out of the same pass) and looks it up in
//! the result memo itself: a hit is answered on the spot and goes
//! straight to the writer, with `queue_nanos` 0 and the lookup as
//! `compute_nanos`, so it never waits behind a cold compute in a shard
//! queue. Only a miss is routed to its shard's worker (by
//! [`request_fingerprint`]), carrying the key, and the worker checks
//! the memo again with it, so a duplicate queued behind its first copy
//! still hits. The writer moves the lines its `Outbox` hands back onto
//! the socket. The outbox decides the order: responses leave in request
//! order, except that an `"ordered":false` response leaves the moment
//! it is answered, by the reader or a worker; an ordered response still
//! waits for every earlier request, unordered ones included. One
//! worker per shard means the hot artifact-lookup path never contends
//! on a global lock — see [`ArtifactStore`].

use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;
use std::hash::Hasher;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use corepart_ir::ast::Program;
use corepart_ir::cdfg::Application;
use corepart_ir::cluster::ClusterId;
use corepart_ir::lower::lower;
use corepart_ir::parser::parse;

use crate::corpus::{evaluate_corpus_entry, point_to_line, source_features, CorpusEntry};
use crate::engine::{identity, Engine, Fnv64, SessionStats};
use crate::error::CorepartError;
use crate::evaluate::{cluster_blocks, Partition};
use crate::explore::{explore_in, hardware_weight_sweep};
use corepart_tech::scaling::OperatingPoint;

use crate::json::{
    exploration_to_json_at, json_escape, outcome_result_json_at, parse_json, verify_result_json_at,
    JsonValue,
};
use crate::partition::Partitioner;
use crate::prepare::Workload;
use crate::store::{ArtifactStore, RequestStats, ResultKey, StoreOptions, StoreStats};
use crate::system::SystemConfig;

/// The default listen port (0 binds an ephemeral port).
pub const DEFAULT_PORT: u16 = 4860;

/// The default `explore` sweep over objective hardware weights
/// (factor G), from "hardware is free" to "hardware is precious" —
/// used when an explore request names no `weights`.
pub const EXPLORE_WEIGHTS: [f64; 7] = [0.0, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0];

/// The longest request line the daemon reads, newline excluded. A
/// longer line, or one that never ends, is answered with a typed
/// `too_large` error and its connection is closed, so no connection
/// buffers more than this.
pub const MAX_LINE_BYTES: usize = 8 << 20;

/// Construction knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// TCP port on 127.0.0.1 (0 = ephemeral; see [`Server::addr`]).
    pub port: u16,
    /// Store shards (= warm engines = worker threads).
    pub shards: usize,
    /// Store-wide artifact byte budget.
    pub budget_bytes: u64,
    /// Verification threads per served session (0 = automatic) — the
    /// lane groups a batched replay is split into.
    pub threads: usize,
    /// Maximum simultaneous client connections (0 = unlimited).
    /// Over-cap connects are answered with one `busy` error line and
    /// closed gracefully, after at most 50 ms of draining the client.
    pub max_connections: usize,
    /// Per-request wall-clock timeout in milliseconds (0 = none). A
    /// request past its deadline is answered with a `timeout` error;
    /// its compute still finishes on the shard worker (and is
    /// memoized), so the engine is never poisoned mid-flight.
    pub request_timeout_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let store = StoreOptions::default();
        ServeOptions {
            port: DEFAULT_PORT,
            shards: store.shards,
            budget_bytes: store.budget_bytes,
            threads: 0,
            max_connections: 0,
            request_timeout_ms: 0,
        }
    }
}

/// The four compute commands of the serve protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputeKind {
    /// Run the full design flow (`outcome_result_json_at` payload).
    Partition,
    /// Sweep the hardware weight (`exploration_to_json_at` payload).
    Explore,
    /// Evaluate one explicit partition (`verify_result_json_at` payload).
    Verify,
    /// Evaluate one corpus entry — the `G` sweep reduced to a results
    /// row plus its design points (the distributed corpus client's
    /// request; `weights` carries the sweep).
    Corpus,
}

impl ComputeKind {
    /// The protocol's `cmd` string.
    pub fn name(self) -> &'static str {
        match self {
            ComputeKind::Partition => "partition",
            ComputeKind::Explore => "explore",
            ComputeKind::Verify => "verify",
            ComputeKind::Corpus => "corpus",
        }
    }
}

/// Corpus-entry metadata a `corpus` request carries verbatim into its
/// results row (the server recomputes everything else from `source`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusMeta {
    /// The entry's corpus index.
    pub index: u64,
    /// The deterministic per-entry seed.
    pub seed: u64,
    /// The entry name.
    pub name: String,
}

/// One parsed compute request.
#[derive(Debug, Clone)]
pub struct ComputeRequest {
    /// Client-chosen request id, echoed in the response.
    pub id: Option<u64>,
    /// Which command to run.
    pub kind: ComputeKind,
    /// BDL source text of the application.
    pub source: String,
    /// Workload arrays, `(name, contents)`.
    pub arrays: Vec<(String, Vec<i64>)>,
    /// Override of the configured cluster-count bound.
    pub n_max: Option<usize>,
    /// Override of objective factor F.
    pub factor_f: Option<f64>,
    /// Override of objective factor G.
    pub factor_g: Option<f64>,
    /// Explore sweep weights (defaults to [`EXPLORE_WEIGHTS`]).
    pub weights: Option<Vec<f64>>,
    /// Clusters of the partition to verify.
    pub clusters: Vec<u32>,
    /// Designer resource set of the partition to verify.
    pub set_index: usize,
    /// Optional operating point the answer is re-weighed to (the
    /// simulation itself always runs at the base process).
    pub operating_point: Option<OperatingPoint>,
    /// Whether the response must come back in request order (the
    /// default). With `false` the client matches responses by `id`,
    /// and a pipelined connection returns each answer as soon as its
    /// shard finishes. Never part of the result memo key — ordering is
    /// transport, not content.
    pub ordered: bool,
    /// Corpus-entry metadata (`corpus` requests only).
    pub corpus: Option<CorpusMeta>,
}

impl ComputeRequest {
    /// A request with every optional knob unset (the CLI's defaults).
    pub fn new(kind: ComputeKind, source: &str) -> Self {
        ComputeRequest {
            id: None,
            kind,
            source: source.to_owned(),
            arrays: Vec::new(),
            n_max: None,
            factor_f: None,
            factor_g: None,
            weights: None,
            clusters: Vec::new(),
            set_index: 2,
            operating_point: None,
            ordered: true,
            corpus: None,
        }
    }

    /// Renders the request as one protocol line (no trailing newline) —
    /// the client half of the wire format `parse_request` reads.
    pub fn to_json(&self) -> String {
        let mut fields = Vec::new();
        if let Some(id) = self.id {
            fields.push(format!("\"id\":{id}"));
        }
        fields.push(format!("\"cmd\":\"{}\"", self.kind.name()));
        fields.push(format!("\"source\":\"{}\"", json_escape(&self.source)));
        if !self.arrays.is_empty() {
            let arrays: Vec<String> = self
                .arrays
                .iter()
                .map(|(name, data)| {
                    let items: Vec<String> = data.iter().map(|v| v.to_string()).collect();
                    format!("\"{}\":[{}]", json_escape(name), items.join(","))
                })
                .collect();
            fields.push(format!("\"arrays\":{{{}}}", arrays.join(",")));
        }
        if let Some(n) = self.n_max {
            fields.push(format!("\"n_max\":{n}"));
        }
        if let Some(f) = self.factor_f {
            fields.push(format!("\"factor_f\":{f}"));
        }
        if let Some(g) = self.factor_g {
            fields.push(format!("\"factor_g\":{g}"));
        }
        if let Some(w) = &self.weights {
            let items: Vec<String> = w.iter().map(|v| v.to_string()).collect();
            fields.push(format!("\"weights\":[{}]", items.join(",")));
        }
        if self.kind == ComputeKind::Verify {
            let items: Vec<String> = self.clusters.iter().map(|v| v.to_string()).collect();
            fields.push(format!("\"clusters\":[{}]", items.join(",")));
            fields.push(format!("\"set_index\":{}", self.set_index));
        }
        if let Some(p) = &self.operating_point {
            fields.push(format!(
                "\"operating_point\":{{\"node_nm\":{},\"vdd\":{}}}",
                p.node_nm, p.vdd
            ));
        }
        if let Some(meta) = &self.corpus {
            fields.push(format!("\"index\":{}", meta.index));
            // A full 64-bit case seed does not survive a float round
            // trip, so the wire carries it as a decimal string.
            fields.push(format!("\"seed\":\"{}\"", meta.seed));
            fields.push(format!("\"name\":\"{}\"", json_escape(&meta.name)));
        }
        if !self.ordered {
            fields.push("\"ordered\":false".to_owned());
        }
        format!("{{{}}}", fields.join(","))
    }
}

/// Any parsed request line.
enum Request {
    Compute(Box<ComputeRequest>),
    Stats { id: Option<u64> },
    Shutdown { id: Option<u64> },
}

fn opt_u64(v: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer below 2^53")),
    }
}

fn opt_f64(v: &JsonValue, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(x) => x
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a number")),
    }
}

/// Parses one request line.
fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse_json(line)?;
    if !matches!(v, JsonValue::Obj(_)) {
        return Err("request must be a JSON object".into());
    }
    let id = opt_u64(&v, "id")?;
    let cmd = v
        .get("cmd")
        .and_then(JsonValue::as_str)
        .ok_or("request needs a string `cmd`")?;
    let kind = match cmd {
        "stats" => return Ok(Request::Stats { id }),
        "shutdown" => return Ok(Request::Shutdown { id }),
        "partition" => ComputeKind::Partition,
        "explore" => ComputeKind::Explore,
        "verify" => ComputeKind::Verify,
        "corpus" => ComputeKind::Corpus,
        other => return Err(format!("unknown cmd `{other}`")),
    };
    let source = v
        .get("source")
        .and_then(JsonValue::as_str)
        .ok_or("compute requests need a string `source`")?;
    let mut req = ComputeRequest::new(kind, source);
    req.id = id;
    if let Some(arrays) = v.get("arrays") {
        let JsonValue::Obj(entries) = arrays else {
            return Err("`arrays` must be an object of integer arrays".into());
        };
        for (name, value) in entries {
            let items = value
                .as_array()
                .ok_or_else(|| format!("array `{name}` must be a JSON array"))?;
            let mut data = Vec::with_capacity(items.len());
            for item in items {
                let x = item
                    .as_i64()
                    .ok_or_else(|| format!("array `{name}` must hold integers below 2^53"))?;
                data.push(x);
            }
            req.arrays.push((name.clone(), data));
        }
    }
    req.n_max = opt_u64(&v, "n_max")?.map(|n| n as usize);
    req.factor_f = opt_f64(&v, "factor_f")?;
    req.factor_g = opt_f64(&v, "factor_g")?;
    if let Some(weights) = v.get("weights") {
        let items = weights
            .as_array()
            .ok_or("`weights` must be an array of numbers")?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(
                item.as_f64()
                    .ok_or("`weights` must be an array of numbers")?,
            );
        }
        req.weights = Some(out);
    }
    if let Some(clusters) = v.get("clusters") {
        let items = clusters
            .as_array()
            .ok_or("`clusters` must be an array of cluster ids")?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let id = item
                .as_u64()
                .filter(|&x| x <= u64::from(u32::MAX))
                .ok_or("`clusters` must be an array of cluster ids")?;
            out.push(id as u32);
        }
        req.clusters = out;
    }
    if let Some(set) = opt_u64(&v, "set_index")? {
        req.set_index = set as usize;
    }
    match v.get("operating_point") {
        None | Some(JsonValue::Null) => {}
        Some(point) => {
            let bad = "`operating_point` must be {\"node_nm\":<int>,\"vdd\":<number>}";
            if !matches!(point, JsonValue::Obj(_)) {
                return Err(bad.into());
            }
            let node_nm = point
                .get("node_nm")
                .and_then(JsonValue::as_u64)
                .filter(|&n| n <= u64::from(u32::MAX))
                .ok_or(bad)?;
            let vdd = point.get("vdd").and_then(JsonValue::as_f64).ok_or(bad)?;
            req.operating_point = Some(OperatingPoint {
                node_nm: node_nm as u32,
                vdd,
            });
        }
    }
    match v.get("ordered") {
        None | Some(JsonValue::Null) => {}
        Some(JsonValue::Bool(b)) => req.ordered = *b,
        Some(_) => return Err("`ordered` must be a boolean".into()),
    }
    if kind == ComputeKind::Corpus {
        let index = opt_u64(&v, "index")?.ok_or("corpus requests need an `index`")?;
        let seed_value = v
            .get("seed")
            .ok_or_else(|| "corpus requests need a `seed`".to_string())?;
        let seed = match seed_value.as_str() {
            // The canonical wire format: a decimal string, because a
            // full 64-bit seed does not survive a float round trip.
            Some(text) => text
                .parse::<u64>()
                .map_err(|_| format!("`seed` must be a decimal u64, got '{text}'"))?,
            None => seed_value
                .as_u64()
                .ok_or_else(|| "`seed` must be a decimal string or integer".to_string())?,
        };
        let name = v
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("corpus requests need a string `name`")?;
        req.corpus = Some(CorpusMeta {
            index,
            seed,
            name: name.to_owned(),
        });
        if req.weights.as_ref().is_none_or(Vec::is_empty) {
            return Err("corpus requests need a non-empty `weights` G sweep".into());
        }
    }
    Ok(req.into())
}

impl From<ComputeRequest> for Request {
    fn from(req: ComputeRequest) -> Self {
        Request::Compute(Box::new(req))
    }
}

/// The shard-routing fingerprint of a compute request: FNV-64 of the
/// raw source and array text (`source`, then `\0name=v,v,…,` per
/// array), streamed without building that text, so routing needs no
/// parse. Two requests with identical text always share a shard (and
/// therefore its warm artifacts); texts that merely normalize to the
/// same application may land apart, though their engine pool keys (the
/// lowered content identity) would agree. The connection reader takes
/// it from the same pass that builds the request's result-memo key.
pub fn request_fingerprint(req: &ComputeRequest) -> u64 {
    result_key(req).fingerprint
}

/// Parses and lowers a request's source, keeping the parsed program
/// for the corpus features.
fn parse_app(source: &str) -> Result<(Program, Application), CorepartError> {
    let program = parse(source)?;
    let app = lower(&program)?;
    Ok((program, app))
}

/// The per-request configuration: the daemon base with the request's
/// searchable-knob overrides applied.
fn effective_config(base: &SystemConfig, req: &ComputeRequest) -> SystemConfig {
    let mut config = base.clone();
    if let Some(n) = req.n_max {
        config.n_max = n;
    }
    if let Some(f) = req.factor_f {
        config.factor_f = f;
    }
    if let Some(g) = req.factor_g {
        config.factor_g = g;
    }
    if let Some(p) = req.operating_point {
        config.operating_point = Some(p);
    }
    config
}

type ComputeOutput = (String, Option<SessionStats>);

/// Runs one compute request against `engine` and renders the
/// deterministic `result` payload. Shared verbatim by the warm
/// ([`respond_compute`]) and fresh ([`respond_fresh`]) paths — the
/// byte-identity guarantee lives here.
fn compute_result(
    engine: &Engine,
    req: &ComputeRequest,
    program: &Program,
    app: &Application,
    workload: &Workload,
    config: SystemConfig,
) -> Result<ComputeOutput, CorepartError> {
    // Resolve the operating point first: an unknown node or an
    // out-of-range vdd is a `config` error before any simulation runs.
    let point = config.resolved_point()?;
    match req.kind {
        ComputeKind::Partition => {
            let session = engine.session_with_config(app, workload, config)?;
            let outcome = Partitioner::new(&session)?.run()?;
            Ok((
                outcome_result_json_at(app.name(), &outcome, point.as_ref()),
                Some(session.stats()),
            ))
        }
        ComputeKind::Verify => {
            if req.clusters.is_empty() {
                return Err(CorepartError::Config {
                    message: "verify needs at least one cluster".into(),
                });
            }
            let set = config.resource_set(req.set_index)?.clone();
            let session = engine.session_with_config(app, workload, config)?;
            let chain_len = session.prepared()?.chain.len();
            for &cid in &req.clusters {
                if cid as usize >= chain_len {
                    return Err(CorepartError::Config {
                        message: format!(
                            "cluster {cid} out of range (the chain has {chain_len} clusters)"
                        ),
                    });
                }
            }
            let partition = Partition {
                clusters: req.clusters.iter().map(|&c| ClusterId(c)).collect(),
                set,
            };
            let detail = Partitioner::new(&session)?.evaluate(&partition)?;
            Ok((
                verify_result_json_at(app.name(), &partition, &detail, point.as_ref()),
                Some(session.stats()),
            ))
        }
        ComputeKind::Explore => {
            let weights = req
                .weights
                .clone()
                .unwrap_or_else(|| EXPLORE_WEIGHTS.to_vec());
            let configs = hardware_weight_sweep(&weights, &config);
            let ex = explore_in(engine, app, workload, &configs)?;
            Ok((exploration_to_json_at(&ex, point.as_ref()), None))
        }
        ComputeKind::Corpus => {
            let meta = req.corpus.as_ref().ok_or_else(|| CorepartError::Config {
                message: "corpus requests need entry metadata".into(),
            })?;
            let g_sweep = req
                .weights
                .clone()
                .filter(|w| !w.is_empty())
                .ok_or_else(|| CorepartError::Config {
                    message: "corpus requests need a non-empty `weights` G sweep".into(),
                })?;
            // The corpus evaluation never re-weighs to an operating
            // point (points are re-weighed downstream, never during
            // search), so the knob is stripped — a pointed request
            // still answers bit-identically to an unpointed one.
            let mut base = config;
            base.operating_point = None;
            let mut options = crate::corpus::CorpusOptions::new(base);
            options.g_sweep = g_sweep;
            let entry = CorpusEntry {
                index: meta.index,
                seed: meta.seed,
                name: meta.name.clone(),
                source: req.source.clone(),
                app: app.clone(),
                workload: workload.clone(),
                features: source_features(program),
            };
            let (row, points) = evaluate_corpus_entry(engine, &entry, &options)?;
            let rendered: Vec<String> = points
                .iter()
                .map(|p| format!("\"{}\"", json_escape(&point_to_line(p))))
                .collect();
            Ok((
                format!(
                    "{{\"row\":\"{}\",\"points\":[{}]}}",
                    json_escape(&row.to_line()),
                    rendered.join(",")
                ),
                None,
            ))
        }
    }
}

fn id_json(id: Option<u64>) -> String {
    id.map_or_else(|| "null".to_owned(), |i| i.to_string())
}

fn session_stats_json(s: &SessionStats) -> String {
    format!(
        concat!(
            "{{\"prepare_shared\":{},\"baseline_shared\":{},",
            "\"schedule_cache_hits\":{},\"schedule_cache_misses\":{},",
            "\"replays\":{},\"replay_hits\":{},",
            "\"batched_replays\":{}}}"
        ),
        s.prepare_shared,
        s.baseline_shared,
        s.schedule_cache_hits,
        s.schedule_cache_misses,
        s.replays,
        s.replay_hits,
        s.batched_replays,
    )
}

/// A success line; `timing` is the `(queue, compute)` nanosecond split
/// of a served request, last in its `stats`.
fn success_response(
    req: &ComputeRequest,
    result: &str,
    request: Option<&RequestStats>,
    session: Option<SessionStats>,
    timing: Option<(u64, u64)>,
) -> String {
    let mut stats = Vec::new();
    match request {
        Some(r) => {
            stats.push(format!("\"shard\":{}", r.shard));
            stats.push(format!("\"store_hit\":{}", r.store_hit));
            stats.push(format!("\"elapsed_nanos\":{}", r.elapsed_nanos));
        }
        None => {
            stats.push("\"shard\":null".to_owned());
            stats.push("\"store_hit\":false".to_owned());
        }
    }
    if let Some(s) = session {
        stats.push(format!("\"session\":{}", session_stats_json(&s)));
    }
    if let Some((queue_nanos, compute_nanos)) = timing {
        stats.push(format!(
            "\"queue_nanos\":{queue_nanos},\"compute_nanos\":{compute_nanos}"
        ));
    }
    format!(
        "{{\"id\":{},\"ok\":true,\"cmd\":\"{}\",\"result\":{},\"stats\":{{{}}}}}",
        id_json(req.id),
        req.kind.name(),
        result,
        stats.join(","),
    )
}

fn error_kind(e: &CorepartError) -> &'static str {
    match e {
        CorepartError::Ir(_) => "ir",
        CorepartError::Sim(_) => "sim",
        CorepartError::Sched(_) => "sched",
        CorepartError::Config { .. } => "config",
    }
}

fn error_response_kind(id: Option<u64>, kind: &str, message: &str) -> String {
    format!(
        "{{\"id\":{},\"ok\":false,\"error\":{{\"kind\":\"{}\",\"message\":\"{}\"}}}}",
        id_json(id),
        kind,
        json_escape(message),
    )
}

fn error_response(id: Option<u64>, e: &CorepartError) -> String {
    error_response_kind(id, error_kind(e), &e.to_string())
}

fn latency_json(l: &crate::store::LatencyStats) -> String {
    format!(
        "{{\"count\":{},\"p50_nanos\":{},\"p95_nanos\":{},\"p99_nanos\":{}}}",
        l.count, l.p50_nanos, l.p95_nanos, l.p99_nanos,
    )
}

/// Renders a [`StoreStats`] snapshot as the `stats` command's response.
pub fn stats_response(store: &ArtifactStore, id: Option<u64>) -> String {
    let s: StoreStats = store.stats();
    let shards: Vec<String> = s
        .shards
        .iter()
        .map(|sh| {
            format!(
                concat!(
                    "{{\"requests\":{},\"hits\":{},\"evictions\":{},",
                    "\"declined\":{},\"entries\":{},\"bytes\":{},",
                    "\"depth\":{},\"depth_max\":{}}}"
                ),
                sh.requests,
                sh.hits,
                sh.evictions,
                sh.declined,
                sh.entries,
                sh.bytes,
                sh.depth,
                sh.depth_max,
            )
        })
        .collect();
    let pipeline = format!(
        concat!(
            "{{\"queue_wait_nanos\":{},\"compute_nanos\":{},",
            "\"coalesced\":{{\"k1\":{},\"k2_4\":{},\"k5_16\":{}}}}}"
        ),
        s.pipeline.queue_wait_nanos,
        s.pipeline.compute_nanos,
        s.pipeline.coalesced_k1,
        s.pipeline.coalesced_k2_4,
        s.pipeline.coalesced_k5_16,
    );
    format!(
        concat!(
            "{{\"id\":{},\"ok\":true,\"cmd\":\"stats\",\"result\":",
            "{{\"budget_bytes\":{},\"bytes\":{},\"requests\":{},\"hits\":{},",
            "\"hit_rate\":{},\"evictions\":{},\"declined\":{},",
            "\"latency\":{},\"pipeline\":{},\"shards\":[{}]}}}}"
        ),
        id_json(id),
        s.budget_bytes,
        s.bytes,
        s.requests,
        s.hits,
        s.hit_rate(),
        s.evictions,
        s.declined,
        latency_json(&s.latency),
        pipeline,
        shards.join(","),
    )
}

/// The store's result-memo key of a request, built in one pass over its
/// text. The key text is the request's whole content — every field but
/// `id` and `ordered`, which are transport — spelled out exactly. The
/// deterministic `result` is a function of this content, so requests
/// with equal keys get byte-identical answers and the store may serve a
/// repeat from its memo before parsing the source at all. No hash
/// stands in for content (a collision would serve another request's
/// answer): every field but the source is self-delimiting — `Debug`
/// quotes and escapes strings, and the array count comes first — and
/// the source comes last, so distinct requests never share a key text.
///
/// Each array's elements are formatted in decimal once, and that text
/// feeds both the key text and the routing fingerprint
/// ([`request_fingerprint`]'s definition). The ledger bucket hashes the
/// fingerprint and the knob fields before the arrays, so requests
/// that differ only in their knobs (verifies of one app) spread over
/// buckets.
fn result_key(req: &ComputeRequest) -> ResultKey {
    let mut text = format!(
        "{}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{:?}|{:?}|{}",
        req.kind.name(),
        req.n_max,
        req.factor_f,
        req.factor_g,
        req.weights,
        req.clusters,
        req.set_index,
        req.operating_point,
        req.corpus,
        req.arrays.len(),
    );
    let knobs = text.len();
    let mut route = Fnv64::default();
    route.write(req.source.as_bytes());
    for (name, data) in &req.arrays {
        let _ = write!(route, "\0{name}=");
        let _ = write!(text, "|{name:?}=");
        let digits = text.len();
        for &v in data {
            push_decimal(&mut text, v);
            text.push(',');
        }
        route.write(&text.as_bytes()[digits..]);
    }
    text.push('|');
    text.push_str(&req.source);
    let fingerprint = route.finish();
    let mut bucket = Fnv64::default();
    bucket.write_u64(fingerprint);
    bucket.write(&text.as_bytes()[..knobs]);
    ResultKey {
        fingerprint,
        bucket: bucket.finish(),
        text,
    }
}

/// Appends `v` in decimal, as `v.to_string()` spells it.
fn push_decimal(out: &mut String, v: i64) {
    let mut digits = [0u8; 20];
    let mut rest = v.unsigned_abs();
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if v < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Answers one compute request from the warm store.
pub fn respond_compute(store: &ArtifactStore, req: &ComputeRequest) -> String {
    answer_compute(store, req, &result_key(req), None)
}

/// [`respond_compute`] for a request whose key is already built. A
/// memoized answer is returned before the source is parsed; only a miss
/// parses, lowers and computes. `enqueued` is a routed job's enqueue
/// time: its queue-wait/compute split is counted in the store and
/// stamped last in a success line's `stats` (an error line stays
/// byte-identical to [`respond_fresh`]'s).
fn answer_compute(
    store: &ArtifactStore,
    req: &ComputeRequest,
    key: &ResultKey,
    enqueued: Option<Instant>,
) -> String {
    let started = Instant::now();
    let split = || {
        let queue_nanos = started.duration_since(enqueued?).as_nanos() as u64;
        let compute_nanos = started.elapsed().as_nanos() as u64;
        store.note_request_split(queue_nanos, compute_nanos);
        Some((queue_nanos, compute_nanos))
    };
    if let Some((result, rstats)) = store.memoized_result(key) {
        return success_response(req, &result, Some(&rstats), None, split());
    }
    let (program, app) = match parse_app(&req.source) {
        Ok(parsed) => parsed,
        Err(e) => {
            split();
            return error_response(req.id, &e);
        }
    };
    let workload = Workload::from_arrays(req.arrays.clone());
    let config = effective_config(store.base_config(), req);
    let identity = identity(&app, &workload);
    let (outcome, rstats) = store.compute_and_memoize(identity, key, |engine| {
        compute_result(engine, req, &program, &app, &workload, config)
    });
    let timing = split();
    match outcome {
        Ok((result, session)) => success_response(req, &result, Some(&rstats), session, timing),
        Err(e) => error_response(req.id, &e),
    }
}

/// The connection reader's memo lookup: a hit is answered on the spot,
/// with no shard queue (`queue_nanos` 0, `compute_nanos` the lookup).
/// A miss changes nothing.
fn answer_hit(store: &ArtifactStore, req: &ComputeRequest, key: &ResultKey) -> Option<String> {
    let started = Instant::now();
    let (result, rstats) = store.memoized_result(key)?;
    let compute_nanos = started.elapsed().as_nanos() as u64;
    store.note_request_split(0, compute_nanos);
    let timing = Some((0, compute_nanos));
    Some(success_response(req, &result, Some(&rstats), None, timing))
}

/// Answers one compute request from a fresh, throwaway [`Engine`] —
/// the oracle the served (warm) path must byte-match on the `result`
/// field (the `stats` field legitimately differs).
pub fn respond_fresh(base: &SystemConfig, req: &ComputeRequest) -> String {
    let (program, app) = match parse_app(&req.source) {
        Ok(parsed) => parsed,
        Err(e) => return error_response(req.id, &e),
    };
    let workload = Workload::from_arrays(req.arrays.clone());
    let config = effective_config(base, req);
    let engine = match Engine::new(base.clone()) {
        Ok(engine) => engine,
        Err(e) => return error_response(req.id, &e),
    };
    match compute_result(&engine, req, &program, &app, &workload, config) {
        Ok((result, session)) => success_response(req, &result, None, session, None),
        Err(e) => error_response(req.id, &e),
    }
}

/// Answers one request line against `store`. Returns the response line
/// (no trailing newline) and whether the line was a shutdown request.
/// This is the whole protocol — the TCP layer only moves lines; tests
/// and in-process clients may call it directly.
pub fn handle_line(store: &ArtifactStore, line: &str) -> (String, bool) {
    match dispatch(store, parse_request(line)) {
        Ok(req) => (respond_compute(store, &req), false),
        Err(answer) => answer,
    }
}

/// The one dispatch shared by [`handle_line`] and the connection
/// reader: a compute request comes back for its shard (`Ok`); `stats`,
/// `shutdown` and lines the protocol rejects are answered at once
/// (`Err`, the response and whether it is a shutdown).
fn dispatch(
    store: &ArtifactStore,
    parsed: Result<Request, String>,
) -> Result<Box<ComputeRequest>, (String, bool)> {
    match parsed {
        Ok(Request::Compute(req)) => Ok(req),
        Ok(Request::Stats { id }) => Err((stats_response(store, id), false)),
        Ok(Request::Shutdown { id }) => Err((shutdown_response(id), true)),
        Err(message) => Err((error_response_kind(None, "request", &message), false)),
    }
}

fn shutdown_response(id: Option<u64>) -> String {
    format!(
        "{{\"id\":{},\"ok\":true,\"cmd\":\"shutdown\",\"result\":null}}",
        id_json(id)
    )
}

/// One routed compute job: the parsed request, the result key the
/// reader built for it (its routing fingerprint included), its
/// connection-local sequence number, and the reply slot into the
/// connection's writer.
struct Job {
    seq: u64,
    req: Box<ComputeRequest>,
    key: ResultKey,
    enqueued: Instant,
    reply: mpsc::Sender<WriterMsg>,
}

/// Messages into a connection's writer thread.
enum WriterMsg {
    /// The reader announces every request's slot in sequence order:
    /// waiting for a compute request it routed, ready for one it
    /// answered itself (stats, shutdown, a rejected or too-large line).
    Announce { seq: u64, slot: Slot },
    /// A compute request the reader answered itself from the result
    /// memo, announced in sequence order like any slot: an ordered one
    /// waits for its turn, an `"ordered":false` one leaves at once.
    Answered {
        seq: u64,
        ordered: bool,
        response: String,
    },
    /// A shard worker's response to compute request `seq`.
    Done { seq: u64, response: String },
}

/// How many queued jobs one worker drain inspects for coalescing —
/// also the widest verify batch one drain can form (the PR 5/6 kernel
/// peaks around K=16).
const MAX_DRAIN: usize = 16;

/// One shard worker: drain the queue, coalesce same-trace verifies
/// into one batched replay prewarm, then answer every job through the
/// unchanged solo compute path (whose responses are byte-identical to
/// serial serving — the prewarm only populates memos the solo path
/// reads).
fn worker_loop(store: &ArtifactStore, shard: usize, rx: &mpsc::Receiver<Job>) {
    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        while batch.len() < MAX_DRAIN {
            match rx.try_recv() {
                Ok(job) => batch.push(job),
                Err(_) => break,
            }
        }
        coalesce_verifies(store, &batch);
        for job in batch {
            store.note_dequeued(shard);
            let response = answer_compute(store, &job.req, &job.key, Some(job.enqueued));
            let _ = job.reply.send(WriterMsg::Done {
                seq: job.seq,
                response,
            });
        }
    }
}

/// Groups the drained batch's verify requests by routing fingerprint,
/// records each group in the coalescing histogram, and prewarms every
/// group with two or more requests still to compute (a request with a
/// memoized result computes nothing; the solo computes of the others
/// settle whatever the prewarm published). The fingerprint alone keys a
/// group: a verify's walk reads only configuration fields in the
/// baseline's stage hash, which no request overrides, so verifies that
/// differ in `n_max`, F, G or the operating point share one walk.
fn coalesce_verifies(store: &ArtifactStore, batch: &[Job]) {
    let mut groups: Vec<(u64, Vec<&Job>)> = Vec::new();
    for job in batch.iter().filter(|j| j.req.kind == ComputeKind::Verify) {
        let fingerprint = job.key.fingerprint;
        match groups.iter_mut().find(|(f, _)| *f == fingerprint) {
            Some((_, group)) => group.push(job),
            None => groups.push((fingerprint, vec![job])),
        }
    }
    for (fingerprint, mut group) in groups {
        store.note_coalesced(group.len());
        if group.len() < 2 {
            continue;
        }
        group.retain(|job| !store.holds_result(&job.key));
        if group.len() >= 2 {
            prewarm_verify_group(store, fingerprint, &group);
        }
    }
}

/// Verifies a same-trace group's hardware sets as lanes of ONE
/// batched replay call, publishing each lane into the shard engine's
/// replay memo. The batch kernel is pinned bit-identical to sequential
/// verification, so the solo responses that follow (all memo hits) are
/// byte-identical to serial serving; only wall time changes. Any
/// failure here is simply skipped — the solo path recomputes (and
/// properly reports) whatever the batch could not, including memoized
/// per-lane errors.
fn prewarm_verify_group(store: &ArtifactStore, fingerprint: u64, group: &[&Job]) {
    let first = &group[0].req;
    let Ok((_, app)) = parse_app(&first.source) else {
        return;
    };
    let workload = Workload::from_arrays(first.arrays.clone());
    // The walk reads no knob a request overrides: the base config serves.
    let session = store.shard_engine(fingerprint).session(&app, &workload);
    let Ok(prepared) = session.prepared() else {
        return;
    };
    let chain_len = prepared.chain.len();
    let mut lanes: Vec<HashSet<corepart_ir::op::BlockId>> = Vec::with_capacity(group.len());
    for Job { req, .. } in group {
        if req.clusters.is_empty() || req.clusters.iter().any(|&c| c as usize >= chain_len) {
            continue;
        }
        let blocks = cluster_blocks(prepared, req.clusters.iter().map(|&c| ClusterId(c)));
        lanes.push(blocks.into_iter().collect());
    }
    if lanes.len() < 2 {
        return;
    }
    let Ok(Some(replay)) = session.replay_engine() else {
        return;
    };
    let _ = replay.verify_batch_with(session.config(), &lanes, session.threads());
}

/// A running serve daemon: the listener, one worker thread per store
/// shard, and the shared [`ArtifactStore`].
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    store: Arc<ArtifactStore>,
    shutdown: Arc<AtomicBool>,
    listener: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:{opts.port}` and starts the worker and accept
    /// threads. `opts.threads` overrides the base configuration's
    /// verification thread count, so served sessions drive the sharded
    /// batched-replay kernel.
    ///
    /// # Errors
    ///
    /// [`CorepartError::Config`] when the bind fails, the options are
    /// invalid, or a thread cannot be spawned.
    pub fn spawn(base: SystemConfig, opts: &ServeOptions) -> Result<Server, CorepartError> {
        let spawn_err = |e: std::io::Error| CorepartError::Config {
            message: format!("cannot spawn a serve thread: {e}"),
        };
        let mut config = base;
        if opts.threads != 0 {
            config.threads = opts.threads;
        }
        let store = Arc::new(ArtifactStore::new(
            config,
            &StoreOptions {
                shards: opts.shards,
                budget_bytes: opts.budget_bytes,
            },
        )?);
        let listener =
            TcpListener::bind(("127.0.0.1", opts.port)).map_err(|e| CorepartError::Config {
                message: format!("cannot bind 127.0.0.1:{}: {e}", opts.port),
            })?;
        let addr = listener.local_addr().map_err(|e| CorepartError::Config {
            message: format!("cannot resolve the listen address: {e}"),
        })?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let timeout =
            (opts.request_timeout_ms > 0).then(|| Duration::from_millis(opts.request_timeout_ms));
        let max_connections = opts.max_connections;

        let mut senders = Vec::with_capacity(store.shards());
        for shard in 0..store.shards() {
            let (tx, rx) = mpsc::channel::<Job>();
            senders.push(tx);
            let worker_store = Arc::clone(&store);
            thread::Builder::new()
                .name(format!("corepart-shard-{shard}"))
                .spawn(move || worker_loop(&worker_store, shard, &rx))
                .map_err(spawn_err)?;
        }
        let senders = Arc::new(senders);

        let accept_store = Arc::clone(&store);
        let accept_shutdown = Arc::clone(&shutdown);
        let listener_handle = thread::Builder::new()
            .name("corepart-accept".into())
            .spawn(move || {
                let active = Arc::new(AtomicUsize::new(0));
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Every response leaves in one write; without
                    // NODELAY, Nagle would hold each one until the
                    // peer's delayed ACK of the previous segment.
                    let _ = stream.set_nodelay(true);
                    if max_connections > 0 && active.load(Ordering::SeqCst) >= max_connections {
                        refuse_busy(stream, max_connections);
                        continue;
                    }
                    active.fetch_add(1, Ordering::SeqCst);
                    let conn_store = Arc::clone(&accept_store);
                    let conn_senders = Arc::clone(&senders);
                    let conn_shutdown = Arc::clone(&accept_shutdown);
                    let conn_active = Arc::clone(&active);
                    let spawned =
                        thread::Builder::new()
                            .name("corepart-conn".into())
                            .spawn(move || {
                                serve_connection(
                                    stream,
                                    &conn_store,
                                    &conn_senders,
                                    &conn_shutdown,
                                    addr,
                                    timeout,
                                );
                                conn_active.fetch_sub(1, Ordering::SeqCst);
                            });
                    if spawned.is_err() {
                        active.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            })
            .map_err(spawn_err)?;

        Ok(Server {
            addr,
            store,
            shutdown,
            listener: Some(listener_handle),
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's artifact store (for in-process stats).
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// Requests shutdown from outside the protocol and wakes the
    /// accept loop (a client's `shutdown` request does both itself).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    /// Blocks until the accept loop exits — i.e. until some client
    /// sent `shutdown` (or [`Server::shutdown`] was called). Shard
    /// workers drain and exit once every live connection closes.
    pub fn join(mut self) {
        if let Some(handle) = self.listener.take() {
            let _ = handle.join();
        }
    }
}

/// How long, and how many bytes, a refused connection is drained after
/// its `busy` line: one refused connect holds the accept loop at most
/// this long.
const BUSY_DRAIN: Duration = Duration::from_millis(50);
const BUSY_DRAIN_BYTES: usize = 64 << 10;

/// Answers an over-cap connect with one `busy` line and closes it
/// gracefully: the write side is shut (the client reads the line, then
/// end of stream), then what the client sent is read and dropped. A
/// close with unread bytes would reset the connection, and a client
/// that had already sent a request could lose the line.
fn refuse_busy(mut stream: TcpStream, max_connections: usize) {
    let message = format!("connection limit of {max_connections} reached");
    let _ = write_line(&mut stream, error_response_kind(None, "busy", &message));
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + BUSY_DRAIN;
    let (mut left, mut buf) = (BUSY_DRAIN_BYTES, [0u8; 4096]);
    // A zero timeout is an error: a passed deadline ends the drain.
    while left > 0 {
        let wait = deadline.saturating_duration_since(Instant::now());
        let read = stream
            .set_read_timeout(Some(wait))
            .and_then(|()| stream.read(&mut buf));
        let Ok(n @ 1..) = read else { break };
        left = left.saturating_sub(n);
    }
}

/// One connection, pipelined: this thread reads request lines, tags
/// each with a sequence number, and routes compute jobs to their
/// shard's worker *without waiting for the answer* — a dedicated
/// writer thread re-serializes responses in request order (or by `id`
/// when the request opted into `"ordered":false`). One connection can
/// therefore keep every store shard busy at once.
fn serve_connection(
    stream: TcpStream,
    store: &ArtifactStore,
    senders: &[mpsc::Sender<Job>],
    shutdown: &Arc<AtomicBool>,
    addr: SocketAddr,
    timeout: Option<Duration>,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<WriterMsg>();
    let write_shutdown = Arc::clone(shutdown);
    let Ok(writer) = thread::Builder::new()
        .name("corepart-write".into())
        .spawn(move || writer_loop(stream, &rx, &write_shutdown, addr))
    else {
        return;
    };

    let mut reader = BufReader::new(read_half);
    let mut seq: u64 = 0;
    loop {
        let parsed = match read_request_line(&mut reader) {
            LineRead::Line(line) if line.trim().is_empty() => continue,
            LineRead::Line(line) => parse_request(&line),
            LineRead::NotUtf8 => Err("request line is not UTF-8".to_owned()),
            LineRead::TooLarge => {
                // Answered in order; the rest of the line is never read.
                let message = format!(
                    "request line longer than {MAX_LINE_BYTES} bytes; closing the connection"
                );
                let response = error_response_kind(None, "too_large", &message);
                let slot = Slot::Ready {
                    response,
                    stop: false,
                };
                let _ = tx.send(WriterMsg::Announce { seq, slot });
                break;
            }
            LineRead::End => break,
        };
        let this = seq;
        seq += 1;
        match dispatch(store, parsed) {
            Ok(req) => {
                let key = result_key(&req);
                if let Some(response) = answer_hit(store, &req, &key) {
                    let answered = WriterMsg::Answered {
                        seq: this,
                        ordered: req.ordered,
                        response,
                    };
                    if tx.send(answered).is_err() {
                        break;
                    }
                    continue;
                }
                let slot = Slot::Waiting {
                    id: req.id,
                    ordered: req.ordered,
                    deadline: timeout.map(|t| Instant::now() + t),
                };
                if tx.send(WriterMsg::Announce { seq: this, slot }).is_err() {
                    break;
                }
                let shard = store.shard_of(key.fingerprint);
                store.note_enqueued(shard);
                let sent = senders[shard]
                    .send(Job {
                        seq: this,
                        req,
                        key,
                        enqueued: Instant::now(),
                        reply: tx.clone(),
                    })
                    .is_ok();
                if !sent {
                    store.note_dequeued(shard);
                    break;
                }
            }
            Err((response, stop)) => {
                let slot = Slot::Ready { response, stop };
                if tx.send(WriterMsg::Announce { seq: this, slot }).is_err() || stop {
                    break;
                }
            }
        }
    }
    drop(tx);
    let _ = writer.join();
}

/// One read from a connection by [`read_request_line`].
enum LineRead {
    /// A line without its newline (or `\r\n`); the last line of the
    /// stream may lack one.
    Line(String),
    /// A whole line that is not UTF-8.
    NotUtf8,
    /// More than [`MAX_LINE_BYTES`] arrived without a newline.
    TooLarge,
    /// End of stream or a read error.
    End,
}

/// Reads one request line, buffering at most [`MAX_LINE_BYTES`] plus
/// the newline.
fn read_request_line(reader: &mut impl BufRead) -> LineRead {
    let mut buf = Vec::new();
    let limit = MAX_LINE_BYTES as u64 + 1;
    match reader.take(limit).read_until(b'\n', &mut buf) {
        Ok(0) | Err(_) => return LineRead::End,
        Ok(_) => {}
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE_BYTES {
        return LineRead::TooLarge;
    }
    String::from_utf8(buf).map_or(LineRead::NotUtf8, LineRead::Line)
}

/// The outbox's per-request slot.
enum Slot {
    /// Routed to a shard; its response is still pending.
    Waiting {
        id: Option<u64>,
        ordered: bool,
        deadline: Option<Instant>,
    },
    /// Response ready, waiting for its in-order turn.
    Ready { response: String, stop: bool },
    /// An `"ordered":false` response already handed out; the slot only
    /// keeps its place.
    Written,
}

impl Slot {
    fn deadline(&self) -> Option<Instant> {
        match self {
            Slot::Waiting { deadline, .. } => *deadline,
            _ => None,
        }
    }
}

/// A connection's response order, with no clock, socket or channel in
/// it. Responses leave in request order, except that an
/// `"ordered":false` response leaves the moment it arrives. A request
/// still waiting at its deadline is answered with a typed `timeout`
/// error in its place, and a response arriving at or after the deadline
/// is dropped (its compute finished on the worker and is memoized, so
/// the engine is never poisoned). A `stop` response is the last line.
///
/// Deadlines are head-of-line. The reader stamps each compute request
/// `now + timeout` in sequence order, and a connection has one timeout,
/// so deadlines never decrease with the sequence number. The flush
/// stops only at a waiting slot, so after every step the earliest
/// pending deadline is the head's.
#[derive(Default)]
struct Outbox {
    /// Slot `i` belongs to request `next + i`.
    slots: VecDeque<Slot>,
    next: u64,
    /// The lines of the current step, reused across steps.
    out: String,
    stopped: bool,
}

impl Outbox {
    /// Takes one message (`None` when the deadline passed first) at time
    /// `now`, and returns the response lines to write, each with its
    /// newline.
    fn step(&mut self, msg: Option<WriterMsg>, now: Instant) -> &str {
        self.out.clear();
        match msg {
            _ if self.stopped => return &self.out,
            Some(WriterMsg::Announce { seq, slot }) => {
                debug_assert_eq!(seq, self.next + self.slots.len() as u64);
                // The head-of-line invariant (see the type's doc).
                debug_assert!(slot.deadline().is_none_or(|d| {
                    let last = self.slots.iter().rev().find_map(Slot::deadline);
                    last.is_none_or(|last| last <= d)
                }));
                self.slots.push_back(slot);
            }
            Some(WriterMsg::Answered {
                seq,
                ordered,
                response,
            }) => {
                debug_assert_eq!(seq, self.next + self.slots.len() as u64);
                let slot = if ordered {
                    Slot::Ready {
                        response,
                        stop: false,
                    }
                } else {
                    push_line(&mut self.out, &response);
                    Slot::Written
                };
                self.slots.push_back(slot);
            }
            Some(WriterMsg::Done { seq, response }) => {
                // A seq below `next` (answered already) wraps out of range.
                let index = usize::try_from(seq.wrapping_sub(self.next)).ok();
                match index.and_then(|i| self.slots.get_mut(i)) {
                    // Late: the flush answers it with `timeout`.
                    Some(slot) if slot.deadline().is_some_and(|d| d <= now) => {}
                    Some(slot @ Slot::Waiting { ordered: false, .. }) => {
                        push_line(&mut self.out, &response);
                        *slot = Slot::Written;
                    }
                    Some(slot @ Slot::Waiting { .. }) => {
                        *slot = Slot::Ready {
                            response,
                            stop: false,
                        };
                    }
                    _ => {}
                }
            }
            None => {}
        }
        self.flush(now);
        &self.out
    }

    /// The head request's deadline, when the writer stops waiting for a
    /// message.
    fn deadline(&self) -> Option<Instant> {
        self.slots.front().and_then(Slot::deadline)
    }

    /// Hands out every slot from the head whose turn has come: ready
    /// responses, and `timeout` errors for waiting requests at or past
    /// their deadline.
    fn flush(&mut self, now: Instant) {
        while let Some(slot) = self.slots.front() {
            match slot {
                Slot::Waiting { id, .. } if slot.deadline().is_some_and(|d| d <= now) => {
                    let message =
                        "request timed out; its compute continues and its result is memoized";
                    push_line(&mut self.out, &error_response_kind(*id, "timeout", message));
                }
                Slot::Waiting { .. } => break,
                Slot::Ready { response, stop } => {
                    push_line(&mut self.out, response);
                    if *stop {
                        self.stopped = true;
                        self.slots.clear();
                        return;
                    }
                }
                Slot::Written => {}
            }
            self.slots.pop_front();
            self.next += 1;
        }
    }
}

fn push_line(out: &mut String, line: &str) {
    out.push_str(line);
    out.push('\n');
}

/// The connection's writer: only I/O. It feeds the [`Outbox`] each
/// message with the time it arrived, writes what comes back in one
/// write, and wakes at the head request's deadline.
fn writer_loop(
    mut stream: TcpStream,
    rx: &mpsc::Receiver<WriterMsg>,
    shutdown: &AtomicBool,
    addr: SocketAddr,
) {
    let mut outbox = Outbox::default();
    loop {
        // `Duration::MAX` waits for the next message however long.
        let wait = outbox.deadline().map_or(Duration::MAX, |d| {
            d.saturating_duration_since(Instant::now())
        });
        let msg = match rx.recv_timeout(wait) {
            Ok(msg) => Some(msg),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        let lines = outbox.step(msg, Instant::now());
        if stream.write_all(lines.as_bytes()).is_err() {
            return;
        }
        if outbox.stopped {
            shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(addr);
            return;
        }
    }
}

/// A blocking client of the serve protocol, one request line per
/// [`Client::send`]. It sets `TCP_NODELAY` and writes each line with its
/// newline in one write, so no round trip waits on Nagle's algorithm
/// for the peer's delayed ACK.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to the daemon at `addr`.
    ///
    /// # Errors
    ///
    /// Connection and socket-option failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends `text` and a newline in one write. `text` is one request
    /// line, or several joined by `\n` (a pipelined burst).
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send(&mut self, text: &str) -> std::io::Result<()> {
        let mut line = String::with_capacity(text.len() + 1);
        line.push_str(text);
        write_line(&mut self.writer, line)
    }

    /// Reads the next response line, without its newline.
    ///
    /// # Errors
    ///
    /// Socket read failures; [`ErrorKind::UnexpectedEof`] when the
    /// daemon closed the connection cleanly, with no further bytes; and
    /// [`ErrorKind::InvalidData`] when it closed after a partial line.
    pub fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "the daemon closed the connection",
            ));
        }
        if line.pop() != Some('\n') {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("the daemon closed the connection mid-line: {line:?}"),
            ));
        }
        Ok(line)
    }

    /// One round trip: [`Client::send`] then [`Client::recv`].
    ///
    /// # Errors
    ///
    /// As [`Client::send`] and [`Client::recv`].
    pub fn try_ask(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

/// Writes one line and its newline in a single write.
fn write_line(stream: &mut TcpStream, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    stream.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::result_field;

    const SRC: &str = r#"app srv; var x[24]; var acc = 0;
        func main() {
            for (var i = 0; i < 24; i = i + 1) { acc = acc + x[i] * 5; }
            return acc;
        }"#;

    fn request(kind: ComputeKind) -> ComputeRequest {
        let mut req = ComputeRequest::new(kind, SRC);
        req.id = Some(7);
        req.arrays = vec![("x".into(), (0..24).collect())];
        req
    }

    fn store() -> ArtifactStore {
        ArtifactStore::new(SystemConfig::new(), &StoreOptions::default()).unwrap()
    }

    #[test]
    fn request_wire_format_round_trips() {
        let mut req = request(ComputeKind::Verify);
        req.clusters = vec![0, 2];
        req.set_index = 1;
        req.n_max = Some(3);
        req.factor_g = Some(0.5);
        // The largest integer magnitude the wire carries exactly.
        req.arrays[0].1[3] = -9_007_199_254_740_991;
        let Ok(Request::Compute(parsed)) = parse_request(&req.to_json()) else {
            panic!("round trip failed");
        };
        assert_eq!(parsed.id, Some(7));
        assert_eq!(parsed.kind, ComputeKind::Verify);
        assert_eq!(parsed.source, SRC);
        assert_eq!(parsed.arrays, req.arrays);
        assert_eq!(parsed.n_max, Some(3));
        assert_eq!(parsed.factor_g, Some(0.5));
        assert_eq!(parsed.clusters, vec![0, 2]);
        assert_eq!(parsed.set_index, 1);
        assert_eq!(request_fingerprint(&parsed), request_fingerprint(&req));
    }

    #[test]
    fn corpus_and_ordered_fields_round_trip_on_the_wire() {
        let mut req = request(ComputeKind::Corpus);
        req.ordered = false;
        req.n_max = Some(4);
        req.factor_f = Some(1.25);
        req.weights = Some(vec![0.0, 0.2, 1.0]);
        req.corpus = Some(CorpusMeta {
            index: 9,
            seed: 0xDEAD_BEEF,
            name: "gen-9".into(),
        });
        let line = req.to_json();
        assert!(line.contains("\"ordered\":false"), "{line}");
        // The seed rides as a decimal string: 2^64-scale seeds must
        // not be squeezed through an f64.
        assert!(line.contains("\"seed\":\"3735928559\""), "{line}");
        let Ok(Request::Compute(parsed)) = parse_request(&line) else {
            panic!("round trip failed: {line}");
        };
        assert!(!parsed.ordered);
        assert_eq!(parsed.weights, Some(vec![0.0, 0.2, 1.0]));
        let meta = parsed.corpus.expect("corpus meta survives the wire");
        assert_eq!(meta.index, 9);
        assert_eq!(meta.seed, 0xDEAD_BEEF);
        assert_eq!(meta.name, "gen-9");
        // `ordered` defaults to true when absent.
        let plain = request(ComputeKind::Partition).to_json();
        assert!(!plain.contains("ordered"), "{plain}");
        let Ok(Request::Compute(default_req)) = parse_request(&plain) else {
            panic!("round trip failed: {plain}");
        };
        assert!(default_req.ordered);
    }

    #[test]
    fn corpus_requests_need_meta_and_weights() {
        let store = store();
        // A corpus command without its entry metadata…
        let mut missing_meta = request(ComputeKind::Corpus);
        missing_meta.weights = Some(vec![0.0, 1.0]);
        let (response, _) = handle_line(&store, &missing_meta.to_json());
        assert!(response.contains("\"kind\":\"request\""), "{response}");
        // …or without an explicit G sweep is rejected before compute.
        let mut missing_weights = request(ComputeKind::Corpus);
        missing_weights.corpus = Some(CorpusMeta {
            index: 0,
            seed: 1,
            name: "gen-0".into(),
        });
        let (response, _) = handle_line(&store, &missing_weights.to_json());
        assert!(response.contains("\"kind\":\"request\""), "{response}");
    }

    #[test]
    fn malformed_lines_get_request_errors() {
        let store = store();
        let mut beyond = request(ComputeKind::Partition);
        beyond.arrays[0].1[3] = 9_007_199_254_740_993;
        for line in [
            "not json",
            "[1,2]",
            "{\"cmd\":\"fly\"}",
            "{\"cmd\":\"partition\"}",
            "{\"cmd\":\"partition\",\"source\":\"app x;\",\"arrays\":{\"x\":[0.5]}}",
            // Integers at or past 2^53 may already be rounded by the parse.
            "{\"id\":9007199254740993,\"cmd\":\"stats\"}",
            &beyond.to_json(),
        ] {
            let (response, stop) = handle_line(&store, line);
            assert!(!stop);
            assert!(response.contains("\"ok\":false"), "{line} -> {response}");
            assert!(response.contains("\"kind\":\"request\""), "{response}");
        }
    }

    #[test]
    fn serve_answers_warm_and_matches_fresh() {
        let store = store();
        let line = request(ComputeKind::Partition).to_json();
        let (cold, _) = handle_line(&store, &line);
        let (warm, _) = handle_line(&store, &line);
        assert!(cold.contains("\"ok\":true"), "{cold}");
        assert!(warm.contains("\"store_hit\":true"), "{warm}");
        // The repeat is served from the result memo: no fresh session
        // ran, so its stats carry no session counters.
        assert!(cold.contains("\"session\""), "{cold}");
        assert!(!warm.contains("\"session\""), "{warm}");
        let fresh = respond_fresh(store.base_config(), &request(ComputeKind::Partition));
        assert_eq!(result_field(&cold), result_field(&fresh));
        assert_eq!(result_field(&warm), result_field(&fresh));

        let (stats, _) = handle_line(&store, "{\"cmd\":\"stats\"}");
        assert!(stats.contains("\"requests\":2"), "{stats}");
        assert!(stats.contains("\"hits\":1"), "{stats}");
        assert!(stats.contains("\"p99_nanos\":"), "{stats}");
    }

    #[test]
    fn operating_point_round_trips_and_keys_the_memo() {
        let mut req = request(ComputeKind::Partition);
        req.operating_point = Some(OperatingPoint {
            node_nm: 180,
            vdd: 1.8,
        });
        let Ok(Request::Compute(parsed)) = parse_request(&req.to_json()) else {
            panic!("round trip failed");
        };
        assert_eq!(
            parsed.operating_point,
            Some(OperatingPoint {
                node_nm: 180,
                vdd: 1.8
            })
        );
        // Same app, different point -> different result-memo key.
        let base = request(ComputeKind::Partition);
        assert_ne!(result_key(&req).text, result_key(&base).text);
        // Same text fingerprint -> same shard, shared baseline artifacts.
        assert_eq!(request_fingerprint(&req), request_fingerprint(&base));
    }

    /// The routing fingerprint as first defined: FNV-64 of the source
    /// and array text built as one string.
    fn fingerprint_by_text(req: &ComputeRequest) -> u64 {
        let mut text = req.source.clone();
        for (name, data) in &req.arrays {
            text.push('\0');
            text.push_str(name);
            text.push('=');
            for v in data {
                text.push_str(&v.to_string());
                text.push(',');
            }
        }
        crate::corpus::fingerprint64(text.as_bytes())
    }

    #[test]
    fn streamed_fingerprint_matches_the_text_definition() {
        // The benchmark's warm key set (every paper app: partition,
        // explore, and four verifies) at two input seeds, a corpus
        // request, and negative array values: shard placement must not
        // move.
        let mut requests = Vec::new();
        for seed in [1, 2] {
            for w in corepart_workloads::all() {
                for (kind, clusters, set_index) in [
                    (ComputeKind::Partition, &[][..], 2),
                    (ComputeKind::Explore, &[], 2),
                    (ComputeKind::Verify, &[0], 2),
                    (ComputeKind::Verify, &[0], 4),
                    (ComputeKind::Verify, &[0, 1], 2),
                    (ComputeKind::Verify, &[0, 1], 4),
                ] {
                    let mut req = ComputeRequest::new(kind, w.source);
                    req.arrays = w.arrays(seed);
                    req.clusters = clusters.to_vec();
                    req.set_index = set_index;
                    requests.push(req);
                }
            }
        }
        assert_eq!(requests.len(), 72);
        let app = corepart_conform::generate(5);
        let mut corpus = ComputeRequest::new(ComputeKind::Corpus, &app.source());
        corpus.arrays = app.workload_arrays();
        corpus.weights = Some(vec![0.0, 0.2, 1.0]);
        corpus.corpus = Some(CorpusMeta {
            index: 5,
            seed: 11,
            name: "gen5".into(),
        });
        requests.push(corpus);
        let mut negative = request(ComputeKind::Partition);
        negative.arrays = vec![("x".into(), vec![-3, i64::MIN, i64::MAX, 0])];
        requests.push(negative);
        for req in &requests {
            assert_eq!(request_fingerprint(req), fingerprint_by_text(req));
        }
        assert_eq!(
            request_fingerprint(&request(ComputeKind::Partition)),
            0xfa47_62d6_c062_eb9b,
            "FNV-1a 64 of the unit-test request's text, computed independently"
        );
    }

    #[test]
    fn the_result_key_spells_every_element_as_display_does() {
        let mut req = request(ComputeKind::Verify);
        req.arrays = vec![
            (
                "x".into(),
                vec![0, -1, 9, 10, -10, 99_999, i64::MIN, i64::MAX],
            ),
            ("q\"|=".into(), vec![]),
        ];
        let key = result_key(&req);
        let spelled: String = req.arrays[0].1.iter().map(|v| format!("{v},")).collect();
        assert!(
            key.text.contains(&format!("|\"x\"={spelled}|")),
            "{}",
            key.text
        );
        // The name is escaped and the count leads, so a name cannot
        // pose as another array's elements.
        assert!(key.text.contains("|2|\"x\"="), "{}", key.text);
        assert!(key.text.contains("|\"q\\\"|=\"=|"), "{}", key.text);
        assert_eq!(key.fingerprint, fingerprint_by_text(&req));
        // Knobs move the bucket; transport fields move nothing.
        let mut other = req.clone();
        other.set_index = 4;
        assert_ne!(result_key(&other).bucket, key.bucket);
        other = req.clone();
        other.id = Some(99);
        other.ordered = false;
        assert_eq!(result_key(&other), key);
    }

    #[test]
    fn served_point_answers_match_fresh_and_extend_the_base() {
        let store = store();
        let mut req = request(ComputeKind::Partition);
        req.operating_point = Some(OperatingPoint {
            node_nm: 180,
            vdd: 1.8,
        });
        let line = req.to_json();
        let (warm, _) = handle_line(&store, &line);
        assert!(warm.contains("\"ok\":true"), "{warm}");
        assert!(
            warm.contains("\"operating_point\":{\"node_nm\":180,\"vdd\":1.8,"),
            "{warm}"
        );
        let fresh = respond_fresh(store.base_config(), &req);
        assert_eq!(result_field(&warm), result_field(&fresh));
        // The base (no-point) answer is a strict byte prefix of the
        // pointed answer modulo the closing brace: the weighting pass
        // only appends.
        let (plain, _) = handle_line(&store, &request(ComputeKind::Partition).to_json());
        let plain_result = result_field(&plain).unwrap();
        let point_result = result_field(&warm).unwrap();
        assert!(
            point_result.starts_with(&plain_result[..plain_result.len() - 1]),
            "{point_result}"
        );
    }

    #[test]
    fn out_of_range_vdd_is_a_config_error() {
        let store = store();
        let mut req = request(ComputeKind::Partition);
        req.operating_point = Some(OperatingPoint {
            node_nm: 180,
            vdd: 0.2,
        });
        let (response, _) = handle_line(&store, &req.to_json());
        assert!(response.contains("\"ok\":false"), "{response}");
        assert!(response.contains("\"kind\":\"config\""), "{response}");
        assert!(response.contains("outside"), "{response}");
        // Unknown node too.
        let mut req = request(ComputeKind::Partition);
        req.operating_point = Some(OperatingPoint {
            node_nm: 123,
            vdd: 1.0,
        });
        let (response, _) = handle_line(&store, &req.to_json());
        assert!(response.contains("\"kind\":\"config\""), "{response}");
        assert!(response.contains("unknown technology node"), "{response}");
    }

    #[test]
    fn verify_rejects_out_of_range_clusters() {
        let store = store();
        let mut req = request(ComputeKind::Verify);
        req.clusters = vec![99];
        let (response, _) = handle_line(&store, &req.to_json());
        assert!(response.contains("\"kind\":\"config\""), "{response}");
        assert!(response.contains("out of range"), "{response}");
    }

    #[test]
    fn verifies_of_one_source_coalesce_whatever_their_factors() {
        let store = store();
        let (reply, _writer) = mpsc::channel();
        let batch: Vec<Job> = [1.0, 4.0]
            .into_iter()
            .enumerate()
            .map(|(seq, factor_f)| {
                let mut req = request(ComputeKind::Verify);
                req.clusters = vec![0];
                req.factor_f = Some(factor_f);
                Job {
                    seq: seq as u64,
                    key: result_key(&req),
                    req: Box::new(req),
                    enqueued: Instant::now(),
                    reply: reply.clone(),
                }
            })
            .collect();
        coalesce_verifies(&store, &batch);
        let pipeline = store.stats().pipeline;
        assert_eq!((pipeline.coalesced_k1, pipeline.coalesced_k2_4), (0, 1));
        for job in &batch {
            let served = answer_compute(&store, &job.req, &job.key, Some(job.enqueued));
            let fresh = respond_fresh(store.base_config(), &job.req);
            assert!(served.contains("\"ok\":true"), "{served}");
            assert_eq!(result_field(&served), result_field(&fresh));
        }
    }

    #[test]
    fn tcp_round_trip_and_shutdown() {
        let server = Server::spawn(
            SystemConfig::new(),
            &ServeOptions {
                port: 0,
                shards: 2,
                threads: 1,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let mut send = |line: &str| client.try_ask(line).unwrap();
        let answer = send(&request(ComputeKind::Explore).to_json());
        assert!(answer.contains("\"ok\":true"), "{answer}");
        assert!(answer.contains("\"points\""), "{answer}");
        let stats = send("{\"id\":8,\"cmd\":\"stats\"}");
        assert!(stats.contains("\"requests\":1"), "{stats}");
        // A line that is not UTF-8 is answered and the connection stays.
        client
            .writer
            .write_all(b"\xff\xfe\n{\"cmd\":\"stats\"}\n")
            .unwrap();
        let rejected = client.recv().unwrap();
        assert!(rejected.contains("\"kind\":\"request\""), "{rejected}");
        let stats = client.recv().unwrap();
        assert!(stats.contains("\"cmd\":\"stats\""), "{stats}");
        let mut send = |line: &str| client.try_ask(line).unwrap();
        let bye = send("{\"id\":9,\"cmd\":\"shutdown\"}");
        assert!(bye.contains("\"cmd\":\"shutdown\""), "{bye}");
        server.join();
    }

    /// Virtual time `ms` milliseconds after `t0`.
    fn at(t0: Instant, ms: u64) -> Instant {
        t0 + Duration::from_millis(ms)
    }

    fn expect(seq: u64, ordered: bool, deadline: Option<Instant>) -> WriterMsg {
        let slot = Slot::Waiting {
            id: Some(100 + seq),
            ordered,
            deadline,
        };
        WriterMsg::Announce { seq, slot }
    }

    fn answer(seq: u64, response: &str, stop: bool) -> WriterMsg {
        let slot = Slot::Ready {
            response: response.into(),
            stop,
        };
        WriterMsg::Announce { seq, slot }
    }

    fn done(seq: u64) -> WriterMsg {
        WriterMsg::Done {
            seq,
            response: format!("r{seq}"),
        }
    }

    /// The lines one outbox step hands out.
    fn step(outbox: &mut Outbox, msg: Option<WriterMsg>, now: Instant) -> Vec<String> {
        outbox.step(msg, now).lines().map(str::to_owned).collect()
    }

    fn timeout_line(id: u64) -> String {
        let message = "request timed out; its compute continues and its result is memoized";
        error_response_kind(Some(id), "timeout", message)
    }

    #[test]
    fn outbox_writes_completions_in_request_order() {
        let t0 = Instant::now();
        let mut outbox = Outbox::default();
        for seq in 0..3 {
            assert!(step(&mut outbox, Some(expect(seq, true, None)), t0).is_empty());
        }
        assert!(step(&mut outbox, Some(done(2)), t0).is_empty());
        assert_eq!(step(&mut outbox, Some(done(0)), t0), ["r0"]);
        assert_eq!(step(&mut outbox, Some(done(1)), t0), ["r1", "r2"]);
    }

    #[test]
    fn unordered_completions_leave_at_once_but_ordered_ones_wait_for_them() {
        let t0 = Instant::now();
        let mut outbox = Outbox::default();
        step(&mut outbox, Some(expect(0, true, None)), t0);
        step(&mut outbox, Some(expect(1, false, None)), t0);
        step(&mut outbox, Some(expect(2, true, None)), t0);
        step(&mut outbox, Some(expect(3, false, None)), t0);
        step(&mut outbox, Some(expect(4, true, None)), t0);
        assert_eq!(step(&mut outbox, Some(done(1)), t0), ["r1"]);
        assert!(step(&mut outbox, Some(done(2)), t0).is_empty());
        assert_eq!(step(&mut outbox, Some(done(0)), t0), ["r0", "r2"]);
        // Request 4 is ordered: it waits for the unordered request 3.
        assert!(step(&mut outbox, Some(done(4)), t0).is_empty());
        assert_eq!(step(&mut outbox, Some(done(3)), t0), ["r3", "r4"]);
    }

    fn hit(seq: u64, ordered: bool) -> WriterMsg {
        WriterMsg::Answered {
            seq,
            ordered,
            response: format!("h{seq}"),
        }
    }

    #[test]
    fn reader_answered_hits_wait_their_turn_unless_unordered() {
        let t0 = Instant::now();
        let mut outbox = Outbox::default();
        step(&mut outbox, Some(expect(0, true, Some(at(t0, 5)))), t0);
        // An ordered hit waits behind the routed head…
        assert!(step(&mut outbox, Some(hit(1, true)), t0).is_empty());
        // …an unordered one leaves the moment it is answered…
        assert_eq!(step(&mut outbox, Some(hit(2, false)), t0), ["h2"]);
        step(&mut outbox, Some(expect(3, true, Some(at(t0, 6)))), t0);
        assert!(step(&mut outbox, Some(hit(4, true)), t0).is_empty());
        assert_eq!(step(&mut outbox, Some(done(0)), at(t0, 1)), ["r0", "h1"]);
        // …and a head that times out still hands out the hit behind it.
        assert_eq!(
            step(&mut outbox, None, at(t0, 6)),
            [timeout_line(103), "h4".to_owned()]
        );
        assert_eq!(outbox.deadline(), None);
    }

    #[test]
    fn requests_past_their_deadline_are_answered_timeout_in_place() {
        let t0 = Instant::now();
        let mut outbox = Outbox::default();
        step(&mut outbox, Some(expect(0, true, Some(at(t0, 5)))), t0);
        step(&mut outbox, Some(expect(1, true, Some(at(t0, 5)))), t0);
        step(&mut outbox, Some(expect(2, false, Some(at(t0, 6)))), t0);
        step(&mut outbox, Some(expect(3, true, Some(at(t0, 6)))), t0);
        step(&mut outbox, Some(answer(4, "stats", false)), t0);
        assert!(step(&mut outbox, Some(done(1)), at(t0, 1)).is_empty());
        assert!(step(&mut outbox, None, at(t0, 4)).is_empty());
        // The ordered request 0 keeps its place ahead of the ready 1.
        assert_eq!(
            step(&mut outbox, None, at(t0, 5)),
            [timeout_line(100), "r1".to_owned()]
        );
        assert_eq!(outbox.deadline(), Some(at(t0, 6)));
        // The unordered 2 and the ordered 3 behind it time out together.
        assert_eq!(
            step(&mut outbox, None, at(t0, 6)),
            [timeout_line(102), timeout_line(103), "stats".to_owned()]
        );
        assert_eq!(outbox.deadline(), None);
    }

    #[test]
    fn responses_at_or_after_their_deadline_are_dropped() {
        let t0 = Instant::now();
        let mut outbox = Outbox::default();
        step(&mut outbox, Some(expect(0, true, Some(at(t0, 5)))), t0);
        step(&mut outbox, Some(expect(1, false, Some(at(t0, 6)))), t0);
        // Exactly at the deadline: the response loses to the timeout.
        assert_eq!(
            step(&mut outbox, Some(done(0)), at(t0, 5)),
            [timeout_line(100)]
        );
        assert_eq!(step(&mut outbox, None, at(t0, 6)), [timeout_line(101)]);
        // After the slot timed out: nothing more is written.
        assert!(step(&mut outbox, Some(done(1)), at(t0, 7)).is_empty());
        assert!(step(&mut outbox, Some(done(0)), at(t0, 7)).is_empty());
    }

    #[test]
    fn a_stop_response_is_the_last_line_handed_out() {
        let t0 = Instant::now();
        let mut outbox = Outbox::default();
        step(&mut outbox, Some(expect(0, true, None)), t0);
        step(&mut outbox, Some(expect(1, false, None)), t0);
        assert!(step(&mut outbox, Some(answer(2, "bye", true)), t0).is_empty());
        assert!(step(&mut outbox, Some(answer(3, "stats", false)), t0).is_empty());
        // The stop waits for every earlier request, the unordered 1 too…
        assert_eq!(step(&mut outbox, Some(done(0)), t0), ["r0"]);
        assert!(!outbox.stopped);
        // …and nothing behind it is handed out, even a ready answer.
        assert_eq!(step(&mut outbox, Some(done(1)), t0), ["r1", "bye"]);
        assert!(outbox.stopped);
        assert!(step(&mut outbox, None, t0).is_empty());
    }

    #[test]
    fn the_outbox_deadline_is_the_head_requests() {
        let t0 = Instant::now();
        let mut outbox = Outbox::default();
        assert_eq!(outbox.deadline(), None);
        step(&mut outbox, Some(expect(0, true, Some(at(t0, 5)))), t0);
        step(&mut outbox, Some(expect(1, true, Some(at(t0, 7)))), t0);
        assert_eq!(outbox.deadline(), Some(at(t0, 5)));
        assert!(step(&mut outbox, Some(done(1)), at(t0, 1)).is_empty());
        assert_eq!(outbox.deadline(), Some(at(t0, 5)));
        assert_eq!(step(&mut outbox, Some(done(0)), at(t0, 2)), ["r0", "r1"]);
        assert_eq!(outbox.deadline(), None);
        // Without a timeout nothing can expire.
        step(&mut outbox, Some(expect(2, true, None)), t0);
        assert_eq!(outbox.deadline(), None);
    }
}
