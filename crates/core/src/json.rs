//! Machine-readable (JSON) export of reports.
//!
//! The text renderings in [`crate::report`] serve humans; downstream
//! tooling (plotting scripts, CI dashboards) wants structured output.
//! The writer here is deliberately dependency-free: the report types
//! are flat records of numbers and names, so a small escaper suffices.

use std::fmt::Write as _;
use std::hash::Hasher;

use crate::corpus::{CorpusOutcome, CorpusRow, FeatureStat};
use crate::explore::{design_mask, node_mask, DesignPoint, Exploration, NodeExploration};
use crate::partition::PartitionOutcome;
use crate::report::{Figure6Point, Table1, Table1Entry};
use crate::system::{DesignMetrics, ResolvedPoint, WeightedMetrics};

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included). Public because the serve protocol's clients — the bench
/// load driver, the conformance oracle — build request lines with it.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Serializes one design point (all energies in joules, cycle counts
/// raw, hardware in cells).
pub fn metrics_to_json(m: &DesignMetrics) -> String {
    format!(
        concat!(
            "{{\"icache_j\":{},\"dcache_j\":{},\"mem_j\":{},\"bus_j\":{},",
            "\"up_core_j\":{},\"asic_core_j\":{},\"total_j\":{},",
            "\"up_cycles\":{},\"asic_cycles\":{},\"total_cycles\":{},",
            "\"geq_cells\":{},\"icache_miss\":{},\"dcache_miss\":{}}}"
        ),
        num(m.icache.joules()),
        num(m.dcache.joules()),
        num(m.mem.joules()),
        num(m.bus.joules()),
        num(m.up_core.joules()),
        m.asic_core
            .map(|e| num(e.joules()))
            .unwrap_or_else(|| "null".to_owned()),
        num(m.total_energy().joules()),
        m.up_cycles.count(),
        m.asic_cycles.count(),
        m.total_cycles().count(),
        m.geq.cells(),
        num(m.icache_miss_ratio),
        num(m.dcache_miss_ratio),
    )
}

/// Serializes one Table-1 entry.
pub fn entry_to_json(e: &Table1Entry) -> String {
    format!(
        concat!(
            "{{\"app\":\"{}\",\"initial\":{},\"partitioned\":{},",
            "\"energy_saving_pct\":{},\"time_change_pct\":{}}}"
        ),
        json_escape(&e.app),
        metrics_to_json(&e.initial),
        e.partitioned
            .as_ref()
            .map(metrics_to_json)
            .unwrap_or_else(|| "null".to_owned()),
        e.saving_percent()
            .map(num)
            .unwrap_or_else(|| "null".to_owned()),
        e.time_change_percent()
            .map(num)
            .unwrap_or_else(|| "null".to_owned()),
    )
}

/// Serializes a whole table as a JSON array.
pub fn table1_to_json(t: &Table1) -> String {
    let rows: Vec<String> = t.entries().iter().map(entry_to_json).collect();
    format!("[{}]", rows.join(","))
}

/// Serializes the Figure-6 series.
pub fn figure6_to_json(points: &[Figure6Point]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"app\":\"{}\",\"energy_saving_pct\":{},\"time_change_pct\":{}}}",
                json_escape(&p.app),
                num(p.energy_saving),
                num(p.time_change),
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

fn corpus_row_to_json(r: &CorpusRow) -> String {
    format!(
        concat!(
            "{{\"index\":{},\"seed\":{},\"name\":\"{}\",\"clusters\":{},",
            "\"loop_clusters\":{},\"loop_depth\":{},\"array_bytes\":{},",
            "\"stmts\":{},\"candidates\":{},\"estimated\":{},",
            "\"growth_steps\":{},\"verifications\":{},\"hw_clusters\":{},",
            "\"hw_blocks\":{},\"geq_cells\":{},\"initial_j\":{},",
            "\"best_j\":{},\"saving_pct\":{},\"initial_cycles\":{},",
            "\"best_cycles\":{},\"time_pct\":{}}}"
        ),
        r.index,
        r.seed,
        json_escape(&r.name),
        r.clusters,
        r.loop_clusters,
        r.loop_depth,
        r.array_bytes,
        r.stmts,
        r.candidates,
        r.estimated,
        r.growth_steps,
        r.verifications,
        r.hw_clusters,
        r.hw_blocks,
        r.geq_cells,
        num(r.initial_j),
        num(r.best_j),
        num(r.saving_pct),
        r.initial_cycles,
        r.best_cycles,
        num(r.time_pct),
    )
}

fn feature_stat_to_json(s: &FeatureStat) -> String {
    format!(
        concat!(
            "{{\"feature\":\"{}\",\"bucket\":{},\"apps\":{},",
            "\"mean_saving_pct\":{},\"max_saving_pct\":{}}}"
        ),
        json_escape(s.feature),
        s.bucket,
        s.apps,
        num(s.mean_saving_pct),
        num(s.max_saving_pct),
    )
}

/// Serializes a corpus run: the run summary, every evaluated row in
/// corpus order, the aggregate Pareto frontier, and the per-feature
/// saving statistics. Deterministic for a deterministic
/// [`CorpusOutcome`] — this is what the corpus golden pins.
pub fn corpus_to_json(outcome: &CorpusOutcome) -> String {
    let rows: Vec<String> = outcome.rows.iter().map(corpus_row_to_json).collect();
    let frontier: Vec<String> = outcome
        .frontier
        .iter()
        .map(|p| format!("{{{}}}", design_point_members(p)))
        .collect();
    let features: Vec<String> = outcome.features.iter().map(feature_stat_to_json).collect();
    format!(
        concat!(
            "{{\"count\":{},\"chunks\":{},\"chunks_done\":{},",
            "\"evaluated\":{},\"replayed\":{},\"finished\":{},",
            "\"rows\":[{}],\"frontier\":[{}],\"features\":[{}]}}"
        ),
        outcome.count,
        outcome.chunks,
        outcome.chunks_done,
        outcome.evaluated,
        outcome.replayed,
        outcome.finished,
        rows.join(","),
        frontier.join(","),
        features.join(","),
    )
}

/// The members that describe one partitioned design — its clusters,
/// resource set, metrics, utilizations and communication words —
/// shared by a search's `best` object and a `verify` payload.
fn design_members(
    partition: &crate::evaluate::Partition,
    detail: &crate::evaluate::PartitionDetail,
) -> String {
    let clusters: Vec<String> = partition.clusters.iter().map(|c| c.0.to_string()).collect();
    format!(
        concat!(
            "\"clusters\":[{}],\"set\":\"{}\",\"metrics\":{},",
            "\"u_r\":{},\"u_up\":{},\"comm_words\":{}"
        ),
        clusters.join(","),
        json_escape(partition.set.name()),
        metrics_to_json(&detail.metrics),
        num(detail.u_r),
        num(detail.u_up),
        detail.comm_words,
    )
}

/// The `best` object of both outcome writers: the winning design, or
/// `null` when the search kept the initial design.
fn best_to_json(outcome: &PartitionOutcome) -> String {
    outcome
        .best
        .as_ref()
        .map(|(partition, detail)| format!("{{{}}}", design_members(partition, detail)))
        .unwrap_or_else(|| "null".to_owned())
}

/// Appends the `operating_point` member of both outcome writers — the
/// point, its weights, and the initial and best designs re-weighed to
/// it — or returns `base` unchanged without a point.
fn with_outcome_point(
    base: String,
    outcome: &PartitionOutcome,
    point: Option<&ResolvedPoint>,
) -> String {
    let Some(rp) = point else {
        return base;
    };
    let initial = weighted_to_json(&rp.weigh(&outcome.initial));
    let best = outcome
        .best
        .as_ref()
        .map(|(_, detail)| weighted_to_json(&rp.weigh(&detail.metrics)))
        .unwrap_or_else(|| "null".to_owned());
    let extra = format!(",\"initial\":{initial},\"best\":{best}");
    with_member(&base, "operating_point", &point_member(rp, &extra))
}

/// Appends one member to a serialized JSON object without re-encoding
/// the rest — the existing writers stay byte-stable and the
/// operating-point `_at` variants only ever *add* a trailing member.
fn with_member(object_json: &str, key: &str, value: &str) -> String {
    debug_assert!(object_json.ends_with('}'), "not an object: {object_json}");
    format!(
        "{},\"{}\":{}}}",
        &object_json[..object_json.len() - 1],
        key,
        value
    )
}

/// Serializes a weighted (operating-point) metrics tuple.
pub fn weighted_to_json(w: &WeightedMetrics) -> String {
    format!(
        "{{\"energy_j\":{},\"time_s\":{},\"area_cells\":{}}}",
        num(w.energy.joules()),
        num(w.time.secs()),
        num(w.area_cells),
    )
}

/// The `operating_point` member body shared by every `_at` writer:
/// point coordinates, its three weights, and caller-supplied extra
/// members (weighted designs).
fn point_member(rp: &ResolvedPoint, extra: &str) -> String {
    format!(
        concat!(
            "{{\"node_nm\":{},\"vdd\":{},",
            "\"weights\":{{\"energy\":{},\"time\":{},\"area\":{}}}{}}}"
        ),
        rp.point.node_nm,
        num(rp.point.vdd),
        num(rp.weights.energy),
        num(rp.weights.time),
        num(rp.weights.area),
        extra,
    )
}

/// Serializes a partitioning outcome (initial + optional best +
/// search statistics) plus, when an operating point is set, a trailing
/// `operating_point` member carrying the point, its weights, and the
/// initial/best designs re-weighed to it.
pub fn outcome_to_json_at(
    name: &str,
    outcome: &PartitionOutcome,
    point: Option<&ResolvedPoint>,
) -> String {
    let s = &outcome.search;
    let base = format!(
        concat!(
            "{{\"app\":\"{}\",\"initial\":{},\"best\":{},",
            "\"search\":{{\"candidates\":{},\"estimated\":{},",
            "\"rejected_by_utilization\":{},\"infeasible\":{},",
            "\"growth_steps\":{},\"verifications\":{},\"replayed\":{},",
            "\"batched_replays\":{},",
            "\"cache_hits\":{},\"cache_misses\":{},",
            "\"estimate_nanos\":{},\"growth_nanos\":{},\"verify_nanos\":{}}}}}"
        ),
        json_escape(name),
        metrics_to_json(&outcome.initial),
        best_to_json(outcome),
        s.candidates,
        s.estimated,
        s.rejected_by_utilization,
        s.infeasible,
        s.growth_steps,
        s.verifications,
        s.replayed,
        s.batched_replays,
        s.cache_hits,
        s.cache_misses,
        s.estimate_nanos,
        s.growth_nanos,
        s.verify_nanos,
    );
    with_outcome_point(base, outcome, point)
}

/// Serializes the *deterministic* part of a partitioning outcome: the
/// app name, the initial design point and the best partition found,
/// with the same optional `operating_point` member as
/// [`outcome_to_json_at`].
///
/// This is the serve protocol's `result` payload. It deliberately
/// excludes everything [`outcome_to_json_at`] adds for diagnostics —
/// wall-clock nanos, replay/cache counters — because those differ
/// between a warm store and a fresh engine even when the answer is the
/// same. The served-vs-fresh oracle byte-compares exactly this; the
/// weighting pass is pure arithmetic over the deterministic base
/// metrics, so the payload stays deterministic with a point too.
pub fn outcome_result_json_at(
    name: &str,
    outcome: &PartitionOutcome,
    point: Option<&ResolvedPoint>,
) -> String {
    let base = format!(
        "{{\"app\":\"{}\",\"initial\":{},\"best\":{}}}",
        json_escape(name),
        metrics_to_json(&outcome.initial),
        best_to_json(outcome),
    );
    with_outcome_point(base, outcome, point)
}

/// Serializes the deterministic result of one explicit-partition
/// verification (the serve protocol's `verify` payload): the same
/// fields [`outcome_result_json_at`] reports for a search winner, so
/// clients read both with one shape, plus the optional
/// `operating_point` member (the verified design re-weighed to the
/// point).
pub fn verify_result_json_at(
    name: &str,
    partition: &crate::evaluate::Partition,
    detail: &crate::evaluate::PartitionDetail,
    point: Option<&ResolvedPoint>,
) -> String {
    let base = format!(
        "{{\"app\":\"{}\",{}}}",
        json_escape(name),
        design_members(partition, detail)
    );
    match point {
        None => base,
        Some(rp) => {
            let extra = format!(
                ",\"metrics\":{}",
                weighted_to_json(&rp.weigh(&detail.metrics))
            );
            with_member(&base, "operating_point", &point_member(rp, &extra))
        }
    }
}

/// [`exploration_to_json`] with the optional `operating_point` member:
/// every design point of the sweep re-weighed to the point, in point
/// order.
pub fn exploration_to_json_at(ex: &Exploration, point: Option<&ResolvedPoint>) -> String {
    let base = exploration_to_json(ex);
    match point {
        None => base,
        Some(rp) => {
            let rows: Vec<String> = ex
                .points
                .iter()
                .map(|p| {
                    let w = weighted_to_json(&rp.weigh_raw(p.energy, p.cycles, p.geq));
                    format!("{{\"label\":\"{}\",{}", json_escape(&p.label), &w[1..])
                })
                .collect();
            let extra = format!(",\"points\":[{}]", rows.join(","));
            with_member(&base, "operating_point", &point_member(rp, &extra))
        }
    }
}

/// Serializes a node×vdd sweep: the base exploration plus every
/// re-weighted (base point × operating point) entry with its 3D
/// Pareto-frontier membership.
pub fn node_exploration_to_json(nx: &NodeExploration) -> String {
    let rows: Vec<String> = nx
        .points
        .iter()
        .zip(node_mask(&nx.points))
        .map(|(p, on_frontier)| {
            format!(
                concat!(
                    "{{\"label\":\"{}\",\"node_nm\":{},\"vdd\":{},",
                    "\"base_label\":\"{}\",\"energy_j\":{},\"time_s\":{},",
                    "\"area_cells\":{},\"initial\":{},\"pareto\":{}}}"
                ),
                json_escape(&p.label),
                p.node_nm,
                num(p.vdd),
                json_escape(&p.base_label),
                num(p.energy.joules()),
                num(p.time.secs()),
                num(p.area_cells),
                p.is_initial,
                on_frontier,
            )
        })
        .collect();
    format!(
        "{{\"base\":{},\"points\":[{}]}}",
        exploration_to_json(&nx.base),
        rows.join(","),
    )
}

/// Serializes an exploration sweep: every design point with its
/// Pareto-frontier membership.
pub fn exploration_to_json(ex: &Exploration) -> String {
    let rows: Vec<String> = ex
        .points
        .iter()
        .zip(design_mask(&ex.points))
        .map(|(p, pareto)| format!("{{{},\"pareto\":{pareto}}}", design_point_members(p)))
        .collect();
    format!("{{\"points\":[{}]}}", rows.join(","))
}

/// The members of one design point's object, shared by exploration
/// rows and the corpus frontier.
fn design_point_members(p: &DesignPoint) -> String {
    format!(
        concat!(
            "\"label\":\"{}\",\"energy_j\":{},\"cycles\":{},",
            "\"geq_cells\":{},\"saving_pct\":{},\"initial\":{}"
        ),
        json_escape(&p.label),
        num(p.energy.joules()),
        p.cycles.count(),
        p.geq.cells(),
        num(p.saving_percent),
        p.is_initial,
    )
}

/// A parsed JSON value — the request side of the serve protocol. The
/// writer half of this module stays string-based (and byte-stable);
/// the parser exists so the daemon can read requests without any
/// dependency, mirroring the vendored-shim policy of the workspace.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order (lookup takes the first match).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member `key` of an object (first match), if any.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if it is one below
    /// 2^53. Every integer literal in that range parses to itself; a
    /// larger one may already be rounded (`9007199254740993` parses as
    /// 2^53), so it is refused rather than silently changed.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|n| u64::try_from(n).ok())
    }

    /// The numeric payload as an integer, if it is one of magnitude
    /// below 2^53 (as [`JsonValue::as_u64`], either sign).
    pub(crate) fn as_i64(&self) -> Option<i64> {
        self.as_f64().and_then(exact_integer)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// How deeply arrays and objects may nest in a parsed document. The
/// serve protocol nests at most three levels; the bound keeps the
/// recursive readers' stack use constant, so no input line can
/// overflow a connection thread's stack.
pub const MAX_NESTING: usize = 64;

/// Parses one JSON document. Rejects trailing non-whitespace and
/// nesting deeper than [`MAX_NESTING`].
///
/// # Errors
///
/// A human-readable message naming the byte offset of the problem.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut lexer = Lexer::new(text);
    let value = parse_value(&mut lexer, 0)?;
    lexer.finish()?;
    Ok(value)
}

/// Builds the tree of the value at the cursor, which sits inside
/// `depth` enclosing arrays or objects.
fn parse_value(lexer: &mut Lexer, depth: usize) -> Result<JsonValue, String> {
    Ok(match lexer.peek() {
        Some(b'{') => {
            let mut members = Vec::new();
            lexer.object(depth, |lexer, key| {
                members.push((key.to_owned(), parse_value(lexer, depth + 1)?));
                Ok(())
            })?;
            JsonValue::Obj(members)
        }
        Some(b'[') => {
            let mut items = Vec::new();
            lexer.array(depth, |lexer| {
                items.push(parse_value(lexer, depth + 1)?);
                Ok(())
            })?;
            JsonValue::Arr(items)
        }
        _ => match lexer.token(depth)? {
            Token::Null => JsonValue::Null,
            Token::Bool(b) => JsonValue::Bool(b),
            Token::Num(number) => JsonValue::Num(number.parse().expect("number tokens parse")),
            Token::Str(s) => JsonValue::Str(s),
            Token::Skipped => unreachable!("arrays and objects are built above"),
        },
    })
}

/// The bound below which every integer a JSON number spells parses to
/// itself: 2^53. A larger one may already be rounded
/// (`9007199254740993` parses as 2^53).
const EXACT: f64 = 9_007_199_254_740_992.0;

/// `v` as an integer, if it is one of magnitude below 2^53.
fn exact_integer(v: f64) -> Option<i64> {
    (v.fract() == 0.0 && v.abs() < EXACT).then_some(v as i64)
}

/// The canonical integer token at `bytes[at..]` — `0`, or an optional
/// minus and at most 15 digits without a leading zero, not followed by
/// more of a number — as its value and end, its bytes fed to `hash` in
/// the loop that reads them; `None` (with `hash` partly fed) at any
/// other token. A canonical token is how `Display` spells its value.
fn canonical_at(bytes: &[u8], at: usize, hash: &mut impl Hasher) -> Option<(i64, usize)> {
    let negative = bytes.get(at) == Some(&b'-');
    let start = at + usize::from(negative);
    if negative {
        hash.write_u8(b'-');
    }
    let (mut end, mut n) = (start, 0i64);
    while let Some(&d @ b'0'..=b'9') = bytes.get(end) {
        n = n.wrapping_mul(10).wrapping_add(i64::from(d - b'0'));
        hash.write_u8(d);
        end += 1;
    }
    let canonical = match &bytes[start..end] {
        [b'0'] => !negative,
        [b'1'..=b'9', rest @ ..] => rest.len() < 15,
        _ => false,
    };
    if !canonical || matches!(bytes.get(end), Some(b'+' | b'-' | b'.' | b'e' | b'E')) {
        return None;
    }
    Some((if negative { -n } else { n }, end))
}

/// The hash of a canonical integer read for its value alone.
#[derive(Clone)]
struct Unhashed;

impl Hasher for Unhashed {
    fn write(&mut self, _: &[u8]) {}

    fn finish(&self) -> u64 {
        0
    }
}

/// The two-digit decimal spellings of 0 to 99, back to back.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `v` in decimal, as `v.to_string()` spells it, two digits
/// per division.
pub(crate) fn push_decimal(out: &mut Vec<u8>, v: i64) {
    let mut digits = [0u8; 20];
    let mut rest = v.unsigned_abs();
    let mut at = digits.len();
    while rest >= 10 {
        let pair = (rest % 100) as usize * 2;
        rest /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if rest > 0 || at == digits.len() {
        at -= 1;
        digits[at] = b'0' + rest as u8;
    }
    if v < 0 {
        out.push(b'-');
    }
    out.extend_from_slice(&digits[at..]);
}

/// The integer a number token (from [`Lexer::number`]) stands for, if
/// it is one of magnitude below 2^53, by the rule of
/// [`Lexer::integer`].
pub(crate) fn integer(token: &str) -> Option<i64> {
    Lexer::new(token).integer().ok().flatten()
}

/// One value read by [`Lexer::token`].
pub(crate) enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its text (it parses as an `f64`).
    Num(&'a str),
    /// A string, unescaped.
    Str(String),
    /// An array or object, read whole and dropped.
    Skipped,
}

/// A pull lexer over one JSON text, shared by [`parse_json`]'s tree
/// builder and the serve protocol's typed request scan, so both accept
/// and refuse the same texts with the same messages. Every read skips
/// the whitespace before its token; a composite value is read through
/// [`Lexer::object`] or [`Lexer::array`], whose callbacks must read
/// each member or element whole.
pub(crate) struct Lexer<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Lexer { text, pos: 0 }
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() && matches!(bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    /// The first byte of the next token, not consumed.
    pub(crate) fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Ends the text: only whitespace may follow the value read.
    pub(crate) fn finish(mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing content at byte {}", self.pos)),
        }
    }

    /// Reads the array or object at the cursor (inside `depth` arrays
    /// or objects) up to its `close` bracket, calling `item` at each
    /// element or member.
    fn sequence(
        &mut self,
        depth: usize,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if depth >= MAX_NESTING {
            return Err(format!(
                "nesting deeper than {MAX_NESTING} levels at byte {}",
                self.pos
            ));
        }
        self.pos += 1;
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    let close = char::from(close);
                    return Err(format!("expected ',' or '{close}' at byte {}", self.pos));
                }
            }
        }
    }

    /// Reads the object at the cursor (inside `depth` arrays or
    /// objects), calling `member` with each key, unescaped, and the
    /// lexer at that member's value.
    pub(crate) fn object(
        &mut self,
        depth: usize,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut key = String::new();
        self.sequence(depth, b'}', |lexer| {
            lexer.skip_ws();
            key.clear();
            lexer.string_into(&mut key, &mut Unhashed)?;
            if lexer.peek() != Some(b':') {
                return Err(format!("expected ':' at byte {}", lexer.pos));
            }
            lexer.pos += 1;
            member(lexer, &key)
        })
    }

    /// Reads the array at the cursor (inside `depth` arrays or
    /// objects), calling `item` with the lexer at each element.
    pub(crate) fn array(
        &mut self,
        depth: usize,
        item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.sequence(depth, b']', item)
    }

    /// Reads the value at the cursor (inside `depth` arrays or
    /// objects): a scalar as its token, an array or object checked
    /// whole and dropped.
    pub(crate) fn token(&mut self, depth: usize) -> Result<Token<'a>, String> {
        let (word, token) = match self.peek() {
            None => return Err("unexpected end of input".into()),
            Some(b'{') => {
                self.object(depth, |lexer, _| lexer.skip(depth + 1))?;
                return Ok(Token::Skipped);
            }
            Some(b'[') => {
                self.array(depth, |lexer| lexer.skip(depth + 1))?;
                return Ok(Token::Skipped);
            }
            Some(b'"') => {
                let mut s = String::new();
                self.string_into(&mut s, &mut Unhashed)?;
                return Ok(Token::Str(s));
            }
            Some(b't') => ("true", Token::Bool(true)),
            Some(b'f') => ("false", Token::Bool(false)),
            Some(b'n') => ("null", Token::Null),
            Some(_) => return self.number().map(Token::Num),
        };
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            self.number().map(Token::Num)
        }
    }

    /// Whether the value at the cursor is read as a number token: it
    /// opens no string, array or object and starts no keyword (a
    /// misspelt keyword is an invalid number).
    pub(crate) fn at_number(&mut self) -> bool {
        !matches!(
            self.peek(),
            None | Some(b'{' | b'[' | b'"' | b't' | b'f' | b'n')
        )
    }

    /// Reads the value at the cursor and drops it.
    pub(crate) fn skip(&mut self, depth: usize) -> Result<(), String> {
        self.token(depth).map(drop)
    }

    /// Reads a number token: the run of `0-9 + - . e E` at the cursor,
    /// which must parse as an `f64`.
    pub(crate) fn number(&mut self) -> Result<&'a str, String> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        // Digits after at most a leading minus always parse.
        let mut plain = true;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'-' if self.pos == start => {}
                b'+' | b'-' | b'.' | b'e' | b'E' => plain = false,
                _ => break,
            }
            self.pos += 1;
        }
        let number = &self.text[start..self.pos];
        let digits = number.len() - usize::from(number.starts_with('-'));
        if (plain && digits > 0) || number.parse::<f64>().is_ok() {
            Ok(number)
        } else {
            Err(format!("invalid number {number:?} at byte {start}"))
        }
    }

    /// Reads a number token and returns the integer it stands for, if it
    /// is one of magnitude below 2^53. A canonical spelling — `0`, or an
    /// optional minus and at most 15 digits without a leading zero — is
    /// read from its digits in the pass that finds its end; any other
    /// (`-0`, `1.0`, `1e2`, `+5`, `007`) through its `f64` value, exactly
    /// as [`JsonValue::as_i64`] reads a parsed tree.
    pub(crate) fn integer(&mut self) -> Result<Option<i64>, String> {
        if let Some((n, end)) = canonical_at(self.text.as_bytes(), self.pos, &mut Unhashed) {
            self.pos = end;
            return Ok(Some(n));
        }
        Ok(exact_integer(
            self.number()?.parse().expect("number tokens parse"),
        ))
    }

    /// Reads the array at the cursor (inside `depth` arrays or objects)
    /// as integers: appends each one below 2^53 in magnitude (by the rule
    /// of [`Lexer::integer`]) to `values`, and its spelling as `Display`
    /// writes it and a comma to `text`, feeding `hash` the same bytes. A
    /// canonical token is already that spelling and is copied as it
    /// stands; any other is spelled from its value. Returns whether every
    /// element was such an integer; once one is not, the rest of the
    /// array is only checked as JSON, and `text` and `hash` are left as
    /// they are.
    ///
    /// A run of canonical tokens each followed straight by a comma (a
    /// whole array but its last element, as `Display` and a `join(",")`
    /// write one) is read in one loop that hashes each digit as it reads
    /// it, so the hash's multiply chain overlaps the reading, and the run
    /// is copied in one piece.
    pub(crate) fn integers<H: Hasher + Clone>(
        &mut self,
        depth: usize,
        values: &mut Vec<i64>,
        text: &mut Vec<u8>,
        hash: &mut H,
    ) -> Result<bool, String> {
        let mut all = true;
        self.sequence(depth, b']', |lexer| {
            lexer.skip_ws();
            if !all {
                return lexer.skip(depth + 1);
            }
            let bytes = lexer.text.as_bytes();
            let run = lexer.pos;
            // The loop works on local copies, which stay in registers.
            let (mut pos, mut fed, mut read) = (run, hash.clone(), std::mem::take(values));
            let ended = loop {
                let mut next = fed.clone();
                let Some((n, end)) = canonical_at(bytes, pos, &mut next) else {
                    break false;
                };
                read.push(n);
                (pos, fed) = (end, next);
                fed.write_u8(b',');
                if bytes.get(pos) != Some(&b',') {
                    break true;
                }
                pos += 1;
            };
            (lexer.pos, *hash, *values) = (pos, fed, read);
            text.extend_from_slice(&bytes[run..pos]);
            if ended {
                // The run's last element; the sequence reads on.
                text.push(b',');
                return Ok(());
            }
            // One element off the run.
            lexer.skip_ws();
            let (at, mut next) = (text.len(), hash.clone());
            if let Some((n, end)) = canonical_at(bytes, lexer.pos, &mut next) {
                values.push(n);
                text.extend_from_slice(&bytes[lexer.pos..end]);
                (lexer.pos, *hash) = (end, next);
            } else if !lexer.at_number() {
                all = false;
                return lexer.skip(depth + 1);
            } else if let Some(n) =
                exact_integer(lexer.number()?.parse().expect("number tokens parse"))
            {
                values.push(n);
                push_decimal(text, n);
                hash.write(&text[at..]);
            } else {
                all = false;
                return Ok(());
            }
            text.push(b',');
            hash.write_u8(b',');
            Ok(())
        })?;
        Ok(all)
    }

    /// Reads the string at the cursor, appending it unescaped to `out`
    /// and feeding `hash` the same bytes, a run or an escape at a time.
    pub(crate) fn string_into(
        &mut self,
        out: &mut String,
        hash: &mut impl Hasher,
    ) -> Result<(), String> {
        let (text, bytes) = (self.text, self.text.as_bytes());
        let pos = &mut self.pos;
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}"));
        }
        *pos += 1;
        let mut pending_high: Option<u16> = None;
        loop {
            let Some(&b) = bytes.get(*pos) else {
                return Err("unterminated string".into());
            };
            // A lone high surrogate not followed by \u.. is malformed.
            if pending_high.is_some() && b != b'\\' {
                return Err(format!("unpaired surrogate before byte {pos}"));
            }
            match b {
                b'"' => {
                    *pos += 1;
                    return Ok(());
                }
                b'\\' => {
                    *pos += 1;
                    let Some(&e) = bytes.get(*pos) else {
                        return Err("unterminated escape".into());
                    };
                    let unescaped = out.len();
                    *pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = bytes
                                .get(*pos..*pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("short \\u escape at byte {pos}"))?;
                            let code = u16::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                            *pos += 4;
                            match (pending_high.take(), code) {
                                (Some(high), 0xDC00..=0xDFFF) => {
                                    let c = 0x10000
                                        + ((u32::from(high) - 0xD800) << 10)
                                        + (u32::from(code) - 0xDC00);
                                    out.push(
                                        char::from_u32(c)
                                            .ok_or_else(|| "bad surrogate pair".to_owned())?,
                                    );
                                }
                                (None, 0xD800..=0xDBFF) => pending_high = Some(code),
                                (None, _) => out.push(
                                    char::from_u32(u32::from(code))
                                        .ok_or_else(|| "bad code point".to_owned())?,
                                ),
                                (Some(_), _) => return Err("unpaired surrogate".into()),
                            }
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                    hash.write(&out.as_bytes()[unescaped..]);
                }
                _ => {
                    // Copy the run up to the next quote or backslash in
                    // one go. Both delimiters are ASCII, so the run ends
                    // on a character boundary of the (valid UTF-8) text.
                    let end = bytes[*pos..]
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\')
                        .map_or(bytes.len(), |n| *pos + n);
                    out.push_str(&text[*pos..end]);
                    hash.write(&bytes[*pos..end]);
                    *pos = end;
                }
            }
        }
    }
}

/// Extracts the raw byte span of the top-level `"result"` member of a
/// serve response — *without* re-serializing, so two responses can be
/// compared byte-for-byte. Returns `None` when the response has no
/// `result` (an error response) or the span is malformed.
pub fn result_field(response: &str) -> Option<&str> {
    let key = "\"result\":";
    let start = response.find(key)? + key.len();
    let bytes = response.as_bytes();
    let mut pos = start;
    while pos < bytes.len() && bytes[pos] == b' ' {
        pos += 1;
    }
    let begin = pos;
    let end = match bytes.get(pos)? {
        b'{' | b'[' => {
            let (open, close) = if bytes[pos] == b'{' {
                (b'{', b'}')
            } else {
                (b'[', b']')
            };
            let mut depth = 0usize;
            let mut in_str = false;
            let mut escaped = false;
            loop {
                let &b = bytes.get(pos)?;
                if in_str {
                    match b {
                        _ if escaped => escaped = false,
                        b'\\' => escaped = true,
                        b'"' => in_str = false,
                        _ => {}
                    }
                } else {
                    match b {
                        b'"' => in_str = true,
                        _ if b == open => depth += 1,
                        _ if b == close => {
                            depth -= 1;
                            if depth == 0 {
                                break pos + 1;
                            }
                        }
                        _ => {}
                    }
                }
                pos += 1;
            }
        }
        b'"' => {
            pos += 1;
            let mut escaped = false;
            loop {
                let &b = bytes.get(pos)?;
                pos += 1;
                match b {
                    _ if escaped => escaped = false,
                    b'\\' => escaped = true,
                    b'"' => break pos,
                    _ => {}
                }
            }
        }
        _ => {
            while pos < bytes.len() && !matches!(bytes[pos], b',' | b'}' | b']' | b'\n') {
                pos += 1;
            }
            pos
        }
    };
    response.get(begin..end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::DesignPoint;
    use corepart_tech::units::{Cycles, Energy, GateEq};

    fn metrics() -> DesignMetrics {
        DesignMetrics {
            icache: Energy::from_microjoules(1.0),
            dcache: Energy::from_microjoules(2.0),
            mem: Energy::from_microjoules(3.0),
            bus: Energy::ZERO,
            up_core: Energy::from_microjoules(4.0),
            asic_core: Some(Energy::from_microjoules(5.0)),
            up_cycles: Cycles::new(100),
            asic_cycles: Cycles::new(50),
            geq: GateEq::new(1234),
            icache_miss_ratio: 0.0125,
            dcache_miss_ratio: 0.5,
        }
    }

    #[test]
    fn metrics_json_well_formed() {
        let j = metrics_to_json(&metrics());
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"geq_cells\":1234"));
        assert!(j.contains("\"total_cycles\":150"));
        // 5 µJ in joules, however the constructor's float rounding and
        // Rust's float printer render it.
        let expected = format!("\"asic_core_j\":{}", Energy::from_microjoules(5.0).joules());
        assert!(j.contains(&expected), "{j}");
        // Balanced braces / quotes.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('"').count() % 2, 0);
    }

    #[test]
    fn null_asic_for_initial_design() {
        let mut m = metrics();
        m.asic_core = None;
        let j = metrics_to_json(&m);
        assert!(j.contains("\"asic_core_j\":null"));
    }

    #[test]
    fn entry_and_table_json() {
        let e = Table1Entry {
            app: "3d \"quoted\"".into(),
            initial: metrics(),
            partitioned: None,
        };
        let j = entry_to_json(&e);
        assert!(j.contains("3d \\\"quoted\\\""));
        assert!(j.contains("\"partitioned\":null"));
        let mut t = Table1::new();
        t.push(e);
        let tj = table1_to_json(&t);
        assert!(tj.starts_with('[') && tj.ends_with(']'));
    }

    #[test]
    fn figure6_json() {
        let pts = vec![Figure6Point {
            app: "mpg".into(),
            energy_saving: 43.2,
            time_change: -52.9,
        }];
        let j = figure6_to_json(&pts);
        assert!(j.contains("\"energy_saving_pct\":43.2"));
        assert!(j.contains("-52.9"));
    }

    #[test]
    fn escaping_control_chars() {
        assert_eq!(json_escape("a\nb"), "a\\nb");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn exploration_json_marks_frontier_membership() {
        let dominated = DesignPoint {
            label: "worse".into(),
            energy: Energy::from_microjoules(10.0),
            cycles: Cycles::new(200),
            geq: GateEq::new(5000),
            saving_percent: -5.0,
            is_initial: false,
        };
        let winner = DesignPoint {
            label: "better".into(),
            energy: Energy::from_microjoules(5.0),
            cycles: Cycles::new(100),
            geq: GateEq::new(1000),
            saving_percent: 50.0,
            is_initial: false,
        };
        let ex = Exploration {
            points: vec![dominated, winner],
        };
        let j = exploration_to_json(&ex);
        assert!(j.starts_with("{\"points\":[") && j.ends_with("]}"));
        assert!(j.contains("\"label\":\"worse\",") && j.contains("\"pareto\":false"));
        assert!(j.contains("\"label\":\"better\",") && j.contains("\"pareto\":true"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn at_variants_are_byte_identical_without_a_point() {
        let ex = Exploration {
            points: vec![DesignPoint {
                label: "p".into(),
                energy: Energy::from_microjoules(5.0),
                cycles: Cycles::new(100),
                geq: GateEq::new(1000),
                saving_percent: 50.0,
                is_initial: false,
            }],
        };
        assert_eq!(exploration_to_json_at(&ex, None), exploration_to_json(&ex));
    }

    #[test]
    fn at_variant_appends_operating_point_member() {
        use crate::system::SystemConfig;
        use corepart_tech::scaling::OperatingPoint;

        let ex = Exploration {
            points: vec![DesignPoint {
                label: "p".into(),
                energy: Energy::from_microjoules(5.0),
                cycles: Cycles::new(100),
                geq: GateEq::new(1000),
                saving_percent: 50.0,
                is_initial: false,
            }],
        };
        let config = SystemConfig::new().with_operating_point(OperatingPoint {
            node_nm: 180,
            vdd: 1.8,
        });
        let rp = config.resolved_point().unwrap().unwrap();
        let j = exploration_to_json_at(&ex, Some(&rp));
        // The base serialization is a prefix modulo the closing brace.
        let base = exploration_to_json(&ex);
        assert!(j.starts_with(&base[..base.len() - 1]), "{j}");
        assert!(j.contains("\"operating_point\":{\"node_nm\":180,\"vdd\":1.8,"));
        assert!(j.contains("\"weights\":{\"energy\":"));
        assert!(j.contains("\"time_s\":"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        // The weighted energy is the base energy times the energy weight.
        let expected = Energy::from_microjoules(5.0).joules() * rp.weights.energy;
        assert!(j.contains(&format!("\"energy_j\":{expected}")), "{j}");
    }

    #[test]
    fn node_exploration_json_shape() {
        use crate::explore::NodePoint;
        use corepart_tech::units::Seconds;

        let base = Exploration {
            points: vec![DesignPoint {
                label: "G = 0.2".into(),
                energy: Energy::from_microjoules(5.0),
                cycles: Cycles::new(100),
                geq: GateEq::new(1000),
                saving_percent: 0.0,
                is_initial: false,
            }],
        };
        let nx = NodeExploration {
            base: base.clone(),
            points: vec![NodePoint {
                label: "G = 0.2 @ 180nm@1.800V".into(),
                node_nm: 180,
                vdd: 1.8,
                base_label: "G = 0.2".into(),
                energy: Energy::from_microjoules(0.5),
                time: Seconds::from_secs(1e-6),
                area_cells: 51.0,
                is_initial: false,
            }],
        };
        let j = node_exploration_to_json(&nx);
        assert!(j.starts_with("{\"base\":{\"points\":["), "{j}");
        assert!(j.contains("\"node_nm\":180"));
        assert!(j.contains("\"area_cells\":51"));
        assert!(j.contains("\"pareto\":true"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn parser_handles_the_protocol_shapes() {
        let v = parse_json(
            r#"{"id":7,"cmd":"partition","source":"app a;\nvar x[4];","weights":[0.0,1.5],"flag":true,"none":null}"#,
        )
        .unwrap();
        assert_eq!(v.get("id").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(v.get("cmd").and_then(JsonValue::as_str), Some("partition"));
        assert_eq!(
            v.get("source").and_then(JsonValue::as_str),
            Some("app a;\nvar x[4];")
        );
        let w = v.get("weights").and_then(JsonValue::as_array).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w[1].as_f64(), Some(1.5));
        assert_eq!(v.get("flag").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parser_round_trips_escaped_strings() {
        let v = parse_json(r#""a\"b\\c\ndA😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA\u{1F600}"));
        // The writer's escaping parses back to the original.
        let original = "line1\nline2\t\"quoted\" \\slash";
        let parsed = parse_json(&format!("\"{}\"", json_escape(original))).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("nope").is_err());
    }

    #[test]
    fn parser_limits_nesting_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&nested(MAX_NESTING)).is_ok());
        let err = parse_json(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        // Far past the limit the parser still answers with an error
        // instead of overflowing the stack.
        let deep = "[".repeat(500_000);
        assert!(parse_json(&deep).unwrap_err().contains("nesting"));
        let objects = "{\"a\":".repeat(MAX_NESTING + 1);
        assert!(parse_json(&objects).unwrap_err().contains("nesting"));
    }

    #[test]
    fn parser_takes_a_one_mebibyte_string() {
        let source: String = "app big; // é 😀 \\ \"q\"\n"
            .chars()
            .cycle()
            .take(1 << 20)
            .collect();
        let line = format!("{{\"source\":\"{}\"}}", json_escape(&source));
        let parsed = parse_json(&line).unwrap();
        assert_eq!(
            parsed.get("source").and_then(JsonValue::as_str),
            Some(&*source)
        );
    }

    #[test]
    fn parser_keeps_its_string_errors() {
        assert_eq!(
            parse_json(r#""\ud83d""#).unwrap_err(),
            "unpaired surrogate before byte 7"
        );
        assert_eq!(
            parse_json(r#""\ud83dx""#).unwrap_err(),
            "unpaired surrogate before byte 7"
        );
        assert_eq!(
            parse_json(r#""\ud83d\u0041""#).unwrap_err(),
            "unpaired surrogate"
        );
        assert_eq!(parse_json(r#""ab\q""#).unwrap_err(), "unknown escape \\q");
        assert_eq!(parse_json("\"abc").unwrap_err(), "unterminated string");
        assert_eq!(parse_json("\"abc\\").unwrap_err(), "unterminated escape");
        assert_eq!(
            parse_json(r#""\u12""#).unwrap_err(),
            "short \\u escape at byte 3"
        );
        assert_eq!(
            parse_json(r#""\ud83d\ude00é""#).unwrap().as_str(),
            Some("😀é")
        );
    }

    /// `integers` against `integer` one element at a time, on arrays of
    /// every token length, sign and spacing: the same values, and the
    /// text and hash of their `Display` spellings.
    #[test]
    fn integers_reads_arrays_as_integer_reads_each_element() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let spellings = ["-0", "007", "1e2", "1.0", "+5", " 4", "5 ", "-", "x"];
        for case in 0..400 {
            let len = (next() % 90) as usize;
            let tokens: Vec<String> = (0..len)
                .map(|_| match next() % 24 {
                    0 => spellings[(next() % 9) as usize].to_owned(),
                    1 => "9007199254740993".to_owned(),
                    k => {
                        let digits = (k as u32 % 16) + 1;
                        let v = (next() % 10u64.pow(digits)) as i64;
                        if next() % 3 == 0 { -v } else { v }.to_string()
                    }
                })
                .collect();
            let text = format!("[{}]", tokens.join(if case % 5 == 0 { ", " } else { "," }));
            let (mut values, mut spelled) = (Vec::new(), Vec::new());
            let mut hash = crate::engine::Fnv64::default();
            let read = Lexer::new(&text).integers(0, &mut values, &mut spelled, &mut hash);
            // The oracle: each element alone through `integer`.
            let expected: Result<Option<Vec<i64>>, String> = tokens
                .iter()
                .map(|t| {
                    let mut lexer = Lexer::new(t.trim());
                    let n = lexer.integer()?;
                    lexer.finish()?;
                    Ok(n)
                })
                .collect::<Result<Vec<_>, String>>()
                .map(|all| all.into_iter().collect());
            match (read, expected) {
                (Ok(true), Ok(Some(expected))) => {
                    assert_eq!(values, expected, "{text}");
                    let display: String = expected.iter().map(|v| format!("{v},")).collect();
                    assert_eq!(String::from_utf8(spelled).unwrap(), display, "{text}");
                    let by_text = crate::corpus::fingerprint64(display.as_bytes());
                    assert_eq!(hash.finish(), by_text, "{text}");
                }
                (Ok(false), Ok(None)) | (Err(_), Err(_)) => {}
                (read, expected) => panic!("{text}: {read:?} vs {expected:?}"),
            }
        }
    }

    #[test]
    fn result_field_extracts_the_raw_span() {
        let resp = r#"{"id":1,"ok":true,"result":{"app":"x","best":{"set":"a}b","list":[1,2]}},"stats":{"shard":0}}"#;
        assert_eq!(
            result_field(resp),
            Some(r#"{"app":"x","best":{"set":"a}b","list":[1,2]}}"#)
        );
        // Error responses have no result.
        assert_eq!(result_field(r#"{"id":2,"ok":false,"error":{}}"#), None);
        // Non-object results.
        assert_eq!(result_field(r#"{"result":null,"x":1}"#), Some("null"));
        assert_eq!(result_field(r#"{"result":"s,tr"}"#), Some("\"s,tr\""));
    }
}
