//! Golden-file snapshot tests: the exact JSON the flow and the
//! exploration sweep emit for all six paper workloads, byte for byte.
//!
//! `tests/table1_shape.rs` pins the *qualitative* paper claims (the
//! 35–94 % saving band, the `trick` time trade, the i-cache collapse);
//! these goldens pin the *quantitative* output — every joule, cycle
//! and cell as currently computed. Any change to the numeric pipeline,
//! however small, shows up here as a readable JSON diff instead of
//! slipping through a shape band.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test goldens
//! ```
//!
//! then review the diff like any other code change.

use std::path::PathBuf;

use corepart::corpus::CorpusOptions;
use corepart::engine::Engine;
use corepart::explore::{explore_in, hardware_weight_sweep};
use corepart::flow::DesignFlow;
use corepart::json::corpus_to_json;
use corepart::json::{exploration_to_json, parse_json, table1_to_json, JsonValue};
use corepart::prepare::Workload;
use corepart::report::Table1;
use corepart::serve::EXPLORE_WEIGHTS;
use corepart::system::SystemConfig;
use corepart_conform::corpus::run_gen_corpus;
use corepart_ir::lower::lower;
use corepart_ir::parser::parse;
use corepart_tech::scaling::OperatingPoint;
use corepart_workloads::all;

fn goldens_dir() -> PathBuf {
    // The test is registered from crates/core; goldens live beside the
    // other cross-crate tests.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens")
}

fn update_mode() -> bool {
    std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1")
}

/// Compares `actual` against the committed golden (or rewrites it in
/// update mode), with a first-divergence excerpt on mismatch.
fn assert_golden(name: &str, actual: &str) {
    let path = goldens_dir().join(name);
    if update_mode() {
        std::fs::create_dir_all(goldens_dir()).expect("create goldens dir");
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_GOLDENS=1 cargo test --test goldens",
            path.display()
        )
    });
    if expected != actual {
        let at = expected
            .bytes()
            .zip(actual.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| expected.len().min(actual.len()));
        let lo = at.saturating_sub(60);
        panic!(
            "golden {} diverges at byte {at}:\n  expected …{}…\n  actual   …{}…\n\
             (UPDATE_GOLDENS=1 regenerates after an intentional change)",
            name,
            &expected[lo..(at + 60).min(expected.len())],
            &actual[lo..(at + 60).min(actual.len())],
        );
    }
}

fn file_name(workload: &str) -> String {
    workload
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// One section of the committed `BENCH_partition.json` (`workloads`,
/// `simulator`, ...): its rows, by app label.
fn committed_rows(section: &str) -> Vec<(String, JsonValue)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_partition.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let bench = parse_json(&text).expect("BENCH_partition.json parses");
    bench
        .get(section)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("a `{section}` array"))
        .iter()
        .map(|row| {
            let app = row.get("app").and_then(JsonValue::as_str).expect("app");
            (app.to_owned(), row.clone())
        })
        .collect()
}

/// The committed row of `app` in `rows`.
fn row_of<'a>(rows: &'a [(String, JsonValue)], app: &str) -> &'a JsonValue {
    rows.iter()
        .find(|(label, _)| label == app)
        .map(|(_, row)| row)
        .unwrap_or_else(|| panic!("{app}: no committed row"))
}

#[test]
fn table1_json_matches_golden() {
    let committed = committed_rows("workloads");
    let mut table = Table1::new();
    for w in all() {
        let result = DesignFlow::with_config(SystemConfig::new())
            .run_app(w.app().expect("lowers"), Workload::from_arrays(w.arrays(1)))
            .expect("flow succeeds");
        // The work counts of every app, not only the one CI's
        // perf-smoke step regenerates.
        let row = row_of(&committed, w.name)
            .get("search")
            .expect("search row");
        let s = &result.outcome.search;
        let counted = [
            ("candidates", s.candidates as u64),
            ("estimated", s.estimated as u64),
            ("rejected_by_utilization", s.rejected_by_utilization as u64),
            ("infeasible", s.infeasible as u64),
            ("growth_steps", s.growth_steps as u64),
            ("verifications", s.verifications as u64),
            ("cache_hits", s.cache_hits),
            ("cache_misses", s.cache_misses),
        ];
        for (counter, value) in counted {
            let committed = row.get(counter).and_then(JsonValue::as_u64);
            assert_eq!(Some(value), committed, "{} `{counter}`", w.name);
        }
        table.push(result.table1_entry());
    }
    assert_eq!(table.entries().len(), 6);
    let mut json = table1_to_json(&table);
    json.push('\n');
    assert_golden("table1.json", &json);
}

#[test]
fn native_operating_point_reproduces_table1_golden() {
    // Pinning an explicit operating point at the base process's own
    // node and supply must be a no-op: simulation already runs there,
    // and the native weights are exactly 1.0. The table JSON has to
    // match the committed golden byte for byte.
    let base = SystemConfig::new();
    let native = OperatingPoint::native_of(&base.process);
    let mut table = Table1::new();
    for w in all() {
        let result = DesignFlow::with_config(base.clone().with_operating_point(native))
            .run_app(w.app().expect("lowers"), Workload::from_arrays(w.arrays(1)))
            .expect("flow succeeds");
        table.push(result.table1_entry());
    }
    let mut json = table1_to_json(&table);
    json.push('\n');
    let path = goldens_dir().join("table1.json");
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(expected, json, "native point must not perturb the flow");
}

#[test]
fn corpus_sample_json_matches_golden() {
    // A 32-app generated corpus (run seed 9, the corpus defaults):
    // every row, the aggregate frontier and the feature statistics,
    // byte for byte. This is the regression net over the *generated*
    // workload family — a numeric change anywhere in the flow shows up
    // here across 32 structurally diverse apps at once.
    let out =
        std::env::temp_dir().join(format!("corepart-golden-corpus-{}.tsv", std::process::id()));
    let journal = std::env::temp_dir().join(format!(
        "corepart-golden-corpus-{}.journal",
        std::process::id()
    ));
    let mut options = CorpusOptions::new(SystemConfig::new());
    options.chunk = 8;
    let outcome =
        run_gen_corpus(9, 32, options, &journal, &out, false).expect("corpus run succeeds");
    let journal_text = std::fs::read_to_string(&journal).expect("journal written");
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(&journal);
    // The persisted parameter line: a resume checks it byte for byte,
    // so a journal written by an earlier build must still match it.
    assert_eq!(
        journal_text.lines().nth(1),
        Some(
            "meta\tcount=32 chunk=8 gsweep=[0.0, 0.2, 1.0] provider=gen_seed=9 \
             config=9c9e28fa9452a4e8"
        )
    );
    assert!(outcome.finished);
    assert_eq!(outcome.rows.len(), 32);
    let mut json = corpus_to_json(&outcome);
    json.push('\n');
    assert_golden("corpus_sample.json", &json);
}

#[test]
fn exploration_json_matches_goldens() {
    let workloads = committed_rows("workloads");
    let simulator = committed_rows("simulator");
    for w in all() {
        let app = lower(&parse(w.source).expect("parses")).expect("lowers");
        let workload = Workload::from_arrays(w.arrays(1));
        let configs = hardware_weight_sweep(&EXPLORE_WEIGHTS, &SystemConfig::new());
        let engine = Engine::new(SystemConfig::new()).expect("engine");
        let ex = explore_in(&engine, &app, &workload, &configs).expect("exploration succeeds");
        // One point per weight plus the initial design.
        assert_eq!(ex.points.len(), EXPLORE_WEIGHTS.len() + 1);
        let mut json = exploration_to_json(&ex);
        json.push('\n');
        assert_golden(&format!("explore_{}.json", file_name(w.name)), &json);

        // How often the sweep used its one capture, and the capture's
        // size, as `baseline_perf` records them for every app.
        let session = engine.session(&app, &workload);
        let replay = session
            .replay_engine()
            .expect("pooled baseline")
            .expect("paper workload trace fits the default cap");
        let uses = row_of(&workloads, w.name)
            .get("explore_trace_uses")
            .expect("explore_trace_uses");
        let counted = [
            ("walks", replay.batches()),
            ("replays", replay.replays()),
            ("hits", replay.hits()),
        ];
        for (counter, value) in counted {
            let committed = uses.get(counter).and_then(JsonValue::as_u64);
            assert_eq!(Some(value), committed, "{} `{counter}`", w.name);
        }
        let trace_bytes = row_of(&simulator, w.name)
            .get("trace_bytes")
            .and_then(JsonValue::as_u64);
        assert_eq!(
            Some(replay.trace().heap_bytes() as u64),
            trace_bytes,
            "{} `trace_bytes`",
            w.name
        );
    }
}
