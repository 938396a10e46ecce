//! Corpus-runner integration tests: the runner's chunked Pareto fold,
//! byte-determinism of the columnar results file, and the
//! interrupt/resume contract (the journal replay must reconstruct the
//! exact run an uninterrupted invocation would have produced).

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use proptest::prelude::*;

use corepart::corpus::{
    evaluate_corpus_entry, point_to_line, run_corpus_with, CorpusEntry, CorpusOptions, CorpusRow,
};
use corepart::engine::Engine;
use corepart::error::CorepartError;
use corepart::explore::{DesignPoint, Exploration};
use corepart::partition::Partitioner;
use corepart::system::SystemConfig;
use corepart_conform::corpus::{gen_entry, run_gen_corpus};
use corepart_tech::units::{Cycles, Energy, GateEq};

/// A unique per-test scratch path (the OS temp dir plus pid + counter).
fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "corepart-corpus-test-{}-{n}-{tag}",
        std::process::id()
    ))
}

/// RAII cleanup for the scratch files a test creates.
struct Scratch(Vec<PathBuf>);

impl Scratch {
    fn path(&mut self, tag: &str) -> PathBuf {
        let p = temp_path(tag);
        self.0.push(p.clone());
        p
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = std::fs::remove_file(p);
        }
    }
}

fn small_options() -> CorpusOptions {
    let mut options = CorpusOptions::new(SystemConfig::new());
    options.chunk = 2;
    options.threads = 2;
    options
}

/// Never called: every chunk of the run is already in its journal.
fn no_entries(index: u64) -> Result<CorpusEntry, CorepartError> {
    unreachable!("entry {index} is journaled")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The runner folds each chunk's points into its running frontier;
    /// for any chunking of a point stream the result is the one-shot
    /// [`Exploration::pareto_frontier`] over the concatenation. The
    /// stream enters as a journal of one chunk per batch, which the
    /// runner resumes and folds chunk by chunk. Small coordinate
    /// ranges force plenty of dominance and coincidence.
    #[test]
    fn incremental_pareto_matches_one_shot(
        raw in prop::collection::vec((0u32..24, 0u64..24, 0u64..24), 1..60),
        batch in 1usize..9,
    ) {
        let points: Vec<DesignPoint> = raw
            .iter()
            .enumerate()
            .map(|(i, &(e, c, g))| DesignPoint {
                label: format!("p{i}"),
                energy: Energy::from_microjoules(f64::from(e)),
                cycles: Cycles::new(c),
                geq: GateEq::new(g),
                saving_percent: 0.0,
                is_initial: false,
            })
            .collect();
        let mut scratch = Scratch(Vec::new());
        let journal = scratch.path("fold.journal");
        let out = scratch.path("fold.tsv");
        let mut options = CorpusOptions::new(SystemConfig::new());
        options.chunk = 1;
        let count = points.chunks(batch).len() as u64;
        // A run stopped before its first chunk writes the journal header.
        options.limit = Some(0);
        run_corpus_with(count, no_entries, &options, &journal, &out, false, None)
            .expect("header written");
        let mut text = String::new();
        for (k, chunk) in points.chunks(batch).enumerate() {
            // One placeholder row per chunk (`chunk = 1`), then its points.
            text.push_str(&format!("chunk\t{k}\nrow\t{k}\t0\tstub"));
            text.push_str(&"\t0".repeat(18));
            text.push('\n');
            for p in chunk {
                text.push_str(&point_to_line(p));
                text.push('\n');
            }
            text.push_str(&format!("end\t{k}\n"));
        }
        std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .and_then(|mut file| file.write_all(text.as_bytes()))
            .expect("chunks appended");
        options.limit = None;
        let outcome = run_corpus_with(count, no_entries, &options, &journal, &out, true, None)
            .expect("journal resumes");
        prop_assert_eq!(outcome.replayed, count);
        let one_shot: Vec<DesignPoint> = Exploration { points }
            .pareto_frontier()
            .into_iter()
            .cloned()
            .collect();
        prop_assert_eq!(outcome.frontier, one_shot);
    }
}

/// Satellite 3 (determinism): the same seed and configuration produce
/// a byte-identical columnar results file across two independent runs.
#[test]
fn same_seed_yields_byte_identical_columnar_file() {
    let mut scratch = Scratch(Vec::new());
    let mut files = Vec::new();
    for run in 0..2 {
        let out = scratch.path(&format!("det-out-{run}.tsv"));
        let journal = scratch.path(&format!("det-journal-{run}"));
        let outcome =
            run_gen_corpus(11, 6, small_options(), &journal, &out, false).expect("corpus runs");
        assert!(outcome.finished);
        assert_eq!(outcome.evaluated, 6);
        files.push(std::fs::read(&out).expect("results file written"));
    }
    assert_eq!(files[0], files[1], "corpus output must be deterministic");
}

/// Satellite 3 (kill-and-resume): a run interrupted after its first
/// chunk and then resumed produces a final results file AND journal
/// byte-identical to an uninterrupted run — the journal replay
/// reconstructs every row and frontier point bit-exactly.
#[test]
fn interrupted_and_resumed_run_matches_uninterrupted() {
    let mut scratch = Scratch(Vec::new());
    let out_a = scratch.path("resume-a.tsv");
    let journal_a = scratch.path("resume-a.journal");
    let full =
        run_gen_corpus(23, 6, small_options(), &journal_a, &out_a, false).expect("corpus runs");
    assert!(full.finished);

    let out_b = scratch.path("resume-b.tsv");
    let journal_b = scratch.path("resume-b.journal");
    let mut interrupted_options = small_options();
    interrupted_options.limit = Some(2);
    let partial = run_gen_corpus(23, 6, interrupted_options, &journal_b, &out_b, false)
        .expect("interrupted run still succeeds");
    assert!(!partial.finished, "the interrupt must stop the run early");
    assert_eq!(partial.chunks_done, 1);
    assert!(!out_b.exists(), "no results file until every chunk is done");

    let resumed =
        run_gen_corpus(23, 6, small_options(), &journal_b, &out_b, true).expect("resume succeeds");
    assert!(resumed.finished);
    assert_eq!(resumed.replayed, 2, "the completed chunk is replayed");
    assert_eq!(resumed.evaluated, 4, "only the missing chunks are computed");

    let read = |p: &PathBuf| std::fs::read(p).expect("file exists");
    assert_eq!(read(&out_a), read(&out_b), "final results files differ");
    assert_eq!(read(&journal_a), read(&journal_b), "journals differ");
}

/// A truncated journal (killed mid-chunk-write) resumes cleanly: the
/// partial trailing chunk is discarded and recomputed.
#[test]
fn truncated_journal_discards_the_partial_chunk() {
    let mut scratch = Scratch(Vec::new());
    let out = scratch.path("trunc.tsv");
    let journal = scratch.path("trunc.journal");
    let mut options = small_options();
    options.limit = Some(4);
    run_gen_corpus(31, 6, options, &journal, &out, false).expect("partial run");

    // Chop the journal mid-way through its second chunk, simulating a
    // kill between the chunk's first write and its `end` marker.
    let text = std::fs::read_to_string(&journal).expect("journal written");
    let second_chunk = text
        .match_indices("\nchunk\t")
        .nth(1)
        .expect("chunk marker")
        .0;
    let cut = text[second_chunk + 1..]
        .find("\nrow\t")
        .map(|i| second_chunk + 1 + i + 8)
        .expect("row line to cut");
    std::fs::write(&journal, &text[..cut]).expect("truncate journal");

    let resumed =
        run_gen_corpus(31, 6, small_options(), &journal, &out, true).expect("resume succeeds");
    assert!(resumed.finished);
    assert!(
        resumed.evaluated >= 4,
        "the truncated chunk must be recomputed, evaluated {}",
        resumed.evaluated
    );

    // And the recovered run still matches a clean one byte for byte.
    let out_clean = scratch.path("trunc-clean.tsv");
    let journal_clean = scratch.path("trunc-clean.journal");
    run_gen_corpus(31, 6, small_options(), &journal_clean, &out_clean, false).expect("clean run");
    assert_eq!(
        std::fs::read(&out).expect("recovered"),
        std::fs::read(&out_clean).expect("clean"),
    );
}

/// A provider error ends the run before its chunk is evaluated, at one
/// thread and with the chunk's entries generated in parallel: the
/// earliest failing index is reported, and the journal holds exactly
/// what a run stopped before that chunk holds — no partial chunk.
#[test]
fn provider_error_reports_the_earliest_index_and_journals_no_partial_chunk() {
    let mut scratch = Scratch(Vec::new());
    let failing = |index: u64| match index {
        5 | 6 => Err(CorepartError::Config {
            message: format!("no entry {index}"),
        }),
        _ => gen_entry(3, index),
    };
    for threads in [1, 2] {
        let mut options = small_options();
        options.chunk = 4;
        options.threads = threads;
        let out = scratch.path(&format!("fail-{threads}.tsv"));
        let journal = scratch.path(&format!("fail-{threads}.journal"));
        let err = run_corpus_with(8, failing, &options, &journal, &out, false, None)
            .expect_err("entry 5 cannot be generated");
        assert!(
            err.to_string().contains("no entry 5"),
            "threads {threads}: {err}"
        );
        assert!(!out.exists());

        let stopped_journal = scratch.path(&format!("stopped-{threads}.journal"));
        let stopped_out = scratch.path(&format!("stopped-{threads}.tsv"));
        options.limit = Some(4);
        let stopped = run_corpus_with(
            8,
            failing,
            &options,
            &stopped_journal,
            &stopped_out,
            false,
            None,
        )
        .expect("the first chunk generates");
        assert_eq!(stopped.chunks_done, 1);
        assert_eq!(
            std::fs::read(&journal).expect("journal written"),
            std::fs::read(&stopped_journal).expect("journal written"),
            "threads {threads}: the failed chunk left lines in the journal"
        );
    }
}

/// Resuming under different parameters (another seed) is refused with
/// a configuration error instead of silently mixing corpora.
#[test]
fn resume_refuses_a_mismatched_journal() {
    let mut scratch = Scratch(Vec::new());
    let out = scratch.path("mismatch.tsv");
    let journal = scratch.path("mismatch.journal");
    let mut options = small_options();
    options.limit = Some(2);
    run_gen_corpus(5, 6, options, &journal, &out, false).expect("partial run");

    let err = run_gen_corpus(6, 6, small_options(), &journal, &out, true)
        .expect_err("seed changed: resume must fail");
    assert!(
        err.to_string().contains("different parameters"),
        "unexpected error: {err}"
    );
}

/// The generator-side provider is itself deterministic and feeds the
/// features the rows record.
#[test]
fn gen_entries_are_deterministic_and_featureful() {
    for index in 0..4 {
        let a = gen_entry(42, index).expect("generates");
        let b = gen_entry(42, index).expect("generates");
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.name, b.name);
        assert_eq!(a.features, b.features);
        assert!(a.features.array_bytes > 0);
    }
}

/// The per-weight reference for [`evaluate_corpus_entry`]: every weight
/// on a fresh engine through its own `Partitioner::run`, one row and
/// one point per outcome, and the minimum-energy row (ties to the
/// earlier weight).
fn per_weight_reference(
    entry: &CorpusEntry,
    options: &CorpusOptions,
) -> (CorpusRow, Vec<DesignPoint>) {
    let mut rows: Vec<CorpusRow> = Vec::new();
    let mut points: Vec<DesignPoint> = Vec::new();
    for &g in &options.g_sweep {
        let base = &options.base;
        let engine = Engine::new(base.clone().with_factors(base.factor_f, g).with_threads(1))
            .expect("engine");
        let session = engine.session(&entry.app, &entry.workload);
        let chain = &session.prepared().expect("prepares").chain;
        let partitioner = Partitioner::new(&session).expect("baseline");
        let outcome = partitioner.run().expect("search");
        if points.is_empty() {
            points.push(DesignPoint {
                label: format!("{} initial", entry.name),
                energy: outcome.initial.total_energy(),
                cycles: outcome.initial.total_cycles(),
                geq: GateEq::ZERO,
                saving_percent: 0.0,
                is_initial: true,
            });
        }
        let (initial_energy, initial_cycles) = (points[0].energy, points[0].cycles);
        let (chosen, hw_clusters, hw_blocks) = match &outcome.best {
            Some((partition, detail)) => (
                &detail.metrics,
                partition.clusters.len() as u32,
                partitioner.hw_set_of(partition).len() as u32,
            ),
            None => (&outcome.initial, 0, 0),
        };
        points.push(DesignPoint {
            label: format!("{} G={g}", entry.name),
            energy: chosen.total_energy(),
            cycles: chosen.total_cycles(),
            geq: chosen.geq,
            saving_percent: (chosen.total_energy())
                .percent_saving(initial_energy)
                .unwrap_or(0.0),
            is_initial: false,
        });
        rows.push(CorpusRow {
            index: entry.index,
            seed: entry.seed,
            name: entry.name.clone(),
            clusters: chain.len() as u32,
            loop_clusters: chain.iter().filter(|c| c.is_loop()).count() as u32,
            loop_depth: entry.features.loop_depth,
            array_bytes: entry.features.array_bytes,
            stmts: entry.features.stmts,
            candidates: outcome.search.candidates as u32,
            estimated: outcome.search.estimated as u32,
            growth_steps: outcome.search.growth_steps as u32,
            verifications: outcome.search.verifications as u32,
            hw_clusters,
            hw_blocks,
            geq_cells: chosen.geq.cells(),
            initial_j: initial_energy.joules(),
            best_j: chosen.total_energy().joules(),
            saving_pct: outcome.energy_saving_percent().unwrap_or(0.0),
            initial_cycles: initial_cycles.count(),
            best_cycles: chosen.total_cycles().count(),
            time_pct: outcome.time_change_percent().unwrap_or(0.0),
        });
    }
    let best = rows
        .into_iter()
        .reduce(|best, row| if row.best_j < best.best_j { row } else { best })
        .expect("non-empty sweep");
    (best, points)
}

/// A corpus entry's `G` sweep runs through the shared factor sweep
/// (one search per weight, one batched verify, then each finish), and
/// its row and points equal the per-weight runs bit for bit.
#[test]
fn corpus_entry_matches_per_weight_runs() {
    let options = CorpusOptions::new(SystemConfig::new());
    let engine = Engine::new(SystemConfig::new().with_threads(1)).expect("engine");
    for index in 0..16 {
        let entry = gen_entry(9, index).expect("generates");
        let (row, points) = evaluate_corpus_entry(&engine, &entry, &options).expect("evaluates");
        let (want_row, want_points) = per_weight_reference(&entry, &options);
        assert_eq!(row.to_line(), want_row.to_line(), "entry {index}: row");
        assert_eq!(points, want_points, "entry {index}: points");
    }
}

/// The weights of one entry share one baseline, so their winners are
/// verified in one walk of its trace: `gen_entry(9, 3)` has two
/// distinct winners, replayed as two lanes of a single walk.
#[test]
fn corpus_entry_walks_its_trace_once() {
    let options = CorpusOptions::new(SystemConfig::new());
    let engine = Engine::new(SystemConfig::new().with_threads(1)).expect("engine");
    let entry = gen_entry(9, 3).expect("generates");
    evaluate_corpus_entry(&engine, &entry, &options).expect("evaluates");
    let session = engine.session(&entry.app, &entry.workload);
    let replay = session
        .replay_engine()
        .expect("pooled baseline")
        .expect("the trace was captured");
    assert_eq!(replay.replays(), 2, "two distinct winners");
    assert_eq!(replay.batches(), 1, "one walk for every winner");
}
