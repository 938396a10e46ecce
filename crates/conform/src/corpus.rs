//! Generated-workload corpus: the [`corepart::corpus`] runner fed by
//! the seeded BDL generator.
//!
//! Where [`crate::runner`] asks "does every engine configuration agree
//! on this generated app?", the corpus asks "what does the flow *do*
//! across thousands of them?" — savings distributions, frontier shape,
//! search-effort statistics — while doubling as a deterministic
//! regression corpus: the same run seed always produces the same apps
//! (via [`crate::runner::case_seed`] and [`crate::gen::generate`]) and
//! therefore a byte-identical columnar results file.

use std::path::Path;

use corepart::corpus::{
    run_corpus_with, source_features, CorpusEntry, CorpusOptions, CorpusOutcome, RemoteOptions,
};
use corepart::error::CorepartError;
use corepart::prepare::Workload;
use corepart_ir::lower::lower;
use corepart_ir::parser::parse;

use crate::gen::generate;
use crate::runner::case_seed;

/// Builds the corpus entry at `index` of the generated corpus rooted
/// at run seed `seed`: derive the case seed, generate the app, parse
/// its rendered source for feature extraction, lower it, and attach
/// the generator's own workload.
///
/// # Errors
///
/// Propagates parse/lower failures — by construction the generator
/// only emits valid BDL, so an error here is itself a finding.
pub fn gen_entry(seed: u64, index: u64) -> Result<CorpusEntry, CorepartError> {
    let case = case_seed(seed, index);
    let gen = generate(case);
    let source = gen.source();
    let program = parse(&source)?;
    let features = source_features(&program);
    let app = lower(&program)?;
    Ok(CorpusEntry {
        index,
        seed: case,
        name: gen.name.clone(),
        source,
        app,
        workload: Workload::from_arrays(gen.workload_arrays()),
        features,
    })
}

/// Runs (or resumes) a generated corpus of `count` apps rooted at
/// `seed` — see [`corepart::corpus::run_corpus_with`] for the journal/resume contract. The
/// provider tag is derived from `seed`, so a journal written for one
/// seed refuses to resume under another.
///
/// # Errors
///
/// Everything [`corepart::corpus::run_corpus_with`] can raise, plus generator parse/lower
/// failures from [`gen_entry`].
pub fn run_gen_corpus(
    seed: u64,
    count: u64,
    options: CorpusOptions,
    journal_path: &Path,
    out_path: &Path,
    resume: bool,
) -> Result<CorpusOutcome, CorepartError> {
    run_gen_corpus_with(seed, count, options, journal_path, out_path, resume, None)
}

/// [`run_gen_corpus`] with an optional remote executor: with
/// `remote = Some(..)` the chunks are shipped to a `corepart serve`
/// daemon as pipelined requests (`conform corpus --connect`), with the
/// journal and TSV byte-identical to a local run.
///
/// # Errors
///
/// Everything [`run_gen_corpus`] can raise, plus connection and
/// protocol failures against the daemon.
#[allow(clippy::too_many_arguments)]
pub fn run_gen_corpus_with(
    seed: u64,
    count: u64,
    mut options: CorpusOptions,
    journal_path: &Path,
    out_path: &Path,
    resume: bool,
    remote: Option<&RemoteOptions>,
) -> Result<CorpusOutcome, CorepartError> {
    options.provider_tag = format!("gen seed={seed}");
    run_corpus_with(
        count,
        |index| gen_entry(seed, index),
        &options,
        journal_path,
        out_path,
        resume,
        remote,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_entry_is_deterministic() {
        let a = gen_entry(7, 3).expect("generates");
        let b = gen_entry(7, 3).expect("generates");
        assert_eq!(a.name, b.name);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.features, b.features);
        assert_eq!(a.seed, case_seed(7, 3));
    }

    #[test]
    fn gen_entry_features_reflect_the_generated_source() {
        let entry = gen_entry(1, 0).expect("generates");
        // Every generated app has at least one array and one statement.
        assert!(entry.features.array_bytes > 0);
        assert!(entry.features.stmts > 0);
    }
}
