//! # corepart-bench
//!
//! Experiment-regeneration harness for the `corepart` reproduction of
//! Henkel's DAC'99 low-power partitioning paper.
//!
//! Each binary regenerates one artifact of the paper's evaluation
//! (see DESIGN.md's experiment index):
//!
//! | binary                 | artifact |
//! |------------------------|----------|
//! | `table1`               | Table 1 — per-application energy/time breakdown |
//! | `fig6`                 | Figure 6 — savings / time-change bar series |
//! | `ablation_weighted_ur` | §3.4 note — GEQ-weighted vs uniform `U_R` |
//! | `ablation_preselect`   | §3.2 — pre-selection budget `N_max` sweep |
//! | `ablation_factor_f`    | §3.2/§4 — objective-function factor sweep |
//! | `ablation_cache_adapt` | §1 — cache re-tuning after partitioning |
//! | `baseline_perf`        | §2 — performance-driven partitioning baseline |
//! | `ablation_scheduler`   | extension A6 — list vs force-directed scheduling |
//! | `ablation_voltage`     | extension E1 — node × vdd re-weighting of the chosen partition |
//! | `kernel_sweep`         | extension E2 — DSP micro-kernel suite |
//! | `ablation_multicore`   | extension E3 — multi-ASIC-core split |
//! | `ablation_chaining`    | extension E4 — operator chaining |
//! | `ablation_compiler`    | extension E5 — software-compiler quality |
//!
//! The algorithms themselves (parse + lower, decomposition, gen/use,
//! list scheduling + binding, cache simulation, the estimate phase, the
//! search and a corpus entry) are timed by the interleaved A/B harness
//! in `ab/` (a package of its own, run by `ab/ab.sh <parent-rev>`), which
//! links a parent revision and the working tree into one process. Both
//! it and `baseline_perf` head their reports with [`host_json`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::process::Command;

use corepart::flow::{DesignFlow, FlowResult};
use corepart::json::json_escape;
use corepart::prepare::Workload;
use corepart::system::SystemConfig;
use corepart_workloads::{all, PaperWorkload};

/// The deterministic input seed every experiment uses.
pub const SEED: u64 = 1;

/// Runs the full design flow on one paper workload.
///
/// # Panics
///
/// Panics when the bundled workload fails to simulate — that is a bug,
/// not an input condition.
pub fn run_workload(w: &PaperWorkload, config: &SystemConfig) -> FlowResult {
    let app = w.app().unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let workload = Workload::from_arrays(w.arrays(SEED));
    let mut result = DesignFlow::with_config(config.clone())
        .run_app(app, workload)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    // Report under the paper's row label rather than the DSL app name.
    result.app_name = w.name.to_owned();
    result
}

/// Runs the full design flow on all six applications.
pub fn run_all(config: &SystemConfig) -> Vec<FlowResult> {
    all().iter().map(|w| run_workload(w, config)).collect()
}

/// `(median, min, max)` of a non-empty sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median_min_max(mut xs: Vec<f64>) -> (f64, f64, f64) {
    xs.sort_by(f64::total_cmp);
    (xs[xs.len() / 2], xs[0], xs[xs.len() - 1])
}

/// The checkout's revision: `git describe --always --dirty` run in the
/// current directory (a short hash, `-dirty` when the tree has
/// uncommitted changes), or `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    command_line("git", &["describe", "--always", "--dirty"])
}

/// The `"host"` JSON object a timing report starts with: the CPUs this
/// process may use, the measured revisions (`revs`, label and revision),
/// `rustc -V` and the repetitions behind each timed cell.
pub fn host_json(revs: &[(&str, &str)], reps: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let revs: Vec<String> = revs
        .iter()
        .map(|(label, rev)| format!("\"{label}\":\"{}\"", json_escape(rev)))
        .collect();
    format!(
        "{{\"nproc\":{nproc},{},\"rustc\":\"{}\",\"reps\":{reps}}}",
        revs.join(","),
        json_escape(&command_line("rustc", &["-V"])),
    )
}

/// The first line `program args` prints, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_an_odd_sample() {
        assert_eq!(median_min_max(vec![3.0, 1.0, 2.0]), (2.0, 1.0, 3.0));
    }

    #[test]
    fn host_block_names_every_revision() {
        let host = host_json(&[("parent", "abc"), ("change", "def")], 21);
        let parsed = corepart::json::parse_json(&host).expect("host block is JSON");
        assert_eq!(parsed.get("parent").and_then(|v| v.as_str()), Some("abc"));
        assert_eq!(parsed.get("change").and_then(|v| v.as_str()), Some("def"));
        assert_eq!(parsed.get("reps").and_then(|v| v.as_u64()), Some(21));
        assert!(parsed.get("nproc").and_then(|v| v.as_u64()) >= Some(1));
    }

    #[test]
    fn harness_runs_smallest_app() {
        let w = corepart_workloads::by_name("engine").expect("engine");
        let result = run_workload(&w, &SystemConfig::new());
        assert_eq!(result.app_name, "engine");
        assert!(result.outcome.initial.total_energy().joules() > 0.0);
    }
}
