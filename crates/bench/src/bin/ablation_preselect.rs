//! Ablation **A2** — pre-selection budget `N_max^c` sensitivity.
//!
//! Fig. 1 line 5 keeps at most `N_max` clusters so that the expensive
//! schedule/bind/utilization loop (lines 6–13) stays cheap. This sweep
//! shows how the achieved saving and the number of estimated candidate
//! pairs vary with `N_max ∈ {1, 2, 4, 8}` — the point being that a
//! small budget already reaches the full-quality partition because the
//! bus-traffic measure ranks the right clusters first.
//!
//! ```text
//! cargo run --release -p corepart-bench --bin ablation_preselect
//! ```

use corepart::system::SystemConfig;
use corepart_bench::run_workload;
use corepart_workloads::all;

fn main() {
    println!("A2: pre-selection budget sweep\n");
    println!(
        "{:<8} {:>6} {:>10} {:>12} {:>12}",
        "app", "N_max", "saving%", "estimated", "candidates"
    );
    for w in all() {
        for n_max in [1usize, 2, 4, 8] {
            let config = SystemConfig::new().with_n_max(n_max);
            let result = run_workload(&w, &config);
            let saving = result
                .outcome
                .energy_saving_percent()
                .map(|s| format!("{s:.1}"))
                .unwrap_or_else(|| "--".into());
            println!(
                "{:<8} {:>6} {:>10} {:>12} {:>12}",
                w.name,
                n_max,
                saving,
                result.outcome.search.estimated,
                result.outcome.search.candidates
            );
        }
        println!();
    }
}
