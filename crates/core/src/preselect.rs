//! Cluster pre-selection (Fig. 1 line 5).
//!
//! "Line 5 performs a pre-selection of clusters i.e. it preserves only
//! those clusters for a possible partitioning that are expected to
//! yield high energy savings based on the bus traffic calculation"
//! (§3.2). The expensive per-cluster work (list scheduling, binding,
//! utilization — lines 6–13) only runs for the survivors, capped at the
//! designer's `N_max^c`.
//!
//! The expected saving of a cluster is its software-side energy (µP
//! instruction energy attributed to its blocks in the initial run)
//! minus the additional bus-transfer energy of Fig. 3.

use std::collections::HashSet;

use corepart_ir::cluster::ClusterId;
use corepart_isa::simulator::RunStats;
use corepart_tech::units::Energy;

use crate::bus_transfer::{cluster_transfer_energy, transfer_counts, TransferCounts};
use crate::prepare::PreparedApp;
use crate::system::SystemConfig;

/// The pre-selection score of one cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateScore {
    /// Which cluster.
    pub cluster: ClusterId,
    /// µP energy the cluster costs in the initial design.
    pub sw_energy: Energy,
    /// Additional bus-transfer energy if moved to the ASIC core
    /// (standalone, no synergy).
    pub transfer_energy: Energy,
    /// Per-invocation transfer word counts.
    pub transfers: TransferCounts,
    /// How often the cluster is entered per application run.
    pub invocations: u64,
    /// Expected saving: `sw_energy - transfer_energy` (joules).
    pub score: Energy,
}

/// Scores every cluster and keeps the best `n_max` with positive
/// expected savings, sorted by descending score.
pub fn preselect(
    prepared: &PreparedApp,
    initial: &RunStats,
    config: &SystemConfig,
) -> Vec<CandidateScore> {
    let mut scored: Vec<CandidateScore> = prepared
        .chain
        .iter()
        .filter_map(|c| {
            let invocations =
                corepart_ir::cluster::cluster_invocations(&prepared.app, &prepared.profile, c);
            if invocations == 0 {
                return None; // dead code cannot save energy
            }
            let sw_energy = initial.energy_of(&c.blocks);
            let counts = transfer_counts(&prepared.chain, c.id, &HashSet::new());
            let transfer = cluster_transfer_energy(
                &prepared.chain,
                c.id,
                &HashSet::new(),
                invocations,
                &config.bus,
            );
            Some(CandidateScore {
                cluster: c.id,
                sw_energy,
                transfer_energy: transfer,
                transfers: counts,
                invocations,
                score: sw_energy - transfer,
            })
        })
        .filter(|s| s.score.joules() > 0.0)
        .collect();
    scored.sort_by(|a, b| b.score.joules().total_cmp(&a.score.joules()));
    scored.truncate(config.n_max);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::{prepare, Workload};
    use corepart_ir::lower::lower;
    use corepart_ir::parser::parse;
    use corepart_isa::simulator::{NullSink, SimConfig, Simulator};

    fn prepared_and_stats(src: &str) -> (PreparedApp, RunStats) {
        let app = lower(&parse(src).unwrap()).unwrap();
        let prepared = prepare(app, Workload::empty(), &SystemConfig::new()).unwrap();
        let stats = Simulator::new(&prepared.prog, &prepared.app)
            .run(&SimConfig::initial(1_000_000_000), &mut NullSink)
            .unwrap();
        (prepared, stats)
    }

    const TWO_LOOPS: &str = r#"app t; var a[256]; var s = 0; var tiny = 0;
        func main() {
            tiny = 3;
            for (var i = 0; i < 256; i = i + 1) { a[i] = a[i] * 7 + i; }
            for (var j = 0; j < 4; j = j + 1) { s = s + a[j]; }
        }"#;

    #[test]
    fn hot_loop_ranks_first() {
        let (prepared, stats) = prepared_and_stats(TWO_LOOPS);
        let config = SystemConfig::new();
        let cands = preselect(&prepared, &stats, &config);
        assert!(!cands.is_empty());
        // The 256-iteration loop must outrank everything.
        let top = &cands[0];
        let top_cluster = prepared.chain.cluster(top.cluster);
        assert!(top_cluster.is_loop());
        assert!(top.sw_energy.joules() > 0.0);
        // Scores are sorted descending.
        for w in cands.windows(2) {
            assert!(w[0].score.joules() >= w[1].score.joules());
        }
    }

    #[test]
    fn n_max_caps_survivors() {
        let (prepared, stats) = prepared_and_stats(TWO_LOOPS);
        let config = SystemConfig::new().with_n_max(1);
        let cands = preselect(&prepared, &stats, &config);
        assert_eq!(cands.len(), 1);
    }

    #[test]
    fn dead_clusters_dropped() {
        let (prepared, stats) = prepared_and_stats(
            r#"app t; var g = 0; var s = 0;
            func main() {
                if (g > 0) { while (s < 100) { s = s + 1; } }
                s = s + 1;
            }"#,
        );
        let config = SystemConfig::new();
        let cands = preselect(&prepared, &stats, &config);
        // The never-executed while loop must not be a candidate.
        for c in &cands {
            assert!(c.invocations > 0);
        }
    }

    #[test]
    fn transfer_heavy_tiny_clusters_filtered() {
        // A cluster whose transfer energy exceeds its software energy
        // has a negative score and is dropped.
        let (prepared, stats) = prepared_and_stats(
            r#"app t; var a = 1; var b = 2; var c = 3; var d = 4; var o = 0;
            func main() {
                a = b + 1;
                if (o == 0) { o = a + b + c + d; }
                d = o * 2;
            }"#,
        );
        let config = SystemConfig::new();
        let cands = preselect(&prepared, &stats, &config);
        for c in &cands {
            assert!(c.score.joules() > 0.0);
        }
    }
}
