//! Cross-crate pipeline consistency: the profiling interpreter, the
//! compiled ISS and the cache hierarchy must agree with each other on
//! every bundled paper workload.

use std::collections::HashSet;

use corepart::system::SystemConfig;
use corepart_ir::cluster::{cluster_invocations, decompose};
use corepart_ir::interp::Interpreter;
use corepart_isa::codegen::compile_with_profile;
use corepart_isa::simulator::{NullSink, SimConfig, Simulator};
use corepart_workloads::all;

const BUDGET: u64 = 400_000_000;

#[test]
fn iss_matches_interpreter_on_all_paper_workloads() {
    for w in all() {
        let app = w.app().expect("lowers");
        let mut interp = Interpreter::new(&app);
        for (name, data) in w.arrays(3) {
            interp.set_array(&name, &data).expect("arrays");
        }
        let profile = interp.run(BUDGET).expect("interpreter run");

        let prog = compile_with_profile(&app, Some(&profile));
        let mut sim = Simulator::new(&prog, &app);
        for (name, data) in w.arrays(3) {
            sim.set_array(&name, &data).expect("arrays");
        }
        let stats = sim
            .run(&SimConfig::initial(BUDGET), &mut NullSink)
            .expect("ISS run");

        assert_eq!(
            Some(stats.return_value),
            profile.return_value,
            "{}: return value mismatch",
            w.name
        );
        // Every array's final contents must agree.
        for info in app.arrays() {
            assert_eq!(
                sim.array(&info.name).expect("exists"),
                interp.array(&info.name).expect("exists"),
                "{}: array `{}` diverged",
                w.name,
                info.name
            );
        }
    }
}

#[test]
fn hw_marking_never_changes_semantics() {
    // Marking any single cluster as hardware must leave all results
    // identical (the ISS executes it functionally either way).
    for w in all() {
        let app = w.app().expect("lowers");
        let mut interp = Interpreter::new(&app);
        for (name, data) in w.arrays(3) {
            interp.set_array(&name, &data).expect("arrays");
        }
        let profile = interp.run(BUDGET).expect("interpreter run");
        let prog = compile_with_profile(&app, Some(&profile));
        let chain = decompose(&app);

        let Some(hot) = chain.iter().find(|c| c.is_loop()) else {
            continue;
        };
        let hw: HashSet<_> = hot.blocks.iter().copied().collect();

        let mut sim = Simulator::new(&prog, &app);
        for (name, data) in w.arrays(3) {
            sim.set_array(&name, &data).expect("arrays");
        }
        let cut = sim
            .run(&SimConfig::partitioned(BUDGET, hw), &mut NullSink)
            .expect("partitioned ISS run");
        assert_eq!(
            Some(cut.return_value),
            profile.return_value,
            "{}: partitioned run changed the result",
            w.name
        );
        // And it must be strictly cheaper for the µP.
        let mut sim2 = Simulator::new(&prog, &app);
        for (name, data) in w.arrays(3) {
            sim2.set_array(&name, &data).expect("arrays");
        }
        let full = sim2
            .run(&SimConfig::initial(BUDGET), &mut NullSink)
            .expect("full ISS run");
        assert!(cut.cycles < full.cycles, "{}", w.name);
        assert!(cut.energy < full.energy, "{}", w.name);
    }
}

#[test]
fn block_attribution_identities_hold() {
    for w in all() {
        let app = w.app().expect("lowers");
        let mut interp = Interpreter::new(&app);
        for (name, data) in w.arrays(3) {
            interp.set_array(&name, &data).expect("arrays");
        }
        let profile = interp.run(BUDGET).expect("interpreter run");
        let prog = compile_with_profile(&app, Some(&profile));
        let mut sim = Simulator::new(&prog, &app);
        for (name, data) in w.arrays(3) {
            sim.set_array(&name, &data).expect("arrays");
        }
        let stats = sim
            .run(&SimConfig::initial(BUDGET), &mut NullSink)
            .expect("ISS run");

        let cycle_sum: u64 = stats.block_cycles.iter().sum();
        assert_eq!(cycle_sum, stats.cycles.count(), "{}", w.name);
        let energy_sum: f64 = stats.block_energy.iter().map(|e| e.joules()).sum();
        // Different accumulation order => bounded float drift.
        assert!(
            (energy_sum - stats.energy.joules()).abs() <= 1e-9 * energy_sum.max(1e-30),
            "{}: block energies don't sum to the total",
            w.name
        );
    }
}

#[test]
fn cluster_invocations_bounded_by_block_counts() {
    for w in all() {
        let app = w.app().expect("lowers");
        let mut interp = Interpreter::new(&app);
        for (name, data) in w.arrays(3) {
            interp.set_array(&name, &data).expect("arrays");
        }
        let profile = interp.run(BUDGET).expect("interpreter run");
        let chain = decompose(&app);
        for c in chain.iter() {
            let inv = cluster_invocations(&app, &profile, c);
            assert!(
                inv <= profile.count(c.entry),
                "{}: {} invocations exceed entry count",
                w.name,
                c.label
            );
            // A cluster that executed must have been invoked.
            if profile.count(c.entry) > 0 {
                assert!(
                    inv > 0,
                    "{}: {} executed but 0 invocations",
                    w.name,
                    c.label
                );
            }
        }
    }
}

#[test]
fn paper_workloads_structurally_verified() {
    // The lowering-recorded structure tree (which cluster decomposition
    // trusts) must agree with dominator facts on every real workload.
    for w in all() {
        let app = w.app().expect("lowers");
        let violations = corepart_ir::domtree::verify_structure(&app);
        assert!(violations.is_empty(), "{}: {violations:?}", w.name);
    }
}

#[test]
fn initial_evaluation_is_deterministic() {
    use corepart::evaluate::evaluate_initial;
    use corepart::prepare::{prepare, Workload};
    let w = corepart_workloads::by_name("engine").expect("engine");
    let config = SystemConfig::new();
    let run = || {
        let prepared = prepare(
            w.app().expect("lowers"),
            Workload::from_arrays(w.arrays(3)),
            &config,
        )
        .expect("prepares");
        let m = evaluate_initial(&prepared, &config, 1)
            .expect("evaluates")
            .metrics;
        (m.total_energy().joules(), m.total_cycles().count())
    };
    assert_eq!(run(), run());
}
