//! Property-based cross-crate tests: randomly generated programs must
//! behave identically on the IR interpreter and the compiled ISS, and
//! the scheduling/binding invariants must hold for arbitrary kernels.

use proptest::prelude::*;

use corepart_ir::interp::Interpreter;
use corepart_ir::lower::lower;
use corepart_ir::parser::parse;
use corepart_isa::codegen::compile;
use corepart_isa::simulator::{NullSink, SimConfig, Simulator};
use corepart_sched::binding::{bind, schedule_cluster, utilization};
use corepart_sched::dfg::BlockDfg;
use corepart_sched::list::list_schedule;
use corepart_tech::resource::{ResourceLibrary, ResourceSet};

/// A random arithmetic expression over `a`, `b`, `c` and literals.
fn arb_expr(depth: u32) -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("a".to_owned()),
        Just("b".to_owned()),
        Just("c".to_owned()),
        (-64i64..64).prop_map(|v| v.to_string()),
    ];
    leaf.prop_recursive(depth, 24, 2, |inner| {
        (inner.clone(), inner, 0usize..10).prop_map(|(l, r, op)| {
            let ops = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"];
            // Mask shift amounts to keep them small and defined.
            if op >= 8 {
                format!("({l} {} ({r} & 7))", ops[op])
            } else {
                format!("({l} {} {r})", ops[op])
            }
        })
    })
}

/// A random program: expression statements over three seeded scalars,
/// a conditional, and a bounded loop.
fn arb_program() -> impl Strategy<Value = String> {
    (
        arb_expr(3),
        arb_expr(3),
        arb_expr(2),
        -40i64..40,
        -40i64..40,
        1i64..12,
    )
        .prop_map(|(e1, e2, cond, va, vb, trips)| {
            format!(
                r#"app prop;
                var out[4];
                func main() {{
                    var a = {va};
                    var b = {vb};
                    var c = 0;
                    for (var i = 0; i < {trips}; i = i + 1) {{
                        a = {e1};
                        if (({cond}) > 0) {{
                            b = {e2};
                        }} else {{
                            b = b + 1;
                        }}
                        c = c + a - b;
                    }}
                    out[0] = a;
                    out[1] = b;
                    out[2] = c;
                    return c;
                }}"#
            )
        })
}

/// An array index outside `x[4]` that no other mapped word shares an
/// address with: `idx` sits just below `x` (so `x[-1]` would alias it
/// and is excluded). The third arm lands exactly on a multiple of 2^32
/// bytes past `x`, where a 32-bit truncated address wraps onto it; the
/// fourth on a multiple of 2^62 words, where the index scaling `i << 2`
/// wraps `i64` onto it.
fn arb_out_of_range_index() -> impl Strategy<Value = i64> {
    prop_oneof![
        4i64..100_000,
        i64::MIN..-1,
        (1i64..1 << 31, -1i64..5).prop_map(|(k, j)| k * (1 << 30) + j),
        (any::<bool>(), 0i64..4).prop_map(|(neg, j)| if neg { -(1i64 << 62) } else { 1 << 62 } + j),
        (1i64 << 29)..i64::MAX,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An out-of-range array access is an error on both the ISS and
    /// the IR interpreter, for loads and stores alike: the ISS never
    /// wraps an effective address onto mapped memory.
    #[test]
    fn out_of_range_indices_fail_on_iss_and_interpreter(
        index in arb_out_of_range_index(),
        store in any::<bool>(),
    ) {
        let access = if store { "x[idx[0]] = 5; return x[0];" } else { "return x[idx[0]];" };
        let src = format!(
            "app oob; var idx[1]; var x[4]; func main() {{ x[0] = 7; x[1] = 9; {access} }}"
        );
        let app = lower(&parse(&src).expect("parses")).expect("lowers");
        let mut interp = Interpreter::new(&app);
        interp.set_array("idx", &[index]).expect("array");
        let ir = interp.run(100_000);

        let prog = compile(&app);
        let mut sim = Simulator::new(&prog, &app);
        sim.set_array("idx", &[index]).expect("array");
        let iss = sim.run(&SimConfig::initial(100_000), &mut NullSink);

        prop_assert!(ir.is_err(), "interpreter accepted index {index}");
        prop_assert_eq!(iss.is_ok(), ir.is_ok(), "index {}: ISS {:?}", index, iss);
    }

    /// The compiled ISS and the IR interpreter are observationally
    /// equivalent on arbitrary programs.
    #[test]
    fn iss_equals_interpreter(src in arb_program()) {
        let app = lower(&parse(&src).expect("generated source parses")).expect("lowers");
        let mut interp = Interpreter::new(&app);
        let profile = interp.run(3_000_000).expect("interpreter terminates");

        let prog = compile(&app);
        let mut sim = Simulator::new(&prog, &app);
        let stats = sim
            .run(&SimConfig::initial(50_000_000), &mut NullSink)
            .expect("ISS terminates");

        prop_assert_eq!(Some(stats.return_value), profile.return_value);
        prop_assert_eq!(
            sim.array("out").expect("array"),
            interp.array("out").expect("array")
        );
    }

    /// Every generated block schedules legally on every feasible
    /// designer set: dependencies respected, capacities never exceeded.
    #[test]
    fn schedules_valid_on_random_programs(src in arb_program()) {
        let app = lower(&parse(&src).expect("parses")).expect("lowers");
        let lib = ResourceLibrary::cmos6();
        for set in ResourceSet::default_family() {
            for bi in 0..app.blocks().len() as u32 {
                let dfg = BlockDfg::build(&app, corepart_ir::op::BlockId(bi));
                let Ok(sched) = list_schedule(&dfg, &set, &lib) else {
                    continue; // infeasible set for this block: fine
                };
                for i in 0..dfg.len() {
                    for &p in &dfg.preds[i] {
                        prop_assert!(
                            sched.slots[i].step >= sched.slots[p].step + sched.slots[p].latency
                        );
                    }
                }
                for (kind, _) in set.iter() {
                    prop_assert!(sched.peak_usage(kind) <= set.count(kind));
                }
            }
        }
    }

    /// Utilization is always in [0, 1] and the bound instance count
    /// never exceeds the designer's set, for arbitrary kernels.
    #[test]
    fn utilization_bounded_on_random_programs(src in arb_program()) {
        let app = lower(&parse(&src).expect("parses")).expect("lowers");
        let profile = Interpreter::new(&app).run(3_000_000).expect("terminates");
        let lib = ResourceLibrary::cmos6();
        let set = &ResourceSet::default_family()[4]; // xl: divider included
        let blocks: Vec<corepart_ir::op::BlockId> =
            (0..app.blocks().len() as u32).map(corepart_ir::op::BlockId).collect();
        let Ok(sched) = schedule_cluster(&app, &blocks, set, &lib) else {
            return Ok(()); // infeasible: nothing to check
        };
        let binding = bind(&sched, &lib);
        for (&k, &n) in &binding.instances {
            prop_assert!(n <= set.count(k), "{k}: {n} > {}", set.count(k));
        }
        let util = utilization(&sched, &binding, &profile, &lib);
        prop_assert!((0.0..=1.0).contains(&util.u_r));
        prop_assert!((0.0..=1.0).contains(&util.u_r_weighted));
    }

    /// Every generated program's structure tree is consistent with its
    /// CFG dominators (the invariant cluster decomposition trusts).
    #[test]
    fn structure_tree_verified_on_random_programs(src in arb_program()) {
        let app = lower(&parse(&src).expect("parses")).expect("lowers");
        let violations = corepart_ir::domtree::verify_structure(&app);
        prop_assert!(violations.is_empty(), "{violations:?}");
    }

    /// gen/use transfer counts are monotone under region growth: a
    /// larger producing region can only generate at least as much.
    #[test]
    fn gen_monotone_under_region_growth(src in arb_program()) {
        use corepart_ir::dataflow::region_gen_use;
        let app = lower(&parse(&src).expect("parses")).expect("lowers");
        let n = app.blocks().len() as u32;
        if n < 2 {
            return Ok(());
        }
        let half: Vec<corepart_ir::op::BlockId> =
            (0..n / 2).map(corepart_ir::op::BlockId).collect();
        let full: Vec<corepart_ir::op::BlockId> =
            (0..n).map(corepart_ir::op::BlockId).collect();
        let gu_half = region_gen_use(&app, &half);
        let gu_full = region_gen_use(&app, &full);
        prop_assert!(gu_half.gen.is_subset(&gu_full.gen));
    }
}

/// Runs `app` on `arrays` at `budget` through the flat profiling loop or
/// the reference loop it replaced.
fn profile_with(
    app: &corepart_ir::cdfg::Application,
    arrays: &[(String, Vec<i64>)],
    budget: u64,
    flat: bool,
) -> Result<corepart_ir::interp::ExecProfile, corepart_ir::error::IrError> {
    let mut interp = Interpreter::new(app);
    for (name, data) in arrays {
        interp.set_array(name, data).unwrap();
    }
    if flat {
        interp.run(budget)
    } else {
        corepart_ir::interp::reference::run(&mut interp, budget)
    }
}

/// The flat profiling interpreter equals the reference loop on all six
/// paper applications and a sample of generated ones: the same
/// `ExecProfile` at an ample budget, and the same error at `steps - 1`,
/// `steps / 2`, and the same profile at exactly `steps`.
#[test]
fn flat_interpreter_matches_the_reference_loop() {
    let mut cases = Vec::new();
    for w in corepart_workloads::all() {
        cases.push((w.source.to_owned(), w.arrays(1)));
    }
    for seed in 0..24 {
        let app = corepart_conform::generate(seed);
        cases.push((app.source(), app.workload_arrays()));
    }
    for (source, arrays) in &cases {
        let app = lower(&parse(source).unwrap()).unwrap();
        let full = profile_with(&app, arrays, u64::MAX, true);
        assert_eq!(
            full,
            profile_with(&app, arrays, u64::MAX, false),
            "{source}"
        );
        let steps = full.unwrap().steps;
        for budget in [steps - 1, steps, steps / 2] {
            let flat = profile_with(&app, arrays, budget, true);
            assert_eq!(
                flat,
                profile_with(&app, arrays, budget, false),
                "{source} at {budget}"
            );
            assert_eq!(flat.is_ok(), budget == steps);
        }
    }
}
