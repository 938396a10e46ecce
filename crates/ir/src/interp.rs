//! Profiling interpreter for [`Application`]s.
//!
//! The paper obtains `#ex_times` — how often each control step's source
//! region executes — "through profiling" (§3.4, footnote 14), and its
//! gate-level energy verification needs data-dependent switching
//! activity. This interpreter provides both: it executes the CDFG
//! directly on concrete inputs, counting block executions and
//! accumulating per-instruction operand *toggle* statistics (Hamming
//! distance between consecutive operand values), which the
//! `corepart-sched` switching-energy estimator consumes.

use std::collections::HashMap;

use crate::cdfg::Application;
use crate::error::IrError;
use crate::op::{BlockId, Inst, Operand, Terminator, VarId};

/// Per-instruction activity statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpActivity {
    /// How many times the instruction executed.
    pub execs: u64,
    /// Total Hamming distance between consecutive input operand values.
    pub input_toggles: u64,
    /// Total Hamming distance between consecutive result values.
    pub output_toggles: u64,
}

impl OpActivity {
    /// Mean input toggles per execution (0 when never executed).
    pub fn avg_input_toggles(&self) -> f64 {
        if self.execs == 0 {
            0.0
        } else {
            self.input_toggles as f64 / self.execs as f64
        }
    }

    /// Mean output toggles per execution (0 when never executed).
    pub fn avg_output_toggles(&self) -> f64 {
        if self.execs == 0 {
            0.0
        } else {
            self.output_toggles as f64 / self.execs as f64
        }
    }
}

/// The result of one profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecProfile {
    /// Executions of each block, indexed by [`BlockId`].
    pub block_counts: Vec<u64>,
    /// Total executed instructions (plus one per block visit).
    pub steps: u64,
    /// Array loads executed.
    pub loads: u64,
    /// Array stores executed.
    pub stores: u64,
    /// Divisions/remainders with a zero divisor (evaluate to 0).
    pub div_by_zero: u64,
    /// Per-instruction activity, mirroring `blocks[b].insts[i]`.
    pub activity: Vec<Vec<OpActivity>>,
    /// `main`'s return value, if it returned one.
    pub return_value: Option<i64>,
}

impl ExecProfile {
    /// Executions of one block.
    pub fn count(&self, b: BlockId) -> u64 {
        self.block_counts[b.0 as usize]
    }

    /// Total executions of all blocks in `blocks` (e.g. a cluster).
    pub fn region_count(&self, blocks: &[BlockId]) -> u64 {
        blocks.iter().map(|&b| self.count(b)).sum()
    }

    /// How many times a region is *entered* — the execution count of its
    /// entry block. For a cluster this is the paper's per-invocation
    /// multiplier of the bus-transfer scheme (§3.3 a–d).
    pub fn invocations(&self, entry: BlockId) -> u64 {
        self.count(entry)
    }

    /// Dynamic instruction count within `blocks`.
    pub fn region_insts(&self, blocks: &[BlockId]) -> u64 {
        blocks
            .iter()
            .map(|&b| self.count(b) * self.activity[b.0 as usize].len() as u64)
            .sum()
    }
}

/// An interpreter bound to one application.
///
/// ```
/// use corepart_ir::{interp::Interpreter, lower::lower, parser::parse};
///
/// let prog = parse(
///     "app t; var a[4]; func main() { a[3] = a[0] + a[1]; return a[3]; }",
/// )?;
/// let app = lower(&prog)?;
/// let mut interp = Interpreter::new(&app);
/// interp.set_array("a", &[10, 20, 0, 0])?;
/// let profile = interp.run(10_000)?;
/// assert_eq!(profile.return_value, Some(30));
/// assert_eq!(interp.array("a")?[3], 30);
/// # Ok::<(), corepart_ir::error::IrError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Interpreter<'a> {
    app: &'a Application,
    vars: Vec<i64>,
    mem: Vec<i64>,
    array_index: HashMap<String, usize>,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter with zeroed memory and variables.
    pub fn new(app: &'a Application) -> Self {
        let array_index = app
            .arrays()
            .iter()
            .enumerate()
            .map(|(i, a)| (a.name.clone(), i))
            .collect();
        Interpreter {
            app,
            vars: vec![0; app.vars().len()],
            mem: vec![0; app.memory_words() as usize],
            array_index,
        }
    }

    /// The application being interpreted.
    pub fn app(&self) -> &Application {
        self.app
    }

    /// Sets the contents of a named array (input data).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Interp`] when the array does not exist or
    /// `data` is longer than the array.
    pub fn set_array(&mut self, name: &str, data: &[i64]) -> Result<(), IrError> {
        let &idx = self.array_index.get(name).ok_or_else(|| IrError::Interp {
            message: format!("no array named `{name}`"),
        })?;
        let info = &self.app.arrays()[idx];
        if data.len() > info.len as usize {
            return Err(IrError::Interp {
                message: format!(
                    "array `{name}` holds {} words, {} given",
                    info.len,
                    data.len()
                ),
            });
        }
        let base = info.base_word as usize;
        self.mem[base..base + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads the contents of a named array (e.g. to check outputs).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Interp`] when the array does not exist.
    pub fn array(&self, name: &str) -> Result<&[i64], IrError> {
        let &idx = self.array_index.get(name).ok_or_else(|| IrError::Interp {
            message: format!("no array named `{name}`"),
        })?;
        let info = &self.app.arrays()[idx];
        let base = info.base_word as usize;
        Ok(&self.mem[base..base + info.len as usize])
    }

    /// Reads the current value of a named variable.
    pub fn var(&self, name: &str) -> Option<i64> {
        let idx = self
            .app
            .vars()
            .iter()
            .position(|v| v.name.as_deref() == Some(name))?;
        Some(self.vars[idx])
    }

    fn value(&self, op: Operand) -> i64 {
        match op {
            Operand::Var(v) => self.vars[v.0 as usize],
            Operand::Const(c) => c,
        }
    }

    /// Runs the application from its entry, profiling as it goes.
    ///
    /// Variables are reset (globals to their initializers); memory is
    /// kept, so call [`Interpreter::set_array`] first to provide inputs.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Interp`] when `max_steps` is exceeded (likely
    /// a non-terminating program) or an array index is out of bounds.
    pub fn run(&mut self, max_steps: u64) -> Result<ExecProfile, IrError> {
        self.reset_vars();
        let app = self.app;
        let blocks = app.blocks();
        // One flat state array over every instruction, block `b`'s
        // starting at `offsets[b]`.
        let mut offsets = Vec::with_capacity(blocks.len() + 1);
        offsets.push(0);
        for block in blocks {
            offsets.push(offsets[offsets.len() - 1] + block.insts.len());
        }
        let mut state = vec![InstState::default(); offsets[blocks.len()]];
        let mut profile = ExecProfile {
            block_counts: vec![0; blocks.len()],
            steps: 0,
            loads: 0,
            stores: 0,
            div_by_zero: 0,
            activity: Vec::new(),
            return_value: None,
        };

        let mut cur = app.entry();
        loop {
            let bi = cur.0 as usize;
            let block = &blocks[bi];
            let insts = &mut state[offsets[bi]..offsets[bi + 1]];
            profile.block_counts[bi] += 1;
            // `steps <= max_steps` on entry. A block that cannot cross
            // the budget checks it once; one that would checks every
            // instruction, failing exactly where a per-step check does.
            if max_steps - profile.steps > insts.len() as u64 {
                profile.steps += 1 + insts.len() as u64;
                for (inst, st) in block.insts.iter().zip(insts) {
                    self.exec(inst, st, &mut profile)?;
                }
            } else {
                profile.steps += 1;
                check_budget(profile.steps, max_steps)?;
                for (inst, st) in block.insts.iter().zip(insts) {
                    profile.steps += 1;
                    check_budget(profile.steps, max_steps)?;
                    self.exec(inst, st, &mut profile)?;
                }
            }
            match &block.term {
                Terminator::Jump(b) => cur = *b,
                Terminator::Branch {
                    cond,
                    then_block,
                    else_block,
                } => {
                    cur = if self.value(*cond) != 0 {
                        *then_block
                    } else {
                        *else_block
                    };
                }
                Terminator::Return(op) => {
                    profile.return_value = op.map(|o| self.value(o));
                    profile.activity = offsets
                        .windows(2)
                        .map(|w| state[w[0]..w[1]].iter().map(|st| st.activity).collect())
                        .collect();
                    return Ok(profile);
                }
            }
        }
    }

    /// Resets variables: globals to their initializers, the rest to 0.
    fn reset_vars(&mut self) {
        self.vars.iter_mut().for_each(|v| *v = 0);
        for &(v, init) in self.app.globals_init() {
            self.vars[v.0 as usize] = init;
        }
    }

    /// Executes one instruction and accounts it in `st` and `profile`.
    #[inline]
    fn exec(
        &mut self,
        inst: &Inst,
        st: &mut InstState,
        profile: &mut ExecProfile,
    ) -> Result<(), IrError> {
        let (in1, in2, out) = self.eval(inst, profile)?;
        st.activity.execs += 1;
        st.activity.input_toggles += hamming(st.last_in.0, in1) + hamming(st.last_in.1, in2);
        st.activity.output_toggles += hamming(st.last_out, out);
        st.last_in = (in1, in2);
        st.last_out = out;
        Ok(())
    }

    /// Executes one instruction, counting loads, stores and zero
    /// divisors in `profile`; returns its two input operand values and
    /// its result, as the toggle statistics see them.
    #[inline]
    fn eval(&mut self, inst: &Inst, profile: &mut ExecProfile) -> Result<(i64, i64, i64), IrError> {
        Ok(match inst {
            Inst::Const { dst, value } => {
                self.vars[dst.0 as usize] = *value;
                (0, 0, *value)
            }
            Inst::Copy { dst, src } => {
                let v = self.value(*src);
                self.vars[dst.0 as usize] = v;
                (v, 0, v)
            }
            Inst::Unary { dst, op, src } => {
                let a = self.value(*src);
                let r = op.eval(a);
                self.vars[dst.0 as usize] = r;
                (a, 0, r)
            }
            Inst::Binary { dst, op, lhs, rhs } => {
                let a = self.value(*lhs);
                let b = self.value(*rhs);
                if matches!(op, crate::op::BinOp::Div | crate::op::BinOp::Rem) && b == 0 {
                    profile.div_by_zero += 1;
                }
                let r = op.eval(a, b);
                self.vars[dst.0 as usize] = r;
                (a, b, r)
            }
            Inst::Load { dst, array, index } => {
                let idx = self.value(*index);
                let addr = self.check_addr(*array, idx)?;
                let v = self.mem[addr];
                self.vars[dst.0 as usize] = v;
                profile.loads += 1;
                (idx, 0, v)
            }
            Inst::Store {
                array,
                index,
                value,
            } => {
                let idx = self.value(*index);
                let v = self.value(*value);
                let addr = self.check_addr(*array, idx)?;
                self.mem[addr] = v;
                profile.stores += 1;
                (idx, v, v)
            }
            Inst::Call { .. } => {
                return Err(IrError::Interp {
                    message: "Call instructions must be inlined before interpretation".into(),
                });
            }
        })
    }

    fn check_addr(&self, array: crate::op::ArrayId, idx: i64) -> Result<usize, IrError> {
        let info = self.app.array(array);
        if idx < 0 || idx as u64 >= u64::from(info.len) {
            return Err(IrError::Interp {
                message: format!(
                    "index {idx} out of bounds for array `{}` of length {}",
                    info.name, info.len
                ),
            });
        }
        Ok(info.base_word as usize + idx as usize)
    }
}

/// One instruction's profiling state: its activity and the operand
/// values it last saw, for toggle counting.
#[derive(Debug, Clone, Copy, Default)]
struct InstState {
    activity: OpActivity,
    last_in: (i64, i64),
    last_out: i64,
}

/// The step-budget error once `steps` has passed `max_steps`.
fn check_budget(steps: u64, max_steps: u64) -> Result<(), IrError> {
    if steps > max_steps {
        return Err(IrError::Interp {
            message: format!("exceeded {max_steps} steps (non-terminating program?)"),
        });
    }
    Ok(())
}

fn hamming(a: i64, b: i64) -> u64 {
    u64::from((a ^ b).count_ones())
}

/// The profiling loop [`Interpreter::run`] replaced: three nested
/// per-block tables and a budget check per instruction, around the same
/// instruction semantics. Kept as the specification the flat loop is
/// held equal to, by the unit tests and the cross-crate interpreter
/// test (`conform` feature only). Not part of the supported API
/// surface.
#[cfg(any(test, feature = "conform"))]
pub mod reference {
    use super::{hamming, ExecProfile, Interpreter, OpActivity};
    use crate::error::IrError;
    use crate::op::Terminator;

    /// Runs `interp`'s application as [`Interpreter::run`] does.
    ///
    /// # Errors
    ///
    /// As [`Interpreter::run`].
    pub fn run(interp: &mut Interpreter<'_>, max_steps: u64) -> Result<ExecProfile, IrError> {
        interp.reset_vars();
        let blocks = interp.app.blocks();
        let mut profile = ExecProfile {
            block_counts: vec![0; blocks.len()],
            steps: 0,
            loads: 0,
            stores: 0,
            div_by_zero: 0,
            activity: blocks
                .iter()
                .map(|b| vec![OpActivity::default(); b.insts.len()])
                .collect(),
            return_value: None,
        };
        // Last-seen operand values per instruction for toggle counting.
        let mut last_inputs: Vec<Vec<(i64, i64)>> = blocks
            .iter()
            .map(|b| vec![(0i64, 0i64); b.insts.len()])
            .collect();
        let mut last_outputs: Vec<Vec<i64>> =
            blocks.iter().map(|b| vec![0i64; b.insts.len()]).collect();

        let mut cur = interp.app.entry();
        loop {
            profile.block_counts[cur.0 as usize] += 1;
            profile.steps += 1;
            if profile.steps > max_steps {
                return Err(IrError::Interp {
                    message: format!("exceeded {max_steps} steps (non-terminating program?)"),
                });
            }
            let bi = cur.0 as usize;
            for (ii, inst) in interp.app.block(cur).insts.iter().enumerate() {
                profile.steps += 1;
                if profile.steps > max_steps {
                    return Err(IrError::Interp {
                        message: format!("exceeded {max_steps} steps (non-terminating program?)"),
                    });
                }
                let (in1, in2, out) = interp.eval(inst, &mut profile)?;
                let act = &mut profile.activity[bi][ii];
                act.execs += 1;
                let (l1, l2) = last_inputs[bi][ii];
                act.input_toggles += hamming(l1, in1) + hamming(l2, in2);
                act.output_toggles += hamming(last_outputs[bi][ii], out);
                last_inputs[bi][ii] = (in1, in2);
                last_outputs[bi][ii] = out;
            }
            match &interp.app.block(cur).term {
                Terminator::Jump(b) => cur = *b,
                Terminator::Branch {
                    cond,
                    then_block,
                    else_block,
                } => {
                    cur = if interp.value(*cond) != 0 {
                        *then_block
                    } else {
                        *else_block
                    };
                }
                Terminator::Return(op) => {
                    profile.return_value = op.map(|o| interp.value(o));
                    return Ok(profile);
                }
            }
        }
    }
}

#[allow(dead_code)]
fn _unused_var_id(_: VarId) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::parser::parse;

    fn app(src: &str) -> Application {
        lower(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn runs_arithmetic() {
        let a = app("app t; func main() { var x = 6; var y = 7; return x * y; }");
        let p = Interpreter::new(&a).run(1000).unwrap();
        assert_eq!(p.return_value, Some(42));
    }

    #[test]
    fn loop_counts_blocks() {
        let a = app(
            "app t; var acc = 0; func main() { for (var i = 0; i < 10; i = i + 1) { acc = acc + i; } return acc; }",
        );
        let p = Interpreter::new(&a).run(10_000).unwrap();
        assert_eq!(p.return_value, Some(45));
        // The loop body block executed exactly 10 times.
        let loop_node = a.structure().iter().find(|n| n.is_loop()).unwrap();
        let body_counts: Vec<u64> = loop_node.blocks().iter().map(|&b| p.count(b)).collect();
        assert!(body_counts.contains(&10), "{body_counts:?}");
        // Header ran 11 times (10 taken + 1 exit).
        assert!(body_counts.contains(&11), "{body_counts:?}");
    }

    #[test]
    fn arrays_io() {
        let a = app(
            "app t; var x[4]; var y[4]; func main() { for (var i = 0; i < 4; i = i + 1) { y[i] = x[i] * 2; } }",
        );
        let mut it = Interpreter::new(&a);
        it.set_array("x", &[1, 2, 3, 4]).unwrap();
        let p = it.run(10_000).unwrap();
        assert_eq!(it.array("y").unwrap(), &[2, 4, 6, 8]);
        assert_eq!(p.loads, 4);
        assert_eq!(p.stores, 4);
    }

    #[test]
    fn globals_initialized_each_run() {
        let a = app("app t; var g = 5; func main() { g = g + 1; return g; }");
        let mut it = Interpreter::new(&a);
        assert_eq!(it.run(100).unwrap().return_value, Some(6));
        // Re-running resets g to 5 again.
        assert_eq!(it.run(100).unwrap().return_value, Some(6));
    }

    #[test]
    fn function_calls_execute() {
        let a = app(r#"app t;
            func square(x) { return x * x; }
            func main() { return square(3) + square(4); }"#);
        let p = Interpreter::new(&a).run(1000).unwrap();
        assert_eq!(p.return_value, Some(25));
    }

    #[test]
    fn conditional_both_arms() {
        let a = app(r#"app t; var out[2];
            func main() {
                for (var i = 0; i < 2; i = i + 1) {
                    if (i == 0) { out[i] = 10; } else { out[i] = 20; }
                }
            }"#);
        let mut it = Interpreter::new(&a);
        it.run(1000).unwrap();
        assert_eq!(it.array("out").unwrap(), &[10, 20]);
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let a = app("app t; var g = 1; func main() { while (g > 0) { g = 1; } }");
        let err = Interpreter::new(&a).run(500).unwrap_err();
        assert!(err.to_string().contains("exceeded"));
    }

    #[test]
    fn out_of_bounds_is_error() {
        let a = app("app t; var b[2]; func main() { b[5] = 1; }");
        let err = Interpreter::new(&a).run(100).unwrap_err();
        assert!(err.to_string().contains("out of bounds"));
    }

    #[test]
    fn div_by_zero_counted_not_fatal() {
        let a = app("app t; var z = 0; func main() { var x = 7 / z; return x; }");
        let p = Interpreter::new(&a).run(100).unwrap();
        assert_eq!(p.return_value, Some(0));
        assert_eq!(p.div_by_zero, 1);
    }

    #[test]
    fn activity_counts_toggles() {
        // Alternating data maximizes toggles; constant data minimizes.
        let a = app(
            "app t; var x[8]; var acc = 0; func main() { for (var i = 0; i < 8; i = i + 1) { acc = acc + x[i]; } return acc; }",
        );
        let mut hot = Interpreter::new(&a);
        hot.set_array("x", &[0, -1, 0, -1, 0, -1, 0, -1]).unwrap();
        let p_hot = hot.run(10_000).unwrap();
        let mut cold = Interpreter::new(&a);
        cold.set_array("x", &[0, 0, 0, 0, 0, 0, 0, 0]).unwrap();
        let p_cold = cold.run(10_000).unwrap();
        let toggles = |p: &ExecProfile| -> u64 {
            p.activity
                .iter()
                .flatten()
                .map(|a| a.input_toggles + a.output_toggles)
                .sum()
        };
        assert!(toggles(&p_hot) > toggles(&p_cold));
        assert_eq!(p_hot.return_value, Some(-4));
    }

    #[test]
    fn region_helpers() {
        let a = app(
            "app t; var acc = 0; func main() { for (var i = 0; i < 5; i = i + 1) { acc = acc + 1; } }",
        );
        let p = Interpreter::new(&a).run(1000).unwrap();
        let loop_node = a.structure().iter().find(|n| n.is_loop()).unwrap();
        let region = loop_node.blocks();
        assert!(p.region_count(region) > 5);
        assert!(p.region_insts(region) >= 10);
        assert_eq!(p.invocations(region[0]), 6); // header: 5 taken + 1 exit
    }

    #[test]
    fn set_array_validates() {
        let a = app("app t; var b[2]; func main() { }");
        let mut it = Interpreter::new(&a);
        assert!(it.set_array("nope", &[1]).is_err());
        assert!(it.set_array("b", &[1, 2, 3]).is_err());
        assert!(it.set_array("b", &[1]).is_ok());
        assert!(it.array("nope").is_err());
    }

    /// Runs `a` on `inputs` at `budget` through the flat loop or the
    /// reference loop; returns the outcome and the final memory.
    fn profiled(
        a: &Application,
        inputs: &[(&str, Vec<i64>)],
        budget: u64,
        flat: bool,
    ) -> (Result<ExecProfile, IrError>, Vec<i64>) {
        let mut it = Interpreter::new(a);
        for (name, data) in inputs {
            it.set_array(name, data).unwrap();
        }
        let outcome = if flat {
            it.run(budget)
        } else {
            reference::run(&mut it, budget)
        };
        (outcome, it.mem.clone())
    }

    #[test]
    fn flat_loop_matches_the_reference_loop() {
        let cases = [
            (
                "app t; var x[8]; var acc = 0; func main() { for (var i = 0; i < 8; i = i + 1) { acc = acc + x[i] / (x[i] - 3); } return acc; }",
                vec![("x", vec![0, -1, 3, -1, 7, -9, 3, 1i64 << 40])],
            ),
            (
                r#"app t; var out[4]; var g = 2;
                func f(v) { return v * g - 1; }
                func main() {
                    for (var i = 0; i < 4; i = i + 1) {
                        if (i % 2 == 0) { out[i] = f(i); } else { out[i] = -f(i); }
                    }
                    return out[3];
                }"#,
                vec![],
            ),
            // An out-of-bounds store part-way through a block.
            (
                "app t; var b[2]; func main() { var s = 0; for (var i = 0; i < 4; i = i + 1) { s = s + i; b[i] = s; } return s; }",
                vec![],
            ),
            ("app t; func main() { }", vec![]),
        ];
        for (src, inputs) in &cases {
            let a = app(src);
            let (full, _) = profiled(&a, inputs, 1 << 20, false);
            let steps = full.as_ref().map_or(40, |p| p.steps);
            let mut budgets = vec![0, 1, steps / 2, steps, steps + 1, 1 << 20, u64::MAX];
            budgets.extend((1..=6).map(|d| steps.saturating_sub(d)));
            for budget in budgets {
                let flat = profiled(&a, inputs, budget, true);
                assert_eq!(
                    flat,
                    profiled(&a, inputs, budget, false),
                    "{src} at {budget}"
                );
            }
        }
    }

    #[test]
    fn var_lookup() {
        let a = app("app t; var g = 3; func main() { g = 9; }");
        let mut it = Interpreter::new(&a);
        it.run(100).unwrap();
        assert_eq!(it.var("g"), Some(9));
        assert_eq!(it.var("missing"), None);
    }
}
