//! Application preparation: profiling, compilation and cluster
//! decomposition — the entry blocks of the Fig. 5 design flow
//! ("Application" → graph → clusters → profiling).

use corepart_ir::cdfg::Application;
use corepart_ir::cluster::{decompose, ClusterChain};
use corepart_ir::interp::{ExecProfile, Interpreter};
use corepart_isa::codegen::{compile_with_profile, MachProgram};

use crate::error::CorepartError;
use crate::system::SystemConfig;

/// Input data of one run: named arrays and their contents.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Workload {
    /// `(array name, contents)` pairs applied before every simulation.
    pub arrays: Vec<(String, Vec<i64>)>,
}

impl Workload {
    /// An empty workload (all arrays zero).
    pub fn empty() -> Self {
        Workload::default()
    }

    /// Builds a workload from an iterator of `(name, data)` pairs.
    pub fn from_arrays<I, S>(arrays: I) -> Self
    where
        I: IntoIterator<Item = (S, Vec<i64>)>,
        S: Into<String>,
    {
        Workload {
            arrays: arrays.into_iter().map(|(n, d)| (n.into(), d)).collect(),
        }
    }
}

/// An application made ready for partitioning: profiled, compiled and
/// decomposed into its cluster chain.
#[derive(Debug, Clone)]
pub struct PreparedApp {
    /// The lowered application.
    pub app: Application,
    /// The compiled µP program (profile-guided register allocation).
    pub prog: MachProgram,
    /// The profiling run (`#ex_times` and toggle statistics, §3.4).
    pub profile: ExecProfile,
    /// The cluster chain (Fig. 2 b).
    pub chain: ClusterChain,
    /// The workload used for profiling and every evaluation.
    pub workload: Workload,
}

impl PreparedApp {
    /// Approximate owned heap footprint, in bytes — the store's
    /// byte-budget charge for keeping a prepared application warm.
    ///
    /// The length of the full `Debug` rendering is used as a
    /// deterministic, structure-proportional proxy: the artifact spans
    /// five heterogeneous substrate types, and an allocator-exact walk
    /// over all of them buys no better eviction decisions. Prepared apps
    /// never grow after construction, so the store measures this once
    /// per admission.
    pub fn heap_bytes(&self) -> usize {
        format!("{self:?}").len()
    }
}

/// Profiles, compiles and decomposes an application.
///
/// # Errors
///
/// [`CorepartError::Ir`] when the profiling interpreter rejects the
/// program or workload (bad array names, non-termination within the
/// configured cycle budget).
pub fn prepare(
    app: Application,
    workload: Workload,
    config: &SystemConfig,
) -> Result<PreparedApp, CorepartError> {
    config.validate()?;
    let app = if config.optimize_ir {
        corepart_ir::opt::optimize(&app).0
    } else {
        app
    };
    let mut interp = Interpreter::new(&app);
    for (name, data) in &workload.arrays {
        interp.set_array(name, data)?;
    }
    let budget = if config.max_cycles == 0 {
        u64::MAX
    } else {
        config.max_cycles
    };
    let profile: ExecProfile = interp.run(budget)?;
    let prog: MachProgram = compile_with_profile(&app, Some(&profile));
    let chain: ClusterChain = decompose(&app);
    Ok(PreparedApp {
        app,
        prog,
        profile,
        chain,
        workload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use corepart_ir::lower::lower;
    use corepart_ir::parser::parse;

    const SRC: &str = r#"app demo; var x[16]; var acc = 0;
        func main() {
            for (var i = 0; i < 16; i = i + 1) { acc = acc + x[i] * 3; }
            return acc;
        }"#;

    #[test]
    fn prepare_produces_all_artifacts() {
        let app = lower(&parse(SRC).unwrap()).unwrap();
        let prepared = prepare(
            app,
            Workload::from_arrays([("x", (0..16).collect::<Vec<i64>>())]),
            &SystemConfig::new(),
        )
        .unwrap();
        assert_eq!(
            prepared.profile.return_value,
            Some((0..16).sum::<i64>() * 3)
        );
        assert!(!prepared.prog.is_empty());
        assert!(!prepared.chain.is_empty());
    }

    #[test]
    fn bad_array_name_errors() {
        let app = lower(&parse(SRC).unwrap()).unwrap();
        let err = prepare(
            app,
            Workload::from_arrays([("nope", vec![1i64])]),
            &SystemConfig::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn workload_constructors() {
        let w = Workload::empty();
        assert!(w.arrays.is_empty());
        let w2 = Workload::from_arrays([("a", vec![1, 2])]);
        assert_eq!(w2.arrays[0].0, "a");
    }
}
