//! System configuration and whole-system design metrics.
//!
//! The target architecture (Fig. 2 a) is a µP core, an I-cache, a
//! D-cache, a main-memory core and (after partitioning) an ASIC core,
//! all on a shared bus. [`SystemConfig`] bundles every model parameter;
//! [`DesignMetrics`] is one row of the paper's Table 1: the per-core
//! energy breakdown plus execution time of a design point.

use corepart_cache::config::CacheConfig;
use corepart_isa::energy::EnergyTable;
use corepart_tech::energy::BusEnergyModel;
use corepart_tech::process::CmosProcess;
use corepart_tech::resource::{ResourceLibrary, ResourceSet};
use corepart_tech::scaling::{NodeScalingTable, OperatingPoint, PointWeights};
use corepart_tech::units::{Cycles, Energy, GateEq, Seconds};

use crate::error::CorepartError;

/// Full configuration of the modelled system and the partitioning
/// algorithm's designer knobs (§3.5: "the designer does have manifold
/// possibilities of interaction").
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Fabrication process (default: CMOS6 0.8µ).
    pub process: CmosProcess,
    /// Datapath resource library (default: CMOS6 library).
    pub library: ResourceLibrary,
    /// Designer-supplied candidate resource sets (3–5, §3.2).
    pub resource_sets: Vec<ResourceSet>,
    /// Instruction-cache geometry.
    pub icache: CacheConfig,
    /// Data-cache geometry.
    pub dcache: CacheConfig,
    /// Main-memory core capacity in bytes.
    pub memory_bytes: usize,
    /// Shared-bus energy model.
    pub bus: BusEnergyModel,
    /// µP instruction-level energy table.
    pub energy_table: EnergyTable,
    /// Simulation cycle guard (0 = unlimited).
    pub max_cycles: u64,
    /// Pre-selection budget `N_max^c` (Fig. 1 line 5).
    pub n_max: usize,
    /// Objective-function energy weight `F` (Fig. 1 line 13).
    pub factor_f: f64,
    /// Objective-function hardware weight (the "…" of line 13).
    pub factor_g: f64,
    /// Hardware-effort normalization `GEQ_0`.
    pub geq_norm: GateEq,
    /// µP cycles per transferred word during µP↔ASIC communication.
    pub comm_cycles_per_word: u64,
    /// Fixed µP handshake cycles per ASIC invocation.
    pub comm_handshake_cycles: u64,
    /// Margin of the Fig.-1-line-9 utilization gate: a candidate passes
    /// when `U_R > gate_margin · U_µP`. The default 0.9 accounts for
    /// the ASIC datapath having no fetch/decode/control overhead in its
    /// utilization denominator — at *equal* rates the ASIC already
    /// dissipates less — while still screening clearly-worse clusters.
    pub gate_margin: f64,
    /// Run the IR optimizer (constant/copy propagation, DCE) before
    /// profiling and codegen. Off by default: the paper's era-typical
    /// embedded compiler produced naive code, and the calibration
    /// assumes it. Turning it on makes the software baseline stronger
    /// (experiment E5).
    pub optimize_ir: bool,
    /// Worker threads for the parallel estimate grid and the
    /// exploration sweep. `0` (the default) resolves automatically:
    /// `COREPART_THREADS`, then the machine's available parallelism.
    /// Results are bit-identical for every value — the knob only trades
    /// wall time.
    pub threads: usize,
    /// Byte cap of the reference-trace capture backing the replay
    /// verification engine ([`crate::verify`]). The initial simulation
    /// records its executed pc stream and load/store addresses (three
    /// `u32` columns: eight bytes per sequential stretch, four per data
    /// access) so every candidate verification replays the capture
    /// instead of re-simulating. When growing the columns would take
    /// their allocated bytes past this cap, the capture is discarded
    /// mid-run and verification transparently falls back to direct
    /// simulation — results are bit-identical either way, only wall
    /// time changes.
    /// `0` disables capture entirely. Default: 128 MiB, comfortably
    /// above the 9.7 MiB (10 152 200 bytes) the longest paper workload
    /// (`ckey`, 5.2 M cycles) needs.
    pub trace_cap_bytes: usize,
    /// Technology-node scaling table resolving [`SystemConfig::operating_point`]
    /// into pure energy/time/area weights (default: the CMOS6-anchored
    /// family).
    pub scaling: NodeScalingTable,
    /// Optional operating point `(node, vdd)` the design is *reported*
    /// at. Simulation and replay always run at the base [`SystemConfig::process`]
    /// — the executed event stream is node-invariant — and the point
    /// enters only as a final weighting pass over the resulting counts
    /// ([`ResolvedPoint::weigh`]). `None` (the default) reports at the
    /// base process's native point, which weighs by exactly 1.
    pub operating_point: Option<OperatingPoint>,
}

impl SystemConfig {
    /// The paper-era default system: CMOS6 process, 8 kB caches, 1 MB
    /// memory, 8 mm bus, the default resource-set family, `F = 1`,
    /// hardware weight 0.2 against a 16 k-cell normalization.
    pub fn new() -> Self {
        let process = CmosProcess::cmos6();
        let library = ResourceLibrary::for_process(&process);
        let bus = BusEnergyModel::analytical(&process, 8.0);
        let energy_table = EnergyTable::for_process(&process);
        SystemConfig {
            process,
            library,
            resource_sets: ResourceSet::default_family(),
            icache: CacheConfig::default_icache(),
            dcache: CacheConfig::default_dcache(),
            memory_bytes: 1 << 20,
            bus,
            energy_table,
            max_cycles: 2_000_000_000,
            n_max: 8,
            factor_f: 1.0,
            factor_g: 0.2,
            geq_norm: GateEq::new(16_000),
            comm_cycles_per_word: 2,
            comm_handshake_cycles: 4,
            gate_margin: 0.9,
            optimize_ir: false,
            threads: 0,
            trace_cap_bytes: 128 << 20,
            scaling: NodeScalingTable::cmos6_family(),
            operating_point: None,
        }
    }

    /// Validates designer knobs.
    ///
    /// # Errors
    ///
    /// [`CorepartError::Config`] on nonsensical values (no resource
    /// sets, zero `n_max`, non-positive factors, zero `GEQ_0`).
    pub fn validate(&self) -> Result<(), CorepartError> {
        let err = |m: &str| {
            Err(CorepartError::Config {
                message: m.to_owned(),
            })
        };
        if self.resource_sets.is_empty() {
            return err("at least one resource set is required");
        }
        if self.n_max == 0 {
            return err("n_max must be positive");
        }
        if self.factor_f <= 0.0 || self.factor_f.is_nan() {
            return err("factor F must be positive");
        }
        if self.factor_g < 0.0 {
            return err("hardware factor must be non-negative");
        }
        if self.geq_norm == GateEq::ZERO {
            return err("GEQ normalization must be non-zero");
        }
        if self.gate_margin <= 0.0 || self.gate_margin.is_nan() {
            return err("utilization gate margin must be positive");
        }
        // An unresolvable operating point (unknown node, vdd outside the
        // DVFS range) is a configuration error, not a panic.
        self.point_weights()?;
        Ok(())
    }

    /// The pure weights of the configured operating point, or the
    /// identity weights when none is set.
    ///
    /// # Errors
    ///
    /// [`CorepartError::Config`] when the point names a node absent from
    /// [`SystemConfig::scaling`] or a supply outside that node's DVFS
    /// range.
    pub fn point_weights(&self) -> Result<PointWeights, CorepartError> {
        match &self.operating_point {
            None => Ok(PointWeights::identity()),
            Some(point) => {
                self.scaling
                    .weights(&self.process, point)
                    .map_err(|e| CorepartError::Config {
                        message: e.to_string(),
                    })
            }
        }
    }

    /// Resolves [`SystemConfig::operating_point`] into a weighting pass,
    /// or `None` when the config reports at the native point.
    ///
    /// # Errors
    ///
    /// Same as [`SystemConfig::point_weights`].
    pub fn resolved_point(&self) -> Result<Option<ResolvedPoint>, CorepartError> {
        match self.operating_point {
            None => Ok(None),
            Some(point) => {
                let weights = self.point_weights()?;
                Ok(Some(ResolvedPoint {
                    point,
                    weights,
                    base_period: self.process.clock_period(),
                }))
            }
        }
    }

    /// Returns a copy with different cache geometries (the §1-footnote
    /// adaptation knob).
    pub fn with_caches(mut self, icache: CacheConfig, dcache: CacheConfig) -> Self {
        self.icache = icache;
        self.dcache = dcache;
        self
    }

    /// Returns a copy with a different objective-function balance.
    pub fn with_factors(mut self, f: f64, g: f64) -> Self {
        self.factor_f = f;
        self.factor_g = g;
        self
    }

    /// Returns a copy with a different pre-selection budget.
    pub fn with_n_max(mut self, n_max: usize) -> Self {
        self.n_max = n_max;
        self
    }

    /// Returns a copy with different candidate resource sets.
    pub fn with_resource_sets(mut self, sets: Vec<ResourceSet>) -> Self {
        self.resource_sets = sets;
        self
    }

    /// The designer resource set at `index` — the checked replacement
    /// for indexing `resource_sets` directly (the CLI's `--set-index`
    /// feeds user input straight into this).
    ///
    /// # Errors
    ///
    /// [`CorepartError::Config`] naming the index and the available
    /// range when `index` is out of bounds.
    pub fn resource_set(&self, index: usize) -> Result<&ResourceSet, CorepartError> {
        self.resource_sets
            .get(index)
            .ok_or_else(|| CorepartError::Config {
                message: format!(
                    "no resource set at index {index}: {} sets are configured (0..={})",
                    self.resource_sets.len(),
                    self.resource_sets.len().saturating_sub(1)
                ),
            })
    }

    /// Returns a copy with an explicit worker-thread count (`0` =
    /// automatic). `1` forces the fully sequential engine; any other
    /// value produces bit-identical results in less wall time.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns a copy with a different reference-trace byte cap (`0`
    /// disables capture; verification then always simulates directly).
    pub fn with_trace_cap(mut self, cap_bytes: usize) -> Self {
        self.trace_cap_bytes = cap_bytes;
        self
    }

    /// Returns a copy reporting at the given operating point.
    pub fn with_operating_point(mut self, point: OperatingPoint) -> Self {
        self.operating_point = Some(point);
        self
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::new()
    }
}

/// An operating point resolved against a config: the point, its three
/// pure weights, and the base clock period that turns cycle counts into
/// seconds. This is the *entire* interface between an operating point
/// and the rest of the stack — simulation, replay and search never see
/// it; it re-weighs their node-invariant counts after the fact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedPoint {
    /// The `(node, vdd)` pair.
    pub point: OperatingPoint,
    /// Energy/time/area multipliers over base-process metrics.
    pub weights: PointWeights,
    /// Clock period of the *base* process the counts were produced at.
    pub base_period: Seconds,
}

impl ResolvedPoint {
    /// Weighs base-process design metrics into this point's
    /// energy/time/area tuple.
    ///
    /// Deterministic pure arithmetic: identical inputs give bit-identical
    /// outputs, which is what lets a node×vdd sweep re-weigh one set of
    /// memoized counts instead of re-simulating, with "re-weighted ==
    /// from-scratch" holding byte-exactly.
    pub fn weigh(&self, metrics: &DesignMetrics) -> WeightedMetrics {
        self.weigh_raw(metrics.total_energy(), metrics.total_cycles(), metrics.geq)
    }

    /// Weighs a raw `(energy, cycles, geq)` triple measured at the base
    /// process.
    pub fn weigh_raw(&self, energy: Energy, cycles: Cycles, geq: GateEq) -> WeightedMetrics {
        WeightedMetrics {
            energy: Energy::from_joules(energy.joules() * self.weights.energy),
            time: Seconds::from_secs(
                cycles.count() as f64 * self.base_period.secs() * self.weights.time,
            ),
            area_cells: geq.cells() as f64 * self.weights.area,
        }
    }
}

/// A design point's totals re-weighed to an operating point. Time is in
/// seconds (not cycles) because different nodes clock differently; area
/// is fractional cells because area factors are real-valued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedMetrics {
    /// Total system energy at the operating point.
    pub energy: Energy,
    /// Total execution wall time at the operating point.
    pub time: Seconds,
    /// ASIC hardware effort in (fractional) gate-equivalent cells.
    pub area_cells: f64,
}

/// One design point's whole-system measurements — a Table 1 row.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignMetrics {
    /// Instruction-cache energy.
    pub icache: Energy,
    /// Data-cache energy.
    pub dcache: Energy,
    /// Main-memory energy.
    pub mem: Energy,
    /// Shared-bus energy (µP↔ASIC communication + ASIC memory
    /// traffic); folded into the `mem` column when printing Table 1.
    pub bus: Energy,
    /// µP core energy (instruction-level + stalls).
    pub up_core: Energy,
    /// ASIC core energy (`None` for the initial design).
    pub asic_core: Option<Energy>,
    /// µP core execution cycles (including miss stalls and
    /// communication).
    pub up_cycles: Cycles,
    /// ASIC core execution cycles.
    pub asic_cycles: Cycles,
    /// Additional hardware effort of the ASIC core.
    pub geq: GateEq,
    /// I-cache miss ratio (for cache-adaptation studies).
    pub icache_miss_ratio: f64,
    /// D-cache miss ratio.
    pub dcache_miss_ratio: f64,
}

impl DesignMetrics {
    /// Total system energy (all cores + bus).
    pub fn total_energy(&self) -> Energy {
        self.icache
            + self.dcache
            + self.mem
            + self.bus
            + self.up_core
            + self.asic_core.unwrap_or(Energy::ZERO)
    }

    /// Total execution time in cycles (µP and ASIC run mutually
    /// exclusively — "whenever one of the cores is performing, all the
    /// other cores are shut down", §3.1).
    pub fn total_cycles(&self) -> Cycles {
        self.up_cycles + self.asic_cycles
    }

    /// Energy saving versus a baseline, in percent (positive = saved).
    pub fn energy_saving_vs(&self, baseline: &DesignMetrics) -> Option<f64> {
        self.total_energy().percent_saving(baseline.total_energy())
    }

    /// Execution-time change versus a baseline in percent (negative =
    /// faster), the paper's "Chg%" column.
    pub fn time_change_vs(&self, baseline: &DesignMetrics) -> Option<f64> {
        self.total_cycles().percent_change(baseline.total_cycles())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(SystemConfig::new().validate().is_ok());
    }

    #[test]
    fn resource_set_rejects_out_of_range_index() {
        let config = SystemConfig::new();
        let n = config.resource_sets.len();
        assert!(config.resource_set(n.saturating_sub(1)).is_ok());
        let err = config.resource_set(99).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("no resource set at index 99"),
            "unexpected message: {message}"
        );
        assert!(message.contains(&format!("{n} sets")), "{message}");
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(SystemConfig::new()
            .with_resource_sets(vec![])
            .validate()
            .is_err());
        assert!(SystemConfig::new().with_n_max(0).validate().is_err());
        assert!(SystemConfig::new()
            .with_factors(0.0, 0.2)
            .validate()
            .is_err());
        assert!(SystemConfig::new()
            .with_factors(1.0, -0.1)
            .validate()
            .is_err());
        let mut c = SystemConfig::new();
        c.geq_norm = GateEq::ZERO;
        assert!(c.validate().is_err());
    }

    fn metrics(up: f64, asic: Option<f64>, upc: u64, ac: u64) -> DesignMetrics {
        DesignMetrics {
            icache: Energy::from_microjoules(10.0),
            dcache: Energy::from_microjoules(5.0),
            mem: Energy::from_microjoules(3.0),
            bus: Energy::from_microjoules(1.0),
            up_core: Energy::from_microjoules(up),
            asic_core: asic.map(Energy::from_microjoules),
            up_cycles: Cycles::new(upc),
            asic_cycles: Cycles::new(ac),
            geq: GateEq::ZERO,
            icache_miss_ratio: 0.0,
            dcache_miss_ratio: 0.0,
        }
    }

    #[test]
    fn native_point_weighs_by_exactly_one() {
        let config = SystemConfig::new().with_operating_point(OperatingPoint {
            node_nm: 800,
            vdd: 5.0,
        });
        let resolved = config.resolved_point().unwrap().unwrap();
        let m = metrics(81.0, None, 1000, 0);
        let w = resolved.weigh(&m);
        assert_eq!(
            w.energy.joules().to_bits(),
            m.total_energy().joules().to_bits()
        );
        let native_secs = m.total_cycles().count() as f64 * config.process.clock_period().secs();
        assert_eq!(w.time.secs().to_bits(), native_secs.to_bits());
        assert_eq!(w.area_cells.to_bits(), (m.geq.cells() as f64).to_bits());
    }

    #[test]
    fn unset_point_resolves_to_identity_weights() {
        let config = SystemConfig::new();
        assert!(config.resolved_point().unwrap().is_none());
        let w = config.point_weights().unwrap();
        assert_eq!((w.energy, w.time, w.area), (1.0, 1.0, 1.0));
    }

    #[test]
    fn bad_operating_points_are_config_errors() {
        let unknown = SystemConfig::new().with_operating_point(OperatingPoint {
            node_nm: 123,
            vdd: 1.0,
        });
        let err = unknown.validate().unwrap_err();
        assert!(err.to_string().contains("unknown technology node"));
        let low_vdd = SystemConfig::new().with_operating_point(OperatingPoint {
            node_nm: 800,
            vdd: 0.5,
        });
        let err = low_vdd.validate().unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");
    }

    #[test]
    fn totals_and_savings() {
        let initial = metrics(81.0, None, 1000, 0);
        let part = metrics(20.0, Some(11.0), 500, 200);
        assert!((initial.total_energy().microjoules() - 100.0).abs() < 1e-9);
        assert!((part.total_energy().microjoules() - 50.0).abs() < 1e-9);
        assert!((part.energy_saving_vs(&initial).unwrap() - 50.0).abs() < 1e-9);
        assert!((part.time_change_vs(&initial).unwrap() + 30.0).abs() < 1e-9);
        assert_eq!(part.total_cycles(), Cycles::new(700));
    }
}
