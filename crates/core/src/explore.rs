//! Systematic design-space exploration.
//!
//! §3.5 describes an interactive loop: "the designer will make use of
//! his/her interaction possibilities to provide the partitioning
//! algorithms with different parameters". This module automates that
//! loop: sweep any combination of knobs (resource sets, objective
//! balance, cache geometry), collect every verified design point, and
//! extract the energy/hardware/performance Pareto frontier a designer
//! would actually choose from. One `O(n log n)` staircase computes
//! every frontier in the crate — a sweep's, a node sweep's, the corpus
//! runner's running aggregate, and the JSON writers' `pareto` flags.
//!
//! The sweep is engineered for breadth: every configuration opens one
//! [`Session`](crate::engine::Session) on a shared [`Engine`], whose compute-once artifact
//! pools make configurations that lower the application identically
//! share one preparation pass, configurations whose initial
//! (all-software) design is identical — e.g. a pure objective-factor
//! sweep — share one baseline simulation, and every configuration with
//! the same resource library share one schedule cache. The
//! per-configuration searches run in parallel
//! ([`crate::parallel::par_map`]) on the first configuration's thread
//! count, with results folded in configuration order, so a sweep's
//! points are bit-identical for any thread count.
//! The winners of all configurations that share a captured trace are
//! then verified in one batched replay walk. This is the crate's one
//! factor sweep: the corpus runner's per-entry `G` sweep
//! ([`crate::corpus::evaluate_corpus_entry`]) runs it too.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use corepart_ir::cdfg::Application;
use corepart_ir::op::BlockId;
use corepart_tech::scaling::OperatingPoint;
use corepart_tech::units::{Cycles, Energy, GateEq, Seconds};

use crate::engine::{identity, Engine};
use crate::error::CorepartError;
use crate::parallel::par_map;
use crate::partition::{PartitionOutcome, Partitioner};
use crate::prepare::{PreparedApp, Workload};
use crate::system::{DesignMetrics, ResolvedPoint, SystemConfig};
use crate::verify::ReplayEngine;

/// One explored design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Human-readable description of the knob settings.
    pub label: String,
    /// Total system energy.
    pub energy: Energy,
    /// Total execution cycles.
    pub cycles: Cycles,
    /// Additional hardware.
    pub geq: GateEq,
    /// Energy saving vs the sweep's initial design, percent.
    pub saving_percent: f64,
    /// Whether this point is the all-software design.
    pub is_initial: bool,
}

impl DesignPoint {
    /// True when `self` dominates `other` (no worse on all three
    /// axes, strictly better on at least one).
    pub fn dominates(&self, other: &DesignPoint) -> bool {
        let le = self.energy.joules() <= other.energy.joules()
            && self.cycles <= other.cycles
            && self.geq <= other.geq;
        let lt = self.energy.joules() < other.energy.joules()
            || self.cycles < other.cycles
            || self.geq < other.geq;
        le && lt
    }
}

/// Results of one exploration sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration {
    /// Every evaluated point (including the initial design).
    pub points: Vec<DesignPoint>,
}

impl Exploration {
    /// The Pareto-optimal subset over (energy, cycles, hardware), in
    /// input order. Coincident points (identical on all three axes)
    /// are reported once, keeping the first label.
    pub fn pareto_frontier(&self) -> Vec<&DesignPoint> {
        kept(&self.points, &design_mask(&self.points))
    }

    /// The minimum-energy point.
    pub fn min_energy(&self) -> Option<&DesignPoint> {
        self.points
            .iter()
            .min_by(|a, b| a.energy.joules().total_cmp(&b.energy.joules()))
    }

    /// The minimum-cycles point.
    pub fn min_cycles(&self) -> Option<&DesignPoint> {
        self.points.iter().min_by_key(|p| p.cycles)
    }

    /// Renders the frontier as an aligned table.
    pub fn render_frontier(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>14} {:>12} {:>10} {:>9}\n",
            "design point", "energy", "cycles", "HW cells", "saving%"
        ));
        let mut frontier = self.pareto_frontier();
        frontier.sort_by(|a, b| a.energy.joules().total_cmp(&b.energy.joules()));
        for p in frontier {
            out.push_str(&format!(
                "{:<28} {:>14} {:>12} {:>10} {:>9.1}\n",
                p.label,
                format!("{}", p.energy),
                p.cycles.to_string(),
                p.geq.cells(),
                p.saving_percent,
            ));
        }
        out
    }
}

/// Explores an application over a family of configurations.
///
/// Each configuration is a `(label, SystemConfig)` pair; the sweep
/// opens one [`Session`](crate::engine::Session) per configuration on
/// a single shared [`Engine`] and partitions under each one, recording
/// the chosen design (or the initial design when no partition wins).
/// The initial design of the *first* configuration is included as the
/// baseline point.
///
/// Preparation, the baseline simulation, and the schedule cache are
/// shared across configurations wherever their stage keys allow (see
/// [`crate::engine`]), and the searches run in parallel;
/// the resulting points are identical to running each configuration
/// from scratch, sequentially.
///
/// # Errors
///
/// Propagates preparation/simulation failures; configurations whose
/// search finds nothing contribute their initial design instead.
pub fn explore(
    app: &Application,
    workload: &Workload,
    configs: &[(String, SystemConfig)],
) -> Result<Exploration, CorepartError> {
    explore_in(&first_engine(configs)?, app, workload, configs)
}

/// A private engine on the first configuration.
fn first_engine(configs: &[(String, SystemConfig)]) -> Result<Engine, CorepartError> {
    let (_, config) = configs.first().ok_or_else(no_configs)?;
    Engine::new(config.clone())
}

/// The error of a sweep over no configurations.
fn no_configs() -> CorepartError {
    CorepartError::Config {
        message: "exploration needs at least one configuration".into(),
    }
}

/// Like [`explore`], but running the sweep against a caller-supplied
/// [`Engine`] instead of a private one — every artifact the sweep
/// resolves lands in (and is served from) that engine's pools. The
/// serve-mode artifact store uses this so repeated explorations of the
/// same application skip preparation and the baseline simulation.
///
/// # Errors
///
/// As [`explore`].
pub fn explore_in(
    engine: &Engine,
    app: &Application,
    workload: &Workload,
    configs: &[(String, SystemConfig)],
) -> Result<Exploration, CorepartError> {
    Ok(Exploration {
        points: sweep(engine, app, workload, configs)?.points("initial (all software)", configs),
    })
}

/// What one [`sweep`] produced.
pub(crate) struct Sweep {
    /// The first configuration's prepared application.
    pub(crate) prepared: Arc<PreparedApp>,
    /// Every configuration's outcome, in configuration order; the
    /// first one's `initial` is the sweep's initial design.
    pub(crate) outcomes: Vec<PartitionOutcome>,
}

impl Sweep {
    /// The sweep's design points: the initial design labelled
    /// `initial_label`, then one point per configuration under its
    /// label — the chosen design, or the initial design when no
    /// partition won — with savings against the first configuration's
    /// initial design.
    pub(crate) fn points(
        &self,
        initial_label: &str,
        configs: &[(String, SystemConfig)],
    ) -> Vec<DesignPoint> {
        let initial = &self.outcomes[0].initial;
        let base = initial.total_energy();
        let point = |label: &str, design: &DesignMetrics, is_initial| DesignPoint {
            label: label.to_owned(),
            energy: design.total_energy(),
            cycles: design.total_cycles(),
            // Zero for the initial design.
            geq: design.geq,
            saving_percent: design.total_energy().percent_saving(base).unwrap_or(0.0),
            is_initial,
        };
        let mut points = vec![point(initial_label, initial, true)];
        for ((label, _), outcome) in configs.iter().zip(&self.outcomes) {
            let chosen = outcome
                .best
                .as_ref()
                .map_or(&outcome.initial, |(_, d)| &d.metrics);
            points.push(point(label, chosen, false));
        }
        points
    }
}

/// The one factor sweep, behind [`explore_in`] and
/// [`crate::corpus::evaluate_corpus_entry`]: one search per
/// configuration, one batched replay walk per shared trace for all
/// their winners, then each search's `finish`.
///
/// # Errors
///
/// [`CorepartError::Config`] when `configs` is empty or one is
/// invalid; otherwise the first configuration's (in configuration
/// order) preparation, simulation or verification failure.
pub(crate) fn sweep(
    engine: &Engine,
    app: &Application,
    workload: &Workload,
    configs: &[(String, SystemConfig)],
) -> Result<Sweep, CorepartError> {
    if configs.is_empty() {
        return Err(no_configs());
    }

    // One engine, one session per configuration. Opening sessions is
    // free; the compute-once pools resolve each distinct artifact
    // exactly once even though the workers race for them.
    let identity = identity(app, workload);
    let mut sessions = Vec::with_capacity(configs.len());
    for (_, config) in configs {
        sessions.push(engine.session_at(identity, app, workload, config.clone())?);
    }

    // The sweep runs on its first configuration's thread count: the
    // engine's unless the configuration pins one, as the corpus's
    // threads-1 entries do (the corpus parallelises across entries,
    // so each entry's sweep stays on the calling thread).
    let threads = sessions[0].threads();

    // Phase 1: one *search* per configuration — pre-selection,
    // estimate grid, greedy growth, no verification — in parallel,
    // folded back in configuration order.
    let phases = par_map(&sessions, threads, |_, session| {
        let partitioner = Partitioner::new(session)?;
        let phase = partitioner.search()?;
        Ok::<_, CorepartError>((partitioner, phase))
    });

    // Phase 2: verify every configuration's winner through the
    // batched replay kernel — one walk of the trace per shared replay
    // engine, however many configurations share it (a factor sweep
    // shares one baseline, so its K winners cost one K-lane walk
    // instead of K one-lane walks).
    // Verification *results* are published through each engine's memo;
    // batch errors are dropped here because each configuration's
    // `finish` below reproduces its own error through the normal
    // evaluation path, in configuration order.
    // One entry per shared replay engine: the engine, any member
    // configuration, and every member's winning hardware-block set.
    type WinnerGroup<'a> = (
        &'a Arc<ReplayEngine>,
        &'a SystemConfig,
        Vec<HashSet<BlockId>>,
    );
    let mut groups: Vec<WinnerGroup> = Vec::new();
    for (partitioner, phase) in phases.iter().filter_map(|r| r.as_ref().ok()) {
        let (Some(best), Some(replay)) = (phase.best(), partitioner.replay_engine()) else {
            continue;
        };
        let set = partitioner.hw_set_of(&best.partition);
        // Sessions share a replay engine only when their baseline keys
        // agree, which covers every configuration field
        // the replay consumes — any group member's config verifies
        // every member's winner identically.
        match groups.iter_mut().find(|(e, _, _)| Arc::ptr_eq(e, replay)) {
            Some((_, _, sets)) => sets.push(set),
            None => groups.push((replay, partitioner.config(), vec![set])),
        }
    }
    for (replay, config, sets) in groups {
        let _ = replay.verify_batch_with(config, &sets, threads);
    }

    // Phase 3: close each search (a memo hit when phase 2 pre-seeded
    // the winner) in configuration order — errors surface per
    // configuration exactly as the sequential one-run-per-config loop
    // raised them.
    let outcomes = phases
        .into_iter()
        .map(|result| {
            let (partitioner, phase) = result?;
            partitioner.finish(phase)
        })
        .collect::<Result<_, _>>()?;
    Ok(Sweep {
        prepared: sessions[0].prepared_arc()?,
        outcomes,
    })
}

/// One base design point re-weighed to one operating point — an entry
/// of a (partition × resource set × node × vdd) sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePoint {
    /// `"<base label> @ <node>nm@<vdd>V"`.
    pub label: String,
    /// Technology node in nanometres.
    pub node_nm: u32,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Label of the base design point this entry re-weighs.
    pub base_label: String,
    /// Total system energy at the operating point.
    pub energy: Energy,
    /// Total execution wall time at the operating point.
    pub time: Seconds,
    /// ASIC hardware effort in fractional gate-equivalent cells.
    pub area_cells: f64,
    /// Whether the base point is the all-software design.
    pub is_initial: bool,
}

/// Results of a node×vdd sweep: the base exploration (simulated once,
/// at the base process) and its points re-weighed to every requested
/// operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeExploration {
    /// The base-process exploration the weighting pass consumed.
    pub base: Exploration,
    /// Every (base point × operating point) entry, grouped by node,
    /// then descending vdd, then base-point order.
    pub points: Vec<NodePoint>,
}

impl NodeExploration {
    /// The Pareto-optimal subset over (energy, time, area), in input
    /// order, under the same rule as [`Exploration::pareto_frontier`].
    pub fn pareto_frontier(&self) -> Vec<&NodePoint> {
        kept(&self.points, &node_mask(&self.points))
    }

    /// The minimum-energy point across all operating points.
    pub fn min_energy(&self) -> Option<&NodePoint> {
        self.points
            .iter()
            .min_by(|a, b| a.energy.joules().total_cmp(&b.energy.joules()))
    }

    /// Renders the 3D frontier as an aligned table.
    pub fn render_frontier(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:>14} {:>12} {:>12}\n",
            "design point", "energy", "time", "HW cells"
        ));
        let mut frontier = self.pareto_frontier();
        frontier.sort_by(|a, b| a.energy.joules().total_cmp(&b.energy.joules()));
        for p in frontier {
            out.push_str(&format!(
                "{:<44} {:>14} {:>12} {:>12.1}\n",
                p.label,
                format!("{}", p.energy),
                format!("{}", p.time),
                p.area_cells,
            ));
        }
        out
    }
}

/// Which of `points` are on the (energy, cycles, hardware) Pareto
/// frontier: [`Exploration::pareto_frontier`], the JSON `pareto` flags
/// and the corpus runner's running frontier.
pub(crate) fn design_mask(points: &[DesignPoint]) -> Vec<bool> {
    pareto_mask(points, |p| (F64Key(p.energy.joules()), p.cycles, p.geq))
}

/// Which of `points` are on the (energy, time, area) Pareto frontier.
pub(crate) fn node_mask(points: &[NodePoint]) -> Vec<bool> {
    pareto_mask(points, |p| {
        let (e, t, a) = (p.energy.joules(), p.time.secs(), p.area_cells);
        (F64Key(e), F64Key(t), F64Key(a))
    })
}

/// The members of `points` that `mask` keeps, in input order.
fn kept<'a, T>(points: &'a [T], mask: &[bool]) -> Vec<&'a T> {
    points
        .iter()
        .zip(mask)
        .filter_map(|(p, &keep)| keep.then_some(p))
        .collect()
}

/// Total order on `f64` (`total_cmp`) for the real-valued axes.
#[derive(Clone, Copy, PartialEq)]
struct F64Key(f64);

impl Eq for F64Key {}

impl PartialOrd for F64Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for F64Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The crate's one Pareto frontier over three minimised axes `axes(p)`:
/// `p` is kept unless another point is no worse on every axis and
/// better on one, or an earlier point coincides with it on all three.
///
/// `O(n log n)`: points are visited in (axes, input-order) order, so
/// every point that could disqualify `p` is visited before it, with
/// axis 1 ≤ `p`'s. A staircase of the least axis 3 seen at any axis 2
/// (strictly decreasing) then answers "is an earlier point ≤ `p` on
/// axes 2 and 3" in one ordered-map probe, which is exactly the
/// all-pairs scan's answer.
fn pareto_mask<T, A, B, C>(points: &[T], axes: impl Fn(&T) -> (A, B, C)) -> Vec<bool>
where
    A: Ord,
    B: Ord + Copy,
    C: Ord + Copy,
{
    let keys: Vec<(A, B, C)> = points.iter().map(axes).collect();
    let mut order: Vec<usize> = (0..points.len()).collect();
    // A stable sort: equal keys stay in input order.
    order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));

    let mut staircase: BTreeMap<B, C> = BTreeMap::new();
    let mut keep = vec![false; points.len()];
    for i in order {
        let (_, b, c) = keys[i];
        let covered = staircase
            .range(..=b)
            .next_back()
            .is_some_and(|(_, &least)| least <= c);
        if covered {
            continue;
        }
        keep[i] = true;
        // Insert (b, c) and evict the steps it obsoletes (same or more
        // of both axes), keeping the staircase strictly decreasing.
        let obsolete: Vec<B> = staircase
            .range(b..)
            .take_while(|(_, &step)| step >= c)
            .map(|(&key, _)| key)
            .collect();
        for key in obsolete {
            staircase.remove(&key);
        }
        staircase.insert(b, c);
    }
    keep
}

/// Explores an application over configurations × nodes × vdd points.
///
/// The (partition × resource set) axes cost one [`explore`] sweep at
/// the base process; the (node × vdd) axes are a pure weighting pass
/// over the resulting counts ([`ResolvedPoint::weigh_raw`]) — no
/// further simulation or replay. Each node contributes `vdd_steps`
/// supplies descending from its nominal to its sweep floor
/// (`vdd_steps == 1` → nominal only).
///
/// # Errors
///
/// As [`explore`], plus [`CorepartError::Config`] when `nodes` is empty
/// or names a node absent from the base configuration's scaling table.
pub fn explore_nodes(
    app: &Application,
    workload: &Workload,
    configs: &[(String, SystemConfig)],
    nodes: &[u32],
    vdd_steps: usize,
) -> Result<NodeExploration, CorepartError> {
    let engine = first_engine(configs)?;
    if nodes.is_empty() {
        return Err(CorepartError::Config {
            message: "node sweep needs at least one technology node".into(),
        });
    }
    let base_cfg = &configs[0].1;
    // Resolve every operating point up front so an unknown node or an
    // unusable range fails before any simulation work.
    let mut resolved: Vec<ResolvedPoint> = Vec::new();
    for &node_nm in nodes {
        let row = base_cfg
            .scaling
            .row(node_nm)
            .ok_or_else(|| CorepartError::Config {
                message: format!(
                    "unknown technology node {node_nm}nm (known: {})",
                    base_cfg
                        .scaling
                        .nodes()
                        .iter()
                        .map(|n| n.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            })?;
        for vdd in row.vdd_sweep(&base_cfg.process, vdd_steps) {
            let point = OperatingPoint { node_nm, vdd };
            let weights = base_cfg
                .scaling
                .weights(&base_cfg.process, &point)
                .map_err(|e| CorepartError::Config {
                    message: e.to_string(),
                })?;
            resolved.push(ResolvedPoint {
                point,
                weights,
                base_period: base_cfg.process.clock_period(),
            });
        }
    }

    // One simulated exploration; everything after is arithmetic.
    let base = explore_in(&engine, app, workload, configs)?;
    let mut points = Vec::with_capacity(resolved.len() * base.points.len());
    for rp in &resolved {
        for bp in &base.points {
            let w = rp.weigh_raw(bp.energy, bp.cycles, bp.geq);
            points.push(NodePoint {
                label: format!("{} @ {}", bp.label, rp.point),
                node_nm: rp.point.node_nm,
                vdd: rp.point.vdd,
                base_label: bp.label.clone(),
                energy: w.energy,
                time: w.time,
                area_cells: w.area_cells,
                is_initial: bp.is_initial,
            });
        }
    }
    Ok(NodeExploration { base, points })
}

/// Convenience: the standard sweep over objective hardware weights.
pub fn hardware_weight_sweep(weights: &[f64], base: &SystemConfig) -> Vec<(String, SystemConfig)> {
    weights
        .iter()
        .map(|&g| {
            (
                format!("G = {g}"),
                base.clone().with_factors(base.factor_f, g),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use corepart_ir::lower::lower;
    use corepart_ir::parser::parse;

    const SRC: &str = r#"app explore; var x[96]; var y[96];
        func main() {
            for (var i = 1; i < 95; i = i + 1) {
                y[i] = x[i] * 7 + (x[i - 1] >> 2);
            }
            return y[40];
        }"#;

    fn app() -> Application {
        lower(&parse(SRC).unwrap()).unwrap()
    }

    fn workload() -> Workload {
        Workload::from_arrays([("x", (0..96).collect::<Vec<i64>>())])
    }

    #[test]
    fn sweep_produces_points_and_frontier() {
        let configs = hardware_weight_sweep(&[0.0, 0.2, 2.0], &SystemConfig::new());
        let ex = explore(&app(), &workload(), &configs).expect("sweep runs");
        // initial + 3 sweep points.
        assert_eq!(ex.points.len(), 4);
        let frontier = ex.pareto_frontier();
        assert!(!frontier.is_empty());
        // The minimum-energy point must be on the frontier.
        let min_e = ex.min_energy().expect("non-empty");
        assert!(frontier.iter().any(|p| p.label == min_e.label));
        // The initial point is dominated by a successful partition.
        assert!(ex
            .points
            .iter()
            .any(|p| !p.is_initial && p.energy < ex.points[0].energy));
        let text = ex.render_frontier();
        assert!(text.contains("design point"));
    }

    #[test]
    fn domination_is_strict_partial_order() {
        let a = DesignPoint {
            label: "a".into(),
            energy: Energy::from_microjoules(10.0),
            cycles: Cycles::new(100),
            geq: GateEq::new(0),
            saving_percent: 0.0,
            is_initial: false,
        };
        let b = DesignPoint {
            label: "b".into(),
            energy: Energy::from_microjoules(5.0),
            cycles: Cycles::new(100),
            geq: GateEq::new(0),
            saving_percent: 50.0,
            is_initial: false,
        };
        assert!(b.dominates(&a));
        assert!(!a.dominates(&b));
        assert!(!a.dominates(&a), "irreflexive");
        // Incomparable pair: trade energy for cycles.
        let c = DesignPoint {
            label: "c".into(),
            energy: Energy::from_microjoules(7.0),
            cycles: Cycles::new(50),
            geq: GateEq::new(500),
            saving_percent: 30.0,
            is_initial: false,
        };
        assert!(!b.dominates(&c) && !c.dominates(&b));
    }

    #[test]
    fn empty_config_list_rejected() {
        assert!(explore(&app(), &workload(), &[]).is_err());
    }

    #[test]
    fn node_sweep_reweighs_base_points() {
        let configs = hardware_weight_sweep(&[0.2, 2.0], &SystemConfig::new());
        let nx = explore_nodes(&app(), &workload(), &configs, &[800, 180], 2).expect("sweep runs");
        // 2 nodes x 2 vdd steps x (initial + 2 base points).
        assert_eq!(nx.points.len(), 2 * 2 * nx.base.points.len());
        // Native-point entries reproduce the base exploration bit-exactly.
        let process = SystemConfig::new().process;
        for (np, bp) in nx
            .points
            .iter()
            .filter(|p| p.node_nm == 800 && p.vdd == 5.0)
            .zip(&nx.base.points)
        {
            assert_eq!(np.base_label, bp.label);
            assert_eq!(np.energy.joules().to_bits(), bp.energy.joules().to_bits());
            let native_secs = bp.cycles.count() as f64 * process.clock_period().secs();
            assert_eq!(np.time.secs().to_bits(), native_secs.to_bits());
        }
        // The 3D frontier exists and holds the global energy minimum,
        // which at these factors lives on the smaller node.
        let frontier = nx.pareto_frontier();
        assert!(!frontier.is_empty());
        let min_e = nx.min_energy().expect("non-empty");
        assert_eq!(min_e.node_nm, 180);
        assert!(frontier
            .iter()
            .any(|p| p.label == min_e.label && p.vdd == min_e.vdd));
        let text = nx.render_frontier();
        assert!(text.contains("design point"), "{text}");
    }

    #[test]
    fn node_sweep_rejects_unknown_node_and_empty_list() {
        let configs = hardware_weight_sweep(&[0.2], &SystemConfig::new());
        let err = explore_nodes(&app(), &workload(), &configs, &[123], 2).unwrap_err();
        assert!(err.to_string().contains("unknown technology node 123"));
        assert!(explore_nodes(&app(), &workload(), &configs, &[], 2).is_err());
    }

    #[test]
    fn min_accessors() {
        let configs = hardware_weight_sweep(&[0.2], &SystemConfig::new());
        let ex = explore(&app(), &workload(), &configs).expect("sweep runs");
        assert!(ex.min_energy().is_some());
        assert!(ex.min_cycles().is_some());
    }
}
