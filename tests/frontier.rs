//! The Pareto frontiers against their definition: a point is on the
//! frontier exactly when no point dominates it and no earlier point
//! coincides with it on all three axes. An all-pairs scan states that
//! rule; both `pareto_frontier`s must agree with it on any point set.

use proptest::prelude::*;

use corepart::explore::{DesignPoint, Exploration, NodeExploration, NodePoint};
use corepart_tech::units::{Cycles, Energy, GateEq, Seconds};

/// The frontier by definition, in `O(n²)`, in input order.
fn by_definition<T>(
    points: &[T],
    dominates: impl Fn(&T, &T) -> bool,
    coincide: impl Fn(&T, &T) -> bool,
) -> Vec<&T> {
    points
        .iter()
        .enumerate()
        .filter(|&(i, p)| {
            !points.iter().any(|q| dominates(q, p)) && !points[..i].iter().any(|q| coincide(q, p))
        })
        .map(|(_, p)| p)
        .collect()
}

/// [`DesignPoint::dominates`]'s rule on the node sweep's axes.
fn node_dominates(a: &NodePoint, b: &NodePoint) -> bool {
    let (a, b) = (node_axes(a), node_axes(b));
    let le = a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2;
    let lt = a.0 < b.0 || a.1 < b.1 || a.2 < b.2;
    le && lt
}

fn node_axes(p: &NodePoint) -> (f64, f64, f64) {
    (p.energy.joules(), p.time.secs(), p.area_cells)
}

/// Coordinates from a small range, so ties on every axis are common,
/// followed by exact copies of some earlier points (coincident points).
fn triples() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    (
        prop::collection::vec((0u32..6, 0u32..6, 0u32..6), 1..40),
        prop::collection::vec(0usize..40, 0..8),
    )
        .prop_map(|(mut raw, copies)| {
            for i in copies {
                raw.push(raw[i % raw.len()]);
            }
            raw
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn design_frontier_matches_the_all_pairs_definition(raw in triples()) {
        let points: Vec<DesignPoint> = raw
            .iter()
            .enumerate()
            .map(|(i, &(e, c, g))| DesignPoint {
                label: format!("p{i}"),
                energy: Energy::from_microjoules(f64::from(e)),
                cycles: Cycles::new(u64::from(c)),
                geq: GateEq::new(u64::from(g)),
                saving_percent: 0.0,
                is_initial: false,
            })
            .collect();
        let expected = by_definition(&points, DesignPoint::dominates, |a, b| {
            (a.energy, a.cycles, a.geq) == (b.energy, b.cycles, b.geq)
        });
        let ex = Exploration { points: points.clone() };
        prop_assert_eq!(ex.pareto_frontier(), expected);
    }

    #[test]
    fn node_frontier_matches_the_all_pairs_definition(raw in triples()) {
        let points: Vec<NodePoint> = raw
            .iter()
            .enumerate()
            .map(|(i, &(e, t, a))| NodePoint {
                label: format!("p{i}"),
                node_nm: 180,
                vdd: 1.8,
                base_label: format!("p{i}"),
                energy: Energy::from_microjoules(f64::from(e) * 0.5),
                time: Seconds::from_secs(f64::from(t) * 1e-6),
                area_cells: f64::from(a) * 1.5,
                is_initial: false,
            })
            .collect();
        let expected = by_definition(&points, node_dominates, |a, b| node_axes(a) == node_axes(b));
        let nx = NodeExploration {
            base: Exploration { points: Vec::new() },
            points: points.clone(),
        };
        prop_assert_eq!(nx.pareto_frontier(), expected);
    }
}
