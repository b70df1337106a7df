//! Complete simulation scenarios: deployment + connectivity + boundary
//! knowledge.
//!
//! A [`Scenario`] bundles everything the coverage experiments need: the
//! communication graph handed to the algorithms, the ground-truth positions
//! kept by the simulator for verification, and the boundary-node flags the
//! paper assumes each node knows (Sec. III-A).
//!
//! ## Boundary knowledge substitution
//!
//! The paper obtains boundary flags from a location-free boundary
//! recognition system (its reference \[13\]) and explicitly treats them as an
//! input assumption. Our simulator knows ground truth, so
//! [`boundary_band`] plays that role: a node is a *boundary node* iff it
//! lies within the periphery band of width `band` along the rim of the
//! network region; everything else is an *internal node*. The target area is
//! the region shrunk by the band width, matching the paper's requirement of
//! a periphery band of width ≥ `Rc` between the sensing-area boundary and
//! the target-area edge.

use confine_graph::{Graph, NodeId};
use rand::Rng;

use crate::deployment::{self, Deployment};
use crate::geometry::{Point, Rect};
use crate::radio::CommModel;

/// A fully specified simulation instance.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The communication graph (the only thing the algorithms may inspect).
    pub graph: Graph,
    /// Ground-truth positions, index-aligned with graph nodes. Used for
    /// verification and rendering only.
    pub positions: Vec<Point>,
    /// Maximum communication range `Rc`.
    pub rc: f64,
    /// Boundary flag per node (`true` = periphery-band node).
    pub boundary: Vec<bool>,
    /// The deployment region (network sensing area's bounding box).
    pub region: Rect,
    /// The target area `A_tar` that must be covered.
    pub target: Rect,
}

impl Scenario {
    /// Node ids flagged as boundary nodes.
    pub fn boundary_nodes(&self) -> Vec<NodeId> {
        self.boundary
            .iter()
            .enumerate()
            .filter(|&(_i, &b)| b)
            .map(|(i, &_b)| NodeId::from(i))
            .collect()
    }

    /// Node ids of internal (non-boundary) nodes.
    pub fn internal_nodes(&self) -> Vec<NodeId> {
        self.boundary
            .iter()
            .enumerate()
            .filter(|&(_i, &b)| !b)
            .map(|(i, &_b)| NodeId::from(i))
            .collect()
    }

    /// Number of boundary nodes.
    pub fn boundary_count(&self) -> usize {
        self.boundary.iter().filter(|&&b| b).count()
    }
}

/// Computes the periphery-band boundary flags for a deployment: nodes within
/// `band` of the region rim.
pub fn boundary_band(deployment: &Deployment, band: f64) -> Vec<bool> {
    deployment
        .positions
        .iter()
        .map(|&p| deployment.region.rim_distance(p) <= band)
        .collect()
}

/// Builds the paper's standard random scenario: `n` nodes uniform in a
/// square sized for the requested average `degree` under a UDG of range
/// `rc`, with a thin connected boundary ring and a target area `rc` inside
/// the region rim.
///
/// This is the Fig. 3 / Fig. 4 configuration (`n = 1600`, `degree ≈ 25`,
/// `rc = 1`).
pub fn random_udg_scenario<R: Rng>(n: usize, rc: f64, degree: f64, rng: &mut R) -> Scenario {
    let side = deployment::square_side_for_degree(n, rc, degree);
    let region = Rect::new(0.0, 0.0, side, side);
    let dep = deployment::uniform(n, region, rng);
    scenario_from_deployment(dep, CommModel::Udg { rc }, rng)
}

/// Builds a scenario from an explicit deployment and communication model:
/// thin connected boundary ring (initial width `0.35·rc`, grown until a
/// certified boundary walk exists), target area at least `rc` inside the
/// region rim.
///
/// In sparse deployments the boundary walk can dip further inward than
/// `rc`; the generator then deepens the target margin (up to `3·rc`) until
/// the walk certifiably encloses the target, so the produced scenario is
/// always internally consistent. If even that fails, every node is flagged
/// as boundary (a degenerate but safe scenario).
pub fn scenario_from_deployment<R: Rng>(
    deployment: Deployment,
    model: CommModel,
    rng: &mut R,
) -> Scenario {
    let rc = model.rc();
    let graph = model.build(&deployment, rng);
    scenario_with_graph(deployment, rc, graph)
}

/// Builds a scenario around an *externally constructed* connectivity graph
/// (e.g. one produced by [`crate::mobility::churn_graph`]), running the same
/// boundary-band growth and target-margin search as
/// [`scenario_from_deployment`]. Node `i` of `graph` must sit at
/// `deployment.positions[i]`.
pub fn scenario_with_graph(deployment: Deployment, rc: f64, graph: Graph) -> Scenario {
    let max_band = (deployment.region.width() + deployment.region.height()) / 2.0;

    let mut scenario = Scenario {
        graph,
        positions: deployment.positions.clone(),
        rc,
        boundary: vec![true; deployment.len()],
        region: deployment.region,
        target: deployment.region.shrunk(rc),
    };
    // Grow the periphery band until the flagged ring actually carries a
    // certified boundary walk (connected, encircling the target) — this is
    // the simulator's stand-in for location-free boundary recognition,
    // which outputs a thin closed boundary cycle.
    for margin_factor in [1.0, 1.5, 2.0, 3.0] {
        scenario.target = deployment.region.shrunk(rc * margin_factor);
        if scenario.target.area() <= 0.0 {
            break;
        }
        let mut band = 0.35 * rc;
        while band <= max_band {
            scenario.boundary = boundary_band(&deployment, band);
            if scenario.boundary_count() >= 3
                && crate::outer::extract_outer_walk(&scenario).is_some()
            {
                return scenario;
            }
            band *= 1.25;
        }
    }
    scenario.target = deployment.region.shrunk(rc);
    scenario.boundary = vec![true; deployment.len()];
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn band_flags_rim_nodes() {
        let dep = Deployment {
            positions: vec![
                Point::new(0.5, 5.0), // near left rim
                Point::new(5.0, 5.0), // centre
                Point::new(9.8, 9.9), // near corner
            ],
            region: Rect::new(0.0, 0.0, 10.0, 10.0),
        };
        assert_eq!(boundary_band(&dep, 1.0), vec![true, false, true]);
    }

    #[test]
    fn scenario_wiring() {
        let mut rng = StdRng::seed_from_u64(17);
        let s = random_udg_scenario(400, 1.0, 20.0, &mut rng);
        assert_eq!(s.graph.node_count(), 400);
        assert_eq!(s.positions.len(), 400);
        assert_eq!(s.boundary.len(), 400);
        assert_eq!(s.rc, 1.0);
        assert_eq!(
            s.boundary_count() + s.internal_nodes().len(),
            400,
            "every node is boundary or internal"
        );
        assert!(
            s.boundary_count() > 0,
            "a band of width rc catches rim nodes"
        );
        assert!(s.boundary_count() < 400, "the centre is internal");
        // Target area = region shrunk by rc on each side.
        assert!((s.target.width() - (s.region.width() - 2.0)).abs() < 1e-9);
        // Boundary node ids round-trip.
        for v in s.boundary_nodes() {
            assert!(s.boundary[v.index()]);
        }
    }

    #[test]
    fn no_link_exceeds_rc() {
        let mut rng = StdRng::seed_from_u64(23);
        let s = random_udg_scenario(300, 1.0, 18.0, &mut rng);
        for (_, a, b) in s.graph.edges() {
            assert!(s.positions[a.index()].distance(s.positions[b.index()]) <= s.rc + 1e-12);
        }
    }
}
