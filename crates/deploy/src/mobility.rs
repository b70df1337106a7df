//! Mobility models, duty-cycle schedules and churn-aware connectivity.
//!
//! The paper targets ad hoc and sensor networks whose topology changes
//! continuously; this module supplies the deterministic churn workloads the
//! streaming repair loop in `confine-core` is evaluated against:
//!
//! * [`MobilityModel`] / [`MobilityWalker`] — random-waypoint and
//!   bounded-drift node motion, bitwise-reproducible from a seed;
//! * [`DutyCycle`] — per-node periodic sleep/wake schedules with
//!   seed-derived phases;
//! * [`churn_graph`] — positions + per-node range-degradation factors →
//!   connectivity, with *stable* quasi-UDG annulus links (a pair hash, not a
//!   fresh RNG roll per round, so a static network does not flap).
//!
//! All randomness is drawn from caller-provided seeds in a fixed node order,
//! so a churn trace replays identically regardless of thread count.

use confine_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::geometry::{Point, Rect};
use crate::radio::CommModel;

/// How mobile nodes move between rounds.
///
/// Every distance (`speed`, `step`, `bound`) must be finite and ≥ 0; `0`
/// keeps the node still or at home. A negative `bound` would mirror a
/// drifting node through its home every round instead of tethering it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilityModel {
    /// Classic random waypoint: pick a uniform target in the region, move
    /// towards it at `speed` units per round, pause up to `pause` rounds on
    /// arrival, repeat.
    RandomWaypoint {
        /// Distance travelled per round (in the same units as positions).
        speed: f64,
        /// Maximum pause, in rounds, after reaching a waypoint (the actual
        /// pause is drawn uniformly from `0..=pause`).
        pause: usize,
    },
    /// Tethered jitter: each round take a uniform random step of length at
    /// most `step`, but never stray further than `bound` from the node's
    /// initial (home) position. Models swaying foliage / small platform
    /// drift rather than transport.
    BoundedDrift {
        /// Maximum step length per round.
        step: f64,
        /// Maximum distance from the home position.
        bound: f64,
    },
}

/// Deterministic per-node mobility state: advances a position vector one
/// round at a time, drawing all randomness from a single seeded stream in
/// node-index order.
#[derive(Debug, Clone)]
pub struct MobilityWalker {
    model: MobilityModel,
    region: Rect,
    rng: StdRng,
    /// Initial positions (the bounded-drift tether anchors).
    home: Vec<Point>,
    /// Current waypoint target per node (random-waypoint only).
    waypoint: Vec<Point>,
    /// Rounds left to pause at the current waypoint.
    pause_left: Vec<usize>,
    /// Which nodes move at all; pinned nodes (e.g. the boundary ring) keep
    /// their deployment position forever.
    mobile: Vec<bool>,
}

impl MobilityWalker {
    /// Creates a walker over `positions`. `mobile[i] == false` pins node
    /// `i` in place (boundary nodes stay put so the certified boundary walk
    /// survives churn). All randomness derives from `seed`.
    pub fn new(
        model: MobilityModel,
        region: Rect,
        positions: &[Point],
        mobile: Vec<bool>,
        seed: u64,
    ) -> Self {
        assert_eq!(positions.len(), mobile.len(), "one mobility flag per node");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut waypoint = positions.to_vec();
        if let MobilityModel::RandomWaypoint { .. } = model {
            for (i, w) in waypoint.iter_mut().enumerate() {
                if mobile[i] {
                    *w = uniform_point(region, &mut rng);
                }
            }
        }
        MobilityWalker {
            model,
            region,
            rng,
            home: positions.to_vec(),
            waypoint,
            pause_left: vec![0; positions.len()],
            mobile,
        }
    }

    /// Advances every mobile node one round, mutating `positions` in place,
    /// and returns the ids of nodes that actually moved (in index order).
    pub fn advance(&mut self, positions: &mut [Point]) -> Vec<NodeId> {
        assert_eq!(positions.len(), self.home.len(), "walker/position mismatch");
        let mut moved = Vec::new();
        for (i, pos) in positions.iter_mut().enumerate() {
            if !self.mobile[i] {
                continue;
            }
            let before = *pos;
            match self.model {
                MobilityModel::RandomWaypoint { speed, pause } => {
                    if speed <= 0.0 {
                        continue;
                    }
                    if self.pause_left[i] > 0 {
                        self.pause_left[i] -= 1;
                        continue;
                    }
                    let target = self.waypoint[i];
                    let dist = before.distance(target);
                    if dist <= speed {
                        *pos = target;
                        self.pause_left[i] = self.rng.gen_range(0..=pause);
                        self.waypoint[i] = uniform_point(self.region, &mut self.rng);
                    } else {
                        let f = speed / dist;
                        *pos = Point::new(
                            before.x + (target.x - before.x) * f,
                            before.y + (target.y - before.y) * f,
                        );
                    }
                }
                MobilityModel::BoundedDrift { step, bound } => {
                    if step <= 0.0 {
                        continue;
                    }
                    let ang = self.rng.gen_range(0.0..std::f64::consts::TAU);
                    let len = self.rng.gen_range(0.0..=step);
                    let mut p = Point::new(before.x + ang.cos() * len, before.y + ang.sin() * len);
                    // Re-tether: project back onto the disc of radius
                    // `bound` around home if the step strayed outside.
                    let from_home = self.home[i].distance(p);
                    if from_home > bound && from_home > 0.0 {
                        let f = bound / from_home;
                        p = Point::new(
                            self.home[i].x + (p.x - self.home[i].x) * f,
                            self.home[i].y + (p.y - self.home[i].y) * f,
                        );
                    }
                    *pos = clamp_to(self.region, p);
                }
            }
            *pos = clamp_to(self.region, *pos);
            if pos.distance_sq(before) > 0.0 {
                moved.push(NodeId::from(i));
            }
        }
        moved
    }
}

fn uniform_point(region: Rect, rng: &mut StdRng) -> Point {
    let x = if region.width() > 0.0 {
        rng.gen_range(region.min.x..region.max.x)
    } else {
        region.min.x
    };
    let y = if region.height() > 0.0 {
        rng.gen_range(region.min.y..region.max.y)
    } else {
        region.min.y
    };
    Point::new(x, y)
}

fn clamp_to(region: Rect, p: Point) -> Point {
    Point::new(
        p.x.clamp(region.min.x, region.max.x),
        p.y.clamp(region.min.y, region.max.y),
    )
}

/// A per-node periodic sleep schedule: node `i` is asleep during the first
/// `down_for` rounds of every `period`-round window, phase-shifted by a
/// seed-derived per-node offset so sleeps are staggered across the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DutyCycle {
    /// Window length in rounds; `0` disables the schedule entirely.
    pub period: usize,
    /// Rounds asleep per window (values ≥ `period` mean always asleep —
    /// callers normally keep `down_for < period`).
    pub down_for: usize,
    /// Per-node phase offset in `0..period`.
    pub phases: Vec<usize>,
    /// Nodes exempt from duty-cycling (e.g. the boundary ring), never down.
    pub exempt: Vec<bool>,
}

impl DutyCycle {
    /// Builds a schedule for `n` nodes with per-node phases derived from
    /// `seed` (SplitMix64 of the node index — stable under replay).
    pub fn new(period: usize, down_for: usize, n: usize, exempt: Vec<bool>, seed: u64) -> Self {
        assert_eq!(exempt.len(), n, "one exemption flag per node");
        let phases = (0..n)
            .map(|i| {
                if period == 0 {
                    0
                } else {
                    (splitmix(seed ^ splitmix(i as u64)) % period as u64) as usize
                }
            })
            .collect();
        DutyCycle {
            period,
            down_for,
            phases,
            exempt,
        }
    }

    /// A schedule that never takes any of the `n` nodes down.
    pub fn disabled(n: usize) -> Self {
        DutyCycle {
            period: 0,
            down_for: 0,
            phases: vec![0; n],
            exempt: vec![false; n],
        }
    }

    /// Whether `node` is asleep in `round`.
    pub fn is_down(&self, node: NodeId, round: usize) -> bool {
        if self.period == 0 || self.down_for == 0 || self.exempt[node.index()] {
            return false;
        }
        (round + self.phases[node.index()]) % self.period < self.down_for
    }

    /// Nodes transitioning between `round - 1` and `round`: returns
    /// `(slept, woken)` in index order. At round 0 nodes starting asleep
    /// count as `slept`.
    pub fn transitions(&self, round: usize) -> (Vec<NodeId>, Vec<NodeId>) {
        let mut slept = Vec::new();
        let mut woken = Vec::new();
        for i in 0..self.phases.len() {
            let v = NodeId::from(i);
            let now = self.is_down(v, round);
            let before = round > 0 && self.is_down(v, round - 1);
            if now && !before {
                slept.push(v);
            } else if !now && before {
                woken.push(v);
            }
        }
        (slept, woken)
    }
}

/// Builds the connectivity graph for churned `positions` under `model`,
/// with each node's radio range scaled by `factor_pct[i] / 100` (capped at
/// 100). A link `i–j` uses the *smaller* of the two factors — a degraded
/// radio both transmits and receives worse.
///
/// For [`CommModel::QuasiUdg`], annulus links are decided by a stable
/// SplitMix64 hash of `(link_seed, i, j)` instead of a live RNG, so
/// repeated rebuilds of an unchanged topology yield an identical graph and
/// link flaps come only from movement or degradation. Lowering a factor
/// only ever removes edges (the edge set is monotone in every factor).
pub fn churn_graph(
    positions: &[Point],
    model: CommModel,
    factor_pct: &[u8],
    link_seed: u64,
) -> Graph {
    assert_eq!(
        positions.len(),
        factor_pct.len(),
        "one degradation factor per node"
    );
    let n = positions.len();
    let mut g = Graph::with_node_capacity(n);
    g.add_nodes(n);
    let rc = model.rc();

    // Same uniform grid hashing as `CommModel::build`: cells of the full
    // (undegraded) range, so degraded links are still found in the 3×3 scan.
    let cell = rc.max(1e-9);
    let key = |p: Point| ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64);
    let mut buckets: std::collections::HashMap<(i64, i64), Vec<usize>> =
        std::collections::HashMap::new();
    for (i, &p) in positions.iter().enumerate() {
        buckets.entry(key(p)).or_default().push(i);
    }

    for i in 0..n {
        let (cx, cy) = key(positions[i]);
        for dx in -1..=1 {
            for dy in -1..=1 {
                let Some(cands) = buckets.get(&(cx + dx, cy + dy)) else {
                    continue;
                };
                for &j in cands {
                    if j <= i {
                        continue;
                    }
                    let f = f64::from(factor_pct[i].min(factor_pct[j]).min(100)) / 100.0;
                    let d2 = positions[i].distance_sq(positions[j]);
                    let eff_rc = rc * f;
                    if d2 > eff_rc * eff_rc {
                        continue;
                    }
                    let link = match model {
                        CommModel::Udg { .. } => true,
                        CommModel::QuasiUdg { r_in, p_mid, .. } => {
                            let eff_in = r_in * f;
                            d2 <= eff_in * eff_in
                                || pair_unit(link_seed, i, j) < p_mid.clamp(0.0, 1.0)
                        }
                    };
                    if link {
                        g.add_edge(NodeId::from(i), NodeId::from(j))
                            .expect("each pair visited once");
                    }
                }
            }
        }
    }
    g
}

/// SplitMix64 finalizer — the same mixer the DST seed derivation uses.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stable unit-interval hash of an unordered node pair.
fn pair_unit(link_seed: u64, i: usize, j: usize) -> f64 {
    let h = splitmix(splitmix(link_seed ^ splitmix(i as u64)) ^ (j as u64));
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment;

    fn square(side: f64) -> Rect {
        Rect::new(0.0, 0.0, side, side)
    }

    fn uniform_positions(n: usize, region: Rect, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        deployment::uniform(n, region, &mut rng).positions
    }

    #[test]
    fn waypoint_walk_is_deterministic_and_stays_in_region() {
        let region = square(10.0);
        let start = uniform_positions(60, region, 3);
        let mobile = vec![true; 60];
        let model = MobilityModel::RandomWaypoint {
            speed: 0.4,
            pause: 2,
        };
        let mut w1 = MobilityWalker::new(model, region, &start, mobile.clone(), 7);
        let mut w2 = MobilityWalker::new(model, region, &start, mobile, 7);
        let (mut p1, mut p2) = (start.clone(), start.clone());
        for _ in 0..40 {
            let m1 = w1.advance(&mut p1);
            let m2 = w2.advance(&mut p2);
            assert_eq!(m1, m2, "same seed, same moved set");
            for p in &p1 {
                assert!(region.contains(*p), "walk left the region: {p}");
            }
        }
        assert_eq!(p1, p2, "same seed, same trajectory");
        assert_ne!(p1, start, "speed 0.4 over 40 rounds moves somebody");
    }

    #[test]
    fn pinned_nodes_never_move_and_zero_speed_is_static() {
        let region = square(8.0);
        let start = uniform_positions(30, region, 4);
        let mut mobile = vec![true; 30];
        mobile[0] = false;
        mobile[17] = false;
        let mut w = MobilityWalker::new(
            MobilityModel::RandomWaypoint {
                speed: 0.5,
                pause: 0,
            },
            region,
            &start,
            mobile,
            11,
        );
        let mut pos = start.clone();
        for _ in 0..20 {
            let moved = w.advance(&mut pos);
            assert!(!moved.contains(&NodeId(0)));
            assert!(!moved.contains(&NodeId(17)));
        }
        assert_eq!(pos[0], start[0]);
        assert_eq!(pos[17], start[17]);

        let mut frozen = MobilityWalker::new(
            MobilityModel::RandomWaypoint {
                speed: 0.0,
                pause: 0,
            },
            region,
            &start,
            vec![true; 30],
            11,
        );
        let mut pos2 = start.clone();
        assert!(frozen.advance(&mut pos2).is_empty());
        assert_eq!(pos2, start);
    }

    #[test]
    fn bounded_drift_respects_tether_and_region() {
        let region = square(12.0);
        let start = uniform_positions(50, region, 5);
        let (step, bound) = (0.3, 0.9);
        let mut w = MobilityWalker::new(
            MobilityModel::BoundedDrift { step, bound },
            region,
            &start,
            vec![true; 50],
            21,
        );
        let mut pos = start.clone();
        for _ in 0..60 {
            w.advance(&mut pos);
            for i in 0..50 {
                assert!(
                    start[i].distance(pos[i]) <= bound + 1e-9,
                    "node {i} drifted past its tether"
                );
                assert!(region.contains(pos[i]));
            }
        }
    }

    #[test]
    fn duty_cycle_counts_and_exemptions() {
        let n = 40;
        let mut exempt = vec![false; n];
        exempt[3] = true;
        let duty = DutyCycle::new(8, 2, n, exempt, 13);
        let d2 = DutyCycle::new(
            8,
            2,
            n,
            {
                let mut e = vec![false; n];
                e[3] = true;
                e
            },
            13,
        );
        assert_eq!(duty, d2, "schedule is a pure function of the seed");
        for i in 0..n {
            let v = NodeId::from(i);
            let downs = (0..8).filter(|&r| duty.is_down(v, r)).count();
            if i == 3 {
                assert_eq!(downs, 0, "exempt node never sleeps");
            } else {
                assert_eq!(downs, 2, "exactly down_for rounds per window");
            }
            // Periodicity.
            for r in 0..16 {
                assert_eq!(duty.is_down(v, r), duty.is_down(v, r + 8));
            }
        }
        // Phases are staggered: not everyone sleeps in the same rounds.
        let sleepy_at_0 = (0..n).filter(|&i| duty.is_down(NodeId::from(i), 0)).count();
        assert!(sleepy_at_0 < n - 1, "phases spread sleeps out");
        // Transitions partition correctly.
        for r in 1..20 {
            let (slept, woken) = duty.transitions(r);
            for &v in &slept {
                assert!(duty.is_down(v, r) && !duty.is_down(v, r - 1));
            }
            for &v in &woken {
                assert!(!duty.is_down(v, r) && duty.is_down(v, r - 1));
            }
        }
        let off = DutyCycle::disabled(n);
        assert!((0..n).all(|i| !off.is_down(NodeId::from(i), 5)));
    }

    #[test]
    fn churn_graph_matches_udg_build_at_full_factor() {
        let region = square(9.0);
        let pts = uniform_positions(250, region, 8);
        let dep = deployment::Deployment {
            positions: pts.clone(),
            region,
        };
        let reference = CommModel::Udg { rc: 1.2 }.build(&dep, &mut StdRng::seed_from_u64(0));
        let churned = churn_graph(&pts, CommModel::Udg { rc: 1.2 }, &vec![100; 250], 0);
        assert_eq!(churned, reference);
    }

    #[test]
    fn degradation_only_removes_edges_and_is_monotone() {
        let region = square(9.0);
        let pts = uniform_positions(200, region, 9);
        let model = CommModel::QuasiUdg {
            r_in: 0.7,
            rc: 1.3,
            p_mid: 0.5,
        };
        let full = churn_graph(&pts, model, &[100; 200], 77);
        let full_again = churn_graph(&pts, model, &[100; 200], 77);
        assert_eq!(full, full_again, "annulus links are hash-stable");

        let mut factors = vec![100u8; 200];
        for f in &mut factors[..50] {
            *f = 70;
        }
        let degraded = churn_graph(&pts, model, &factors, 77);
        assert!(degraded.edge_count() <= full.edge_count());
        for (_, a, b) in degraded.edges() {
            assert!(full.has_edge(a, b), "degradation must not create links");
        }
        // Factors above 100 behave as 100.
        let over = churn_graph(&pts, model, &[255; 200], 77);
        assert_eq!(over, full);
        // A different link seed redraws the annulus.
        let reseeded = churn_graph(&pts, model, &[100; 200], 78);
        assert_ne!(full, reseeded, "annulus hash depends on the link seed");
    }

    #[test]
    fn degraded_links_respect_scaled_range() {
        let region = square(7.0);
        let pts = uniform_positions(150, region, 10);
        let factors: Vec<u8> = (0..150).map(|i| 55 + (i % 46) as u8).collect();
        let g = churn_graph(&pts, CommModel::Udg { rc: 1.0 }, &factors, 0);
        for (_, a, b) in g.edges() {
            let f = f64::from(factors[a.index()].min(factors[b.index()])) / 100.0;
            assert!(
                pts[a.index()].distance(pts[b.index()]) <= f + 1e-12,
                "link exceeds the degraded range"
            );
        }
    }
}
