//! Ground-truth geometric coverage verification.
//!
//! The paper's guarantees (Proposition 1) are statements about the plane:
//! with sensing range `Rs`, a scheduled node set either blanket-covers the
//! target area or leaves holes of bounded diameter. This module checks those
//! statements against the simulator's ground-truth embedding by rasterising
//! the target area: uncovered grid cells are grouped into holes and each
//! hole is measured by the diameter of its minimum circumscribing circle —
//! the paper's hole metric.

use confine_graph::NodeId;

use crate::geometry::{min_enclosing_circle, Point, Rect};

/// One coverage hole: a connected set of uncovered sample cells.
#[derive(Debug, Clone)]
pub struct Hole {
    /// Number of uncovered cells in the hole.
    pub cells: usize,
    /// Approximate hole area (cells × cell area).
    pub area: f64,
    /// Diameter of the minimum circle circumscribing the hole's cell
    /// centres, inflated by one cell diagonal to account for rasterisation.
    pub diameter: f64,
}

/// Result of a geometric coverage check.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Fraction of target-area sample cells covered by at least one active
    /// sensor (1.0 = blanket coverage at the sampling resolution).
    pub covered_fraction: f64,
    /// All holes, largest diameter first.
    pub holes: Vec<Hole>,
    /// Sampling cell side length used.
    pub resolution: f64,
}

impl CoverageReport {
    /// Diameter of the largest hole, or `0.0` when blanket-covered.
    pub fn max_hole_diameter(&self) -> f64 {
        self.holes.first().map_or(0.0, |h| h.diameter)
    }

    /// Returns `true` when every sampled cell is covered.
    pub fn is_blanket(&self) -> bool {
        self.holes.is_empty()
    }
}

/// Rasterises `target` at cell size `resolution` and reports the holes left
/// by the active sensors.
///
/// `active` lists the awake nodes; `positions` maps node ids to coordinates;
/// `rs` is the sensing range. A cell counts as covered when its centre is
/// within `rs` of an active sensor.
///
/// # Panics
///
/// Panics if `resolution` is not positive.
pub fn verify_coverage(
    positions: &[Point],
    active: &[NodeId],
    rs: f64,
    target: Rect,
    resolution: f64,
) -> CoverageReport {
    assert!(resolution > 0.0, "resolution must be positive");
    let cols = (target.width() / resolution).ceil().max(0.0) as usize;
    let rows = (target.height() / resolution).ceil().max(0.0) as usize;
    if cols == 0 || rows == 0 {
        return CoverageReport {
            covered_fraction: 1.0,
            holes: Vec::new(),
            resolution,
        };
    }

    let cell_center = |c: usize, r: usize| {
        Point::new(
            target.min.x + (c as f64 + 0.5) * resolution,
            target.min.y + (r as f64 + 0.5) * resolution,
        )
    };

    // Bucket active sensors on a grid of cell size rs for O(1) neighbourhood
    // lookups per sample.
    let bucket = rs.max(resolution);
    let key = |p: Point| ((p.x / bucket).floor() as i64, (p.y / bucket).floor() as i64);
    let mut sensors: std::collections::HashMap<(i64, i64), Vec<Point>> =
        std::collections::HashMap::new();
    for &v in active {
        let p = positions[v.index()];
        sensors.entry(key(p)).or_default().push(p);
    }
    let rs2 = rs * rs;
    let covered_at = |p: Point| {
        let (cx, cy) = key(p);
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(list) = sensors.get(&(cx + dx, cy + dy)) {
                    if list.iter().any(|s| s.distance_sq(p) <= rs2) {
                        return true;
                    }
                }
            }
        }
        false
    };

    let mut covered = vec![false; cols * rows];
    let mut covered_count = 0usize;
    for r in 0..rows {
        for c in 0..cols {
            if covered_at(cell_center(c, r)) {
                covered[r * cols + c] = true;
                covered_count += 1;
            }
        }
    }

    // Group uncovered cells into 4-connected holes.
    let mut seen = vec![false; cols * rows];
    let mut holes = Vec::new();
    let cell_diag = resolution * std::f64::consts::SQRT_2;
    for start in 0..cols * rows {
        if covered[start] || seen[start] {
            continue;
        }
        let mut stack = vec![start];
        seen[start] = true;
        let mut members = Vec::new();
        while let Some(idx) = stack.pop() {
            members.push(idx);
            let (r, c) = (idx / cols, idx % cols);
            let mut push = |nr: usize, nc: usize| {
                let nidx = nr * cols + nc;
                if !covered[nidx] && !seen[nidx] {
                    seen[nidx] = true;
                    stack.push(nidx);
                }
            };
            if c > 0 {
                push(r, c - 1);
            }
            if c + 1 < cols {
                push(r, c + 1);
            }
            if r > 0 {
                push(r - 1, c);
            }
            if r + 1 < rows {
                push(r + 1, c);
            }
        }
        let centers: Vec<Point> = members
            .iter()
            .map(|&i| cell_center(i % cols, i / cols))
            .collect();
        let circle = min_enclosing_circle(&centers);
        holes.push(Hole {
            cells: members.len(),
            area: members.len() as f64 * resolution * resolution,
            diameter: circle.diameter() + cell_diag,
        });
    }
    holes.sort_by(|a, b| b.diameter.total_cmp(&a.diameter));

    CoverageReport {
        covered_fraction: covered_count as f64 / (cols * rows) as f64,
        holes,
        resolution,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::from).collect()
    }

    #[test]
    fn single_sensor_blankets_small_target() {
        let positions = vec![Point::new(5.0, 5.0)];
        let target = Rect::new(4.0, 4.0, 6.0, 6.0);
        let report = verify_coverage(&positions, &ids(1), 2.0, target, 0.1);
        assert!(report.is_blanket());
        assert_eq!(report.covered_fraction, 1.0);
        assert_eq!(report.max_hole_diameter(), 0.0);
    }

    #[test]
    fn no_sensors_leaves_one_big_hole() {
        let target = Rect::new(0.0, 0.0, 4.0, 4.0);
        let report = verify_coverage(&[], &[], 1.0, target, 0.25);
        assert!(!report.is_blanket());
        assert_eq!(report.covered_fraction, 0.0);
        assert_eq!(report.holes.len(), 1);
        // Hole spans the whole square: diameter ≈ diagonal ≈ 5.66 minus the
        // half-cell trim on each side, plus the cell-diagonal inflation.
        let d = report.max_hole_diameter();
        assert!(
            (5.0..6.2).contains(&d),
            "diameter {d} not near the diagonal"
        );
    }

    #[test]
    fn central_gap_is_detected_and_measured() {
        // Four sensors at the corners of a 10×10 target with rs = 6 leave a
        // pocket in the middle.
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
            Point::new(10.0, 10.0),
        ];
        let target = Rect::new(0.0, 0.0, 10.0, 10.0);
        let report = verify_coverage(&positions, &ids(4), 6.0, target, 0.1);
        assert!(!report.is_blanket());
        assert_eq!(report.holes.len(), 1, "one central pocket");
        assert!(report.covered_fraction > 0.9);
        // The uncovered pocket around (5,5): its circumradius is bounded by
        // the corner gap; sanity-band the measured diameter.
        let d = report.max_hole_diameter();
        assert!((1.0..4.0).contains(&d), "unexpected pocket diameter {d}");
    }

    #[test]
    fn two_separate_holes() {
        // A column of sensors down the middle splits uncovered space into
        // left and right holes.
        let positions: Vec<Point> = (0..11).map(|i| Point::new(5.0, i as f64)).collect();
        let target = Rect::new(0.0, 0.0, 10.0, 10.0);
        let report = verify_coverage(&positions, &ids(11), 2.0, target, 0.2);
        assert_eq!(report.holes.len(), 2);
        let d0 = report.holes[0].diameter;
        let d1 = report.holes[1].diameter;
        assert!((d0 - d1).abs() < 0.5, "symmetric holes: {d0} vs {d1}");
        assert!(report.holes.iter().all(|h| h.cells > 0 && h.area > 0.0));
    }

    #[test]
    fn inactive_sensors_do_not_cover() {
        let positions = vec![Point::new(5.0, 5.0), Point::new(5.0, 5.0)];
        let target = Rect::new(4.0, 4.0, 6.0, 6.0);
        // Only node 1 active but with rs 0.01: effectively nothing covered.
        let report = verify_coverage(&positions, &[NodeId(1)], 0.01, target, 0.5);
        assert!(report.covered_fraction < 0.2);
    }

    #[test]
    fn degenerate_target() {
        let report = verify_coverage(&[], &[], 1.0, Rect::new(3.0, 3.0, 3.0, 3.0), 0.5);
        assert!(report.is_blanket());
        assert_eq!(report.covered_fraction, 1.0);
    }
}
