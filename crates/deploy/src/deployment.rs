//! Node deployment generators.
//!
//! The paper's simulations deploy nodes "in a square area by a uniformly
//! random distribution" (Sec. VI-A); the trace experiments use a long-thin
//! forest deployment. These generators produce node positions only — radio
//! models in [`crate::radio`] turn positions into connectivity.

use rand::Rng;

use crate::geometry::{Point, Rect};

/// A set of node positions inside a deployment region.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Node positions; index `i` is node `i` of the derived graph.
    pub positions: Vec<Point>,
    /// The deployment region (the network sensing area's bounding box).
    pub region: Rect,
}

impl Deployment {
    /// Number of deployed nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` when no nodes are deployed.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// Uniform random deployment of `n` nodes in `region`.
pub fn uniform<R: Rng>(n: usize, region: Rect, rng: &mut R) -> Deployment {
    let positions = (0..n)
        .map(|_| {
            Point::new(
                rng.gen_range(region.min.x..=region.max.x),
                rng.gen_range(region.min.y..=region.max.y),
            )
        })
        .collect();
    Deployment { positions, region }
}

/// Perturbed grid: `cols × rows` nodes on a lattice filling `region`, each
/// jittered uniformly by up to `jitter` in both axes (clamped to the
/// region).
pub fn perturbed_grid<R: Rng>(
    cols: usize,
    rows: usize,
    region: Rect,
    jitter: f64,
    rng: &mut R,
) -> Deployment {
    let mut positions = Vec::with_capacity(cols * rows);
    let dx = if cols > 1 {
        region.width() / (cols - 1) as f64
    } else {
        0.0
    };
    let dy = if rows > 1 {
        region.height() / (rows - 1) as f64
    } else {
        0.0
    };
    for r in 0..rows {
        for c in 0..cols {
            let mut x = region.min.x + c as f64 * dx;
            let mut y = region.min.y + r as f64 * dy;
            if jitter > 0.0 {
                x += rng.gen_range(-jitter..=jitter);
                y += rng.gen_range(-jitter..=jitter);
            }
            positions.push(Point::new(
                x.clamp(region.min.x, region.max.x),
                y.clamp(region.min.y, region.max.y),
            ));
        }
    }
    Deployment { positions, region }
}

/// Side length of the square region in which `n` nodes with communication
/// range `rc` have expected average degree `degree` (from the UDG density
/// relation `deg ≈ n·π·rc² / A`).
///
/// This is how the paper's "1600 nodes, average node degree around 25"
/// configuration is reproduced.
pub fn square_side_for_degree(n: usize, rc: f64, degree: f64) -> f64 {
    assert!(degree > 0.0, "target degree must be positive");
    (n as f64 * std::f64::consts::PI * rc * rc / degree).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_stays_in_region() {
        let region = Rect::new(-1.0, 2.0, 5.0, 7.0);
        let mut rng = StdRng::seed_from_u64(7);
        let d = uniform(500, region, &mut rng);
        assert_eq!(d.len(), 500);
        assert!(!d.is_empty());
        assert!(d.positions.iter().all(|&p| region.contains(p)));
    }

    #[test]
    fn uniform_spreads_over_quadrants() {
        let region = Rect::new(0.0, 0.0, 1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(11);
        let d = uniform(2000, region, &mut rng);
        let q1 = d
            .positions
            .iter()
            .filter(|p| p.x < 0.5 && p.y < 0.5)
            .count();
        assert!(
            (400..600).contains(&q1),
            "quadrant count {q1} too far from 500"
        );
    }

    #[test]
    fn perturbed_grid_counts_and_bounds() {
        let region = Rect::new(0.0, 0.0, 9.0, 4.0);
        let mut rng = StdRng::seed_from_u64(5);
        let d = perturbed_grid(10, 5, region, 0.3, &mut rng);
        assert_eq!(d.len(), 50);
        assert!(d.positions.iter().all(|&p| region.contains(p)));
        // Zero jitter is an exact lattice.
        let exact = perturbed_grid(4, 2, region, 0.0, &mut rng);
        assert_eq!(exact.positions[0], Point::new(0.0, 0.0));
        assert_eq!(exact.positions[3], Point::new(9.0, 0.0));
        assert_eq!(exact.positions[7], Point::new(9.0, 4.0));
    }

    #[test]
    fn degree_sizing_formula() {
        // 1600 nodes, rc = 1, degree 25 → area = 1600π/25 ≈ 201.06.
        let side = square_side_for_degree(1600, 1.0, 25.0);
        assert!((side * side - 201.06).abs() < 0.01);
    }
}
