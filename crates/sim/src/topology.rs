//! Node placement and deployment-topology generators.
//!
//! The sensing and actuation layer is peculiar in that node placement is
//! dictated by the physical points a deployment must monitor (paper §IV-A).
//! These generators produce the canonical shapes used by the experiments:
//! lines (pipelines, conveyor belts), grids (warehouses, office floors),
//! uniform random scatters (construction sites) and clustered layouts
//! (machine groups on a factory floor).

use rand::Rng;

/// A position on the deployment plane, in meters.
///
/// # Examples
///
/// ```
/// use iiot_sim::topology::Pos;
///
/// let a = Pos::new(0.0, 0.0);
/// let b = Pos::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Pos {
    /// X coordinate in meters.
    pub x: f64,
    /// Y coordinate in meters.
    pub y: f64,
}

impl Pos {
    /// Creates a position from coordinates in meters.
    pub const fn new(x: f64, y: f64) -> Self {
        Pos { x, y }
    }

    /// Euclidean distance to `other`, in meters.
    pub fn distance(self, other: Pos) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// A set of node positions; index `i` is the position of node `i`.
///
/// Construct via the generator methods, or collect from an iterator of
/// [`Pos`] values for fully custom layouts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Topology {
    positions: Vec<Pos>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// A straight line of `n` nodes spaced `spacing` meters apart,
    /// starting at the origin. Node 0 is at the origin (typically the
    /// border router / sink).
    ///
    /// # Panics
    ///
    /// Panics if `spacing` is not finite and positive.
    pub fn line(n: usize, spacing: f64) -> Self {
        assert!(
            spacing.is_finite() && spacing > 0.0,
            "spacing must be positive"
        );
        Topology {
            positions: (0..n).map(|i| Pos::new(i as f64 * spacing, 0.0)).collect(),
        }
    }

    /// A `cols x rows` grid with `spacing` meters between neighbours.
    /// Node 0 sits at the origin corner; nodes are laid out row-major.
    ///
    /// # Panics
    ///
    /// Panics if `spacing` is not finite and positive.
    pub fn grid(cols: usize, rows: usize, spacing: f64) -> Self {
        assert!(
            spacing.is_finite() && spacing > 0.0,
            "spacing must be positive"
        );
        let mut positions = Vec::with_capacity(cols * rows);
        for r in 0..rows {
            for c in 0..cols {
                positions.push(Pos::new(c as f64 * spacing, r as f64 * spacing));
            }
        }
        Topology { positions }
    }

    /// `n` nodes placed uniformly at random in a `width x height` meter
    /// rectangle. Node 0 is pinned to the rectangle center so experiments
    /// have a well-defined sink.
    pub fn uniform<R: Rng>(n: usize, width: f64, height: f64, rng: &mut R) -> Self {
        let mut positions = Vec::with_capacity(n);
        if n > 0 {
            positions.push(Pos::new(width / 2.0, height / 2.0));
        }
        for _ in 1..n {
            positions.push(Pos::new(
                rng.gen::<f64>() * width,
                rng.gen::<f64>() * height,
            ));
        }
        Topology { positions }
    }

    /// `clusters` groups of `per_cluster` nodes each. Cluster heads are
    /// spread uniformly over the rectangle; members are scattered with a
    /// Gaussian-ish offset of scale `sigma` around their head.
    pub fn clustered<R: Rng>(
        clusters: usize,
        per_cluster: usize,
        width: f64,
        height: f64,
        sigma: f64,
        rng: &mut R,
    ) -> Self {
        let mut positions = Vec::with_capacity(clusters * per_cluster);
        for _ in 0..clusters {
            let cx = rng.gen::<f64>() * width;
            let cy = rng.gen::<f64>() * height;
            for _ in 0..per_cluster {
                // Irwin-Hall(4) approximation of a Gaussian: cheap and
                // deterministic with only the `Rng` trait available.
                let gx: f64 = (0..4).map(|_| rng.gen::<f64>()).sum::<f64>() / 2.0 - 1.0;
                let gy: f64 = (0..4).map(|_| rng.gen::<f64>()).sum::<f64>() / 2.0 - 1.0;
                positions.push(Pos::new(
                    (cx + gx * sigma).clamp(0.0, width),
                    (cy + gy * sigma).clamp(0.0, height),
                ));
            }
        }
        Topology { positions }
    }

    /// Number of nodes in the topology.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn pos(&self, i: usize) -> Pos {
        self.positions[i]
    }

    /// Adds a node position, returning its index.
    pub fn push(&mut self, p: Pos) -> usize {
        self.positions.push(p);
        self.positions.len() - 1
    }

    /// Iterates over positions in node-id order.
    pub fn iter(&self) -> impl Iterator<Item = Pos> + '_ {
        self.positions.iter().copied()
    }

    /// The bounding box `(min, max)` of all positions, or `None` if empty.
    pub fn bounds(&self) -> Option<(Pos, Pos)> {
        let first = *self.positions.first()?;
        let mut min = first;
        let mut max = first;
        for p in &self.positions {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
        }
        Some((min, max))
    }

    /// The network diameter in meters (largest pairwise distance).
    /// O(n^2); intended for experiment setup, not inner loops.
    pub fn diameter(&self) -> f64 {
        let mut d: f64 = 0.0;
        for i in 0..self.positions.len() {
            for j in (i + 1)..self.positions.len() {
                d = d.max(self.positions[i].distance(self.positions[j]));
            }
        }
        d
    }
}

impl FromIterator<Pos> for Topology {
    fn from_iter<T: IntoIterator<Item = Pos>>(iter: T) -> Self {
        Topology {
            positions: iter.into_iter().collect(),
        }
    }
}

impl Extend<Pos> for Topology {
    fn extend<T: IntoIterator<Item = Pos>>(&mut self, iter: T) {
        self.positions.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn line_layout() {
        let t = Topology::line(4, 10.0);
        assert_eq!(t.len(), 4);
        assert_eq!(t.pos(0), Pos::new(0.0, 0.0));
        assert_eq!(t.pos(3), Pos::new(30.0, 0.0));
        assert_eq!(t.diameter(), 30.0);
    }

    #[test]
    fn grid_layout_row_major() {
        let t = Topology::grid(3, 2, 5.0);
        assert_eq!(t.len(), 6);
        assert_eq!(t.pos(0), Pos::new(0.0, 0.0));
        assert_eq!(t.pos(2), Pos::new(10.0, 0.0));
        assert_eq!(t.pos(3), Pos::new(0.0, 5.0));
    }

    #[test]
    fn uniform_pins_sink_to_center() {
        let mut rng = SmallRng::seed_from_u64(42);
        let t = Topology::uniform(50, 100.0, 60.0, &mut rng);
        assert_eq!(t.len(), 50);
        assert_eq!(t.pos(0), Pos::new(50.0, 30.0));
        let (min, max) = t.bounds().unwrap();
        assert!(min.x >= 0.0 && max.x <= 100.0);
        assert!(min.y >= 0.0 && max.y <= 60.0);
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let a = Topology::uniform(20, 50.0, 50.0, &mut SmallRng::seed_from_u64(7));
        let b = Topology::uniform(20, 50.0, 50.0, &mut SmallRng::seed_from_u64(7));
        let c = Topology::uniform(20, 50.0, 50.0, &mut SmallRng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn clustered_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        let t = Topology::clustered(4, 10, 200.0, 100.0, 15.0, &mut rng);
        assert_eq!(t.len(), 40);
        let (min, max) = t.bounds().unwrap();
        assert!(min.x >= 0.0 && max.x <= 200.0);
        assert!(min.y >= 0.0 && max.y <= 100.0);
    }

    #[test]
    fn collect_and_extend() {
        let mut t: Topology = [Pos::new(0.0, 0.0), Pos::new(1.0, 1.0)]
            .into_iter()
            .collect();
        t.extend([Pos::new(2.0, 2.0)]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.iter().count(), 3);
    }

    #[test]
    fn empty_topology_bounds() {
        assert!(Topology::new().bounds().is_none());
        assert_eq!(Topology::new().diameter(), 0.0);
    }

    #[test]
    #[should_panic(expected = "spacing")]
    fn line_rejects_bad_spacing() {
        let _ = Topology::line(3, 0.0);
    }
}
