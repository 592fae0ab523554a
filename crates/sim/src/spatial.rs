//! Uniform spatial hashing over node positions.
//!
//! Everything the radio medium does per frame is local: only nodes
//! within radio range of a transmitter can receive it, and only
//! transmitters within radio range of a listener can jam it.
//! [`SpatialGrid`] buckets node positions into square cells whose side
//! equals the maximum radio range, so whatever is possibly in range of a
//! point is confined to the 3x3 cell neighbourhood around it. The medium
//! uses the grid twice:
//!
//! * [`SpatialGrid::gather`] enumerates the *nodes* around a
//!   transmitter — candidate enumeration is O(neighbours), not O(N);
//! * every cell has a dense id ([`SpatialGrid::insert`] returns it) and
//!   [`SpatialGrid::neighbourhood`] lists the occupied cells around one,
//!   so the medium can file each live *transmission* under its source's
//!   cell and have carrier sensing and collision checks visit only the
//!   cells around the listener — O(audible transmissions), not O(all
//!   transmissions in the air).
//!
//! The grid is an *over-approximation by construction*: both queries
//! cover every position within `cell_size` meters of the query point
//! (and possibly a few farther ones, which the caller's exact range
//! check filters out). Gathered ids come back sorted ascending, so a
//! caller that draws random numbers per candidate visits them in
//! exactly the same order as an exhaustive scan over ascending ids —
//! the property the deterministic radio medium relies on.
//!
//! A grid whose cell side is infinite has one cell holding everything:
//! the exhaustive scan, as the same data structure.

use crate::topology::Pos;
use std::cell::{Cell, OnceCell};
use std::collections::hash_map::{Entry, HashMap};

/// The occupied cells of one 3x3 neighbourhood, stored inline.
#[derive(Clone, Copy, Debug, Default)]
struct Hood {
    len: u8,
    cells: [u32; 9],
}

/// A uniform grid index over 2D positions, keyed by integer cell
/// coordinates. Positions are static once inserted (the medium never
/// moves nodes), so there is no removal or update API.
///
/// # Examples
///
/// ```
/// use iiot_sim::spatial::SpatialGrid;
/// use iiot_sim::topology::Pos;
///
/// let mut g = SpatialGrid::new(45.0);
/// let near = g.insert(0, Pos::new(0.0, 0.0));
/// assert_eq!(g.insert(1, Pos::new(30.0, 0.0)), near); // same cell
/// let far = g.insert(2, Pos::new(500.0, 500.0)); // a different cell
/// assert_eq!((near, far, g.cell_count()), (0, 1, 2)); // ids are dense
///
/// let mut ids = Vec::new();
/// g.gather(Pos::new(10.0, 0.0), &mut ids);
/// assert_eq!(ids, vec![0, 1]); // sorted ascending, far node excluded
/// assert_eq!(g.neighbourhood(near), [near]); // no occupied cell adjoins it
/// ```
#[derive(Clone, Debug)]
pub struct SpatialGrid {
    cell: f64,
    /// Cell coordinates → dense cell id; the only hashed structure.
    ids: HashMap<(i64, i64), u32>,
    /// Per cell id: its coordinates, and the ids inserted into it.
    keys: Vec<(i64, i64)>,
    cells: Vec<Vec<u32>>,
    /// Per cell id: its occupied 3x3 neighbourhood, filled on first
    /// query (nine hash probes each, which a build that never asks —
    /// or has not asked yet — does not pay).
    hoods: Vec<OnceCell<Hood>>,
    /// Whether any `hoods` entry is filled; a cell created afterwards
    /// makes its neighbours' entries stale.
    hoods_filled: Cell<bool>,
}

impl SpatialGrid {
    /// Creates a grid with square cells of side `cell` meters. An
    /// infinite side yields a single cell covering the plane.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not positive.
    pub fn new(cell: f64) -> Self {
        assert!(cell > 0.0, "cell size must be positive");
        SpatialGrid {
            cell,
            ids: HashMap::new(),
            keys: Vec::new(),
            cells: Vec::new(),
            hoods: Vec::new(),
            hoods_filled: Cell::new(false),
        }
    }

    /// The cell side length in meters.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Number of ids inserted.
    pub fn len(&self) -> usize {
        self.cells.iter().map(Vec::len).sum()
    }

    /// Whether the grid holds no ids.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of occupied cells; cell ids are `0..cell_count()`, in
    /// order of first insertion.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    fn key(&self, p: Pos) -> (i64, i64) {
        (
            (p.x / self.cell).floor() as i64,
            (p.y / self.cell).floor() as i64,
        )
    }

    /// Inserts `id` at `pos` and returns the dense id of the cell it
    /// landed in. Ids need not be unique or dense; the medium uses node
    /// indices, inserted in ascending order.
    pub fn insert(&mut self, id: u32, pos: Pos) -> u32 {
        let key = self.key(pos);
        let cell = match self.ids.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let cell = u32::try_from(self.cells.len()).expect("cell count fits u32");
                e.insert(cell);
                self.keys.push(key);
                self.cells.push(Vec::new());
                self.hoods.push(OnceCell::new());
                // A cell that appears after neighbourhoods were handed
                // out belongs in up to eight of them. Runtime growth is
                // rare: forget them all and let queries refill.
                if self.hoods_filled.replace(false) {
                    self.hoods.fill_with(OnceCell::new);
                }
                cell
            }
        };
        self.cells[cell as usize].push(id);
        cell
    }

    /// The occupied cells among the 3x3 around coordinates `(cx, cy)`.
    fn around(&self, (cx, cy): (i64, i64)) -> impl Iterator<Item = u32> + '_ {
        (-1..=1)
            .flat_map(move |dx| (-1..=1).map(move |dy| (cx + dx, cy + dy)))
            .filter_map(|key| self.ids.get(&key).copied())
    }

    /// The ids of the occupied cells in the 3x3 neighbourhood of `cell`
    /// (itself included): every position within `cell_size` meters of
    /// any position in `cell` lies in one of them. Stays correct as
    /// later insertions open new cells.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not an id returned by [`SpatialGrid::insert`].
    pub fn neighbourhood(&self, cell: u32) -> &[u32] {
        let hood = self.hoods[cell as usize].get_or_init(|| {
            self.hoods_filled.set(true);
            let mut hood = Hood::default();
            for c in self.around(self.keys[cell as usize]) {
                hood.cells[hood.len as usize] = c;
                hood.len += 1;
            }
            hood
        });
        &hood.cells[..hood.len as usize]
    }

    /// Collects into `out` (cleared first) every id whose position is
    /// within `cell_size` meters of `center` — plus possibly some
    /// farther ids from the same 3x3 cell neighbourhood; callers must
    /// still apply their exact range check. `out` comes back sorted
    /// ascending.
    pub fn gather(&self, center: Pos, out: &mut Vec<u32>) {
        out.clear();
        for c in self.around(self.key(center)) {
            out.extend_from_slice(&self.cells[c as usize]);
        }
        // Each cell holds ids in insertion (ascending) order, but the
        // cells themselves are visited in neighbourhood order; one sort
        // over the (small) gathered set restores global id order.
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_covers_full_radius_across_boundaries() {
        // Nodes sitting exactly on cell boundaries and exactly at
        // cell-size distance from the query point must be gathered.
        let mut g = SpatialGrid::new(10.0);
        g.insert(0, Pos::new(10.0, 0.0)); // exactly on a cell edge
        g.insert(1, Pos::new(19.999, 0.0)); // just inside range of x=10
        g.insert(2, Pos::new(0.0, 10.0)); // boundary on the other axis
        g.insert(3, Pos::new(-10.0, 0.0)); // negative coordinates
        let mut out = Vec::new();
        g.gather(Pos::new(10.0, 0.0), &mut out);
        assert!(out.contains(&0) && out.contains(&1) && out.contains(&2));
        g.gather(Pos::new(0.0, 0.0), &mut out);
        // Superset contract: id 1 (19.999 m away) is gathered because
        // it shares the neighbourhood; the caller's range check prunes it.
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn gather_is_sorted_with_colocated_ids() {
        let mut g = SpatialGrid::new(5.0);
        // Co-located nodes, inserted in ascending id order like the
        // medium does, land in one cell and stay sorted.
        for id in 0..8u32 {
            g.insert(id, Pos::new(1.0, 1.0));
        }
        g.insert(8, Pos::new(-0.5, 1.0)); // neighbouring cell
        let mut out = Vec::new();
        g.gather(Pos::new(1.0, 1.0), &mut out);
        assert_eq!(out, (0..9).collect::<Vec<u32>>());
        assert_eq!(g.len(), 9);
        assert!(!g.is_empty());
    }

    #[test]
    fn far_ids_are_not_gathered() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(0, Pos::new(0.0, 0.0));
        g.insert(1, Pos::new(35.0, 0.0)); // > 2 cells away
        let mut out = Vec::new();
        g.gather(Pos::new(0.0, 0.0), &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn cell_ids_are_dense_and_neighbourhoods_cover_the_3x3() {
        let mut g = SpatialGrid::new(10.0);
        let a = g.insert(0, Pos::new(5.0, 5.0));
        let b = g.insert(1, Pos::new(15.0, 5.0)); // east of a
        let c = g.insert(2, Pos::new(-5.0, -5.0)); // diagonal to a, two from b
        let d = g.insert(3, Pos::new(45.0, 5.0)); // adjoins none
        assert_eq!(g.insert(4, Pos::new(9.9, 0.0)), a);
        assert_eq!((a, b, c, d, g.cell_count()), (0, 1, 2, 3, 4));
        let sorted = |cells: &[u32]| {
            let mut v = cells.to_vec();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(g.neighbourhood(a)), [a, b, c]);
        assert_eq!(sorted(g.neighbourhood(b)), [a, b]);
        assert_eq!(sorted(g.neighbourhood(c)), [a, c]);
        assert_eq!(g.neighbourhood(d), [d]);
    }

    #[test]
    fn neighbourhoods_survive_cells_opened_after_a_query() {
        let mut g = SpatialGrid::new(10.0);
        let a = g.insert(0, Pos::new(5.0, 5.0));
        assert_eq!(g.neighbourhood(a), [a]);
        // A cell next to `a` opens after its neighbourhood was handed
        // out; an insertion into an existing cell changes nothing.
        let b = g.insert(1, Pos::new(15.0, 15.0));
        g.insert(2, Pos::new(6.0, 6.0));
        assert_eq!(g.neighbourhood(a), [a, b]);
        assert_eq!(g.neighbourhood(b), [a, b]);
        // And again, once those answers were cached.
        let c = g.insert(3, Pos::new(-5.0, 5.0));
        assert_eq!(g.neighbourhood(a), [c, a, b]);
        assert_eq!(g.neighbourhood(b), [a, b]);
    }

    #[test]
    fn infinite_cell_side_is_one_cell_holding_everything() {
        let mut g = SpatialGrid::new(f64::INFINITY);
        for (id, &(x, y)) in [(0.0, 0.0), (-1e6, 3.0), (7.0, -1e9), (1e12, 1e12)]
            .iter()
            .enumerate()
        {
            assert_eq!(g.insert(id as u32, Pos::new(x, y)), 0);
        }
        assert_eq!(g.cell_count(), 1);
        assert_eq!(g.neighbourhood(0), [0]);
        let mut out = Vec::new();
        g.gather(Pos::new(-4e3, 4e3), &mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "cell size")]
    fn zero_cell_rejected() {
        let _ = SpatialGrid::new(0.0);
    }
}
