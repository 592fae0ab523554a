//! Connectivity oracles over a simulated deployment: breadth-first hop
//! counts, BFS parent trees and reachability — plus the fixed line,
//! star and grid parent trees that static schedules and rollouts are
//! laid over.
//!
//! These are *deployment-planning* utilities (and test oracles), not
//! protocol components: they look at node positions and the link model
//! the way an installer's site-survey tool would, e.g. to derive a TDMA
//! schedule or to know the true hop distance when evaluating a routing
//! protocol's choices.

use iiot_sim::{NodeId, RadioConfig, Topology};
use std::collections::VecDeque;

/// Whether two nodes `d` meters apart have a usable link: a packet
/// reception ratio of at least 0.5.
fn usable(radio: &RadioConfig, d: f64) -> bool {
    radio
        .rssi_at(d)
        .is_some_and(|rssi| radio.prr(d, rssi) >= 0.5)
}

/// Adjacency lists of `topo` under `radio`'s link model (symmetric).
/// Indices equal node ids.
pub fn neighbors(topo: &Topology, radio: &RadioConfig) -> Vec<Vec<NodeId>> {
    let n = topo.len();
    let mut adj = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if usable(radio, topo.pos(i).distance(topo.pos(j))) {
                adj[i].push(NodeId(j as u32));
                adj[j].push(NodeId(i as u32));
            }
        }
    }
    adj
}

/// BFS hop distance of every node `alive` accepts from `root` (`None`
/// if unreachable or dead). Pass `|n| sim.is_alive(n)` to follow a
/// running simulation, `|_| true` when planning a deployment.
pub fn hops_from(
    topo: &Topology,
    radio: &RadioConfig,
    alive: impl Fn(NodeId) -> bool,
    root: NodeId,
) -> Vec<Option<u32>> {
    bfs(topo, radio, alive, root).0
}

/// BFS parent of every alive node on a shortest-hop tree rooted at
/// `root` (`None` for the root itself and for unreachable/dead nodes).
pub fn parents_bfs(
    topo: &Topology,
    radio: &RadioConfig,
    alive: impl Fn(NodeId) -> bool,
    root: NodeId,
) -> Vec<Option<NodeId>> {
    bfs(topo, radio, alive, root).1
}

fn bfs(
    topo: &Topology,
    radio: &RadioConfig,
    alive: impl Fn(NodeId) -> bool,
    root: NodeId,
) -> (Vec<Option<u32>>, Vec<Option<NodeId>>) {
    let adj = neighbors(topo, radio);
    let mut hops = vec![None; topo.len()];
    let mut parent = vec![None; topo.len()];
    if !alive(root) {
        return (hops, parent);
    }
    hops[root.index()] = Some(0);
    let mut q = VecDeque::from([root]);
    while let Some(u) = q.pop_front() {
        let hu = hops[u.index()].expect("visited");
        for &v in &adj[u.index()] {
            if alive(v) && hops[v.index()].is_none() {
                hops[v.index()] = Some(hu + 1);
                parent[v.index()] = Some(u);
                q.push_back(v);
            }
        }
    }
    (hops, parent)
}

/// Whether every alive node can reach `root` (the partition oracle).
pub fn all_connected(
    topo: &Topology,
    radio: &RadioConfig,
    alive: impl Fn(NodeId) -> bool,
    root: NodeId,
) -> bool {
    let hops = hops_from(topo, radio, &alive, root);
    (0..topo.len()).all(|i| !alive(NodeId(i as u32)) || hops[i].is_some())
}

/// Parent tree of an `n`-node line rooted at node 0: node `i` hangs
/// off node `i - 1`.
pub fn line_parents(n: usize) -> Vec<Option<NodeId>> {
    (0..n)
        .map(|i| i.checked_sub(1).map(|p| NodeId(p as u32)))
        .collect()
}

/// Parent tree of an `n`-node star rooted at node 0: every other node
/// hangs off the root directly.
pub fn star_parents(n: usize) -> Vec<Option<NodeId>> {
    (0..n).map(|i| (i > 0).then_some(NodeId(0))).collect()
}

/// First-hop spanning tree of a `cols x rows` grid numbered row by row
/// (as [`Topology::grid`] numbers it), rooted at node 0: each node's
/// parent is its west neighbour if it has one, else its north one, so
/// every edge is one grid hop.
pub fn grid_parents(cols: usize, rows: usize) -> Vec<Option<NodeId>> {
    (0..rows)
        .flat_map(|r| {
            (0..cols).map(move |c| {
                if c > 0 {
                    Some(NodeId((r * cols + c - 1) as u32))
                } else if r > 0 {
                    Some(NodeId(((r - 1) * cols + c) as u32))
                } else {
                    None
                }
            })
        })
        .collect()
}

/// The non-root nodes of a parent tree grouped by depth, depth 1 first,
/// each ring in id order — the cohorts of a rollout that must grow
/// outward from the root because disabled nodes relay nothing.
pub fn depth_rings(parents: &[Option<NodeId>]) -> Vec<Vec<NodeId>> {
    let mut rings: Vec<Vec<NodeId>> = Vec::new();
    for i in 0..parents.len() {
        let (mut depth, mut j) = (0, i);
        while let Some(p) = parents[j] {
            j = p.index();
            depth += 1;
        }
        if depth > 0 {
            if rings.len() < depth {
                rings.resize(depth, Vec::new());
            }
            rings[depth - 1].push(NodeId(i as u32));
        }
    }
    rings
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracles over an `n`-node line under the default radio, with
    /// the nodes in `dead` crashed.
    fn line(n: usize, spacing: f64, dead: &[u32]) -> (Vec<Option<u32>>, Vec<Option<NodeId>>, bool) {
        let (topo, radio) = (Topology::line(n, spacing), RadioConfig::default());
        let alive = |v: NodeId| !dead.contains(&v.0);
        (
            hops_from(&topo, &radio, alive, NodeId(0)),
            parents_bfs(&topo, &radio, alive, NodeId(0)),
            all_connected(&topo, &radio, alive, NodeId(0)),
        )
    }

    #[test]
    fn line_hops_are_sequential() {
        // 20m spacing, 30m range: chain only
        let (hops, parents, connected) = line(5, 20.0, &[]);
        assert_eq!(hops, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        assert_eq!(parents[0], None);
        assert_eq!(parents[3], Some(NodeId(2)));
        assert!(connected);
    }

    #[test]
    fn dense_spacing_shortcuts_hops() {
        // 10m spacing: 30m range spans 3 nodes
        let (hops, ..) = line(5, 10.0, &[]);
        assert_eq!(hops[4], Some(2), "two 30m jumps cover 40m");
    }

    #[test]
    fn dead_node_breaks_the_chain() {
        let (hops, _, connected) = line(5, 20.0, &[2]);
        assert_eq!(hops[1], Some(1));
        assert_eq!(hops[2], None, "dead");
        assert_eq!(hops[3], None, "beyond the break");
        assert!(!connected);
    }

    #[test]
    fn dead_root_reaches_nothing() {
        assert_eq!(line(3, 20.0, &[0]).0, vec![None, None, None]);
    }

    #[test]
    fn fixed_trees() {
        let n = |i: u32| Some(NodeId(i));
        assert_eq!(line_parents(3), vec![None, n(0), n(1)]);
        assert_eq!(star_parents(3), vec![None, n(0), n(0)]);
        // 3 x 2: row 0 chains west, row 1 hangs its first node north.
        let grid = grid_parents(3, 2);
        assert_eq!(grid, vec![None, n(0), n(1), n(0), n(3), n(4)]);
        let ids = |v: &[u32]| v.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
        assert_eq!(
            depth_rings(&grid),
            vec![ids(&[1, 3]), ids(&[2, 4]), ids(&[5])]
        );
        assert!(depth_rings(&[None]).is_empty());
        assert_eq!(depth_rings(&star_parents(4)), vec![ids(&[1, 2, 3])]);
    }

    #[test]
    fn neighbors_symmetric() {
        let adj = neighbors(&Topology::line(4, 20.0), &RadioConfig::default());
        for (i, list) in adj.iter().enumerate() {
            for &j in list {
                assert!(
                    adj[j.index()].contains(&NodeId(i as u32)),
                    "asymmetric adjacency"
                );
            }
        }
    }
}
