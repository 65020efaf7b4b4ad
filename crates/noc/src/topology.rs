//! DL-group topologies and deterministic shortest-path routing.
//!
//! The paper's shipping design chains the DIMMs of one group with
//! bidirectional links between adjacent slots (it calls the result a
//! "half-ring"); Section VI explores ring, mesh, and torus alternatives.
//! All four are generated here, with per-destination BFS routing tables
//! (lowest-index tie-break, so routes are deterministic).

use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of one unidirectional link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// The connectivity patterns explored by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum TopologyKind {
    /// Adjacent DIMMs connected in a line (the practical baseline).
    Chain,
    /// Chain plus a wrap-around link (needs long-reach SerDes).
    Ring,
    /// 2-D mesh over a near-square grid.
    Mesh,
    /// 2-D torus (mesh + wrap-around in both dimensions).
    Torus,
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TopologyKind::Chain => "chain",
            TopologyKind::Ring => "ring",
            TopologyKind::Mesh => "mesh",
            TopologyKind::Torus => "torus",
        };
        f.write_str(s)
    }
}

/// An instantiated topology over `n` nodes with routing tables.
#[derive(Debug, Clone)]
pub struct Topology {
    kind: TopologyKind,
    n: usize,
    links: Vec<(usize, usize)>,
    link_of: BTreeMap<(usize, usize), LinkId>,
    /// Every route's links, back to back: `src -> dst` is
    /// `routes[route_at[src * n + dst]..route_at[src * n + dst + 1]]`.
    routes: Vec<LinkId>,
    route_at: Vec<usize>,
    /// `dist[a][b]` = hops on a shortest path.
    dist: Vec<Vec<u32>>,
}

impl Topology {
    /// Builds a topology over `n` nodes.
    ///
    /// Mesh/torus grids use the largest divisor of `n` that is at most
    /// `sqrt(n)` as the row count (so 8 nodes form a 2×4 grid); a prime `n`
    /// degenerates to a 1×n grid, i.e. a chain (or ring for the torus).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(kind: TopologyKind, n: usize) -> Self {
        assert!(n > 0, "topology needs at least one node");
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let add_bidir = |edges: &mut Vec<(usize, usize)>, a: usize, b: usize| {
            if a != b && !edges.contains(&(a, b)) {
                edges.push((a, b));
                edges.push((b, a));
            }
        };
        match kind {
            TopologyKind::Chain => {
                for i in 0..n.saturating_sub(1) {
                    add_bidir(&mut edges, i, i + 1);
                }
            }
            TopologyKind::Ring => {
                for i in 0..n.saturating_sub(1) {
                    add_bidir(&mut edges, i, i + 1);
                }
                if n > 2 {
                    add_bidir(&mut edges, n - 1, 0);
                }
            }
            TopologyKind::Mesh | TopologyKind::Torus => {
                let (rows, cols) = grid_dims(n);
                let at = |r: usize, c: usize| r * cols + c;
                for r in 0..rows {
                    for c in 0..cols {
                        if c + 1 < cols {
                            add_bidir(&mut edges, at(r, c), at(r, c + 1));
                        }
                        if r + 1 < rows {
                            add_bidir(&mut edges, at(r, c), at(r + 1, c));
                        }
                    }
                }
                if matches!(kind, TopologyKind::Torus) {
                    for r in 0..rows {
                        if cols > 2 {
                            add_bidir(&mut edges, at(r, cols - 1), at(r, 0));
                        }
                    }
                    for c in 0..cols {
                        if rows > 2 {
                            add_bidir(&mut edges, at(rows - 1, c), at(0, c));
                        }
                    }
                }
            }
        }

        let mut adj = vec![Vec::new(); n];
        let mut link_of = BTreeMap::new();
        for (i, &(a, b)) in edges.iter().enumerate() {
            adj[a].push(b);
            link_of.insert((a, b), LinkId(i));
        }
        for nbrs in &mut adj {
            nbrs.sort_unstable();
        }

        // Per-destination BFS (from the destination over reversed edges;
        // all links are paired, so the graph is symmetric).
        let mut next_hop = vec![vec![usize::MAX; n]; n];
        let mut dist = vec![vec![u32::MAX; n]; n];
        for dst in 0..n {
            let mut queue = std::collections::VecDeque::new();
            dist[dst][dst] = 0;
            next_hop[dst][dst] = dst;
            queue.push_back(dst);
            while let Some(u) = queue.pop_front() {
                for &v in &adj[u] {
                    if dist[dst][v] == u32::MAX {
                        dist[dst][v] = dist[dst][u] + 1;
                        // From v, step to u to move towards dst.
                        next_hop[dst][v] = u;
                        queue.push_back(v);
                    }
                }
            }
        }
        // Re-index dist as dist[a][b].
        let mut dist_ab = vec![vec![u32::MAX; n]; n];
        for (dst, row) in dist.iter().enumerate() {
            for (node, &d) in row.iter().enumerate() {
                dist_ab[node][dst] = d;
            }
        }

        // Flatten every route, walking the next hops towards each
        // destination. A disconnected pair gets no route; `route` rejects it.
        let mut routes = Vec::new();
        let mut route_at = Vec::with_capacity(n * n + 1);
        route_at.push(0);
        for src in 0..n {
            for (dst, hops) in next_hop.iter().enumerate() {
                if hops[src] != usize::MAX {
                    let mut cur = src;
                    while cur != dst {
                        let nxt = hops[cur];
                        routes.push(link_of[&(cur, nxt)]);
                        cur = nxt;
                    }
                }
                route_at.push(routes.len());
            }
        }

        Topology {
            kind,
            n,
            links: edges,
            link_of,
            routes,
            route_at,
            dist: dist_ab,
        }
    }

    /// The connectivity pattern.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the topology has zero nodes (never true; see [`Topology::new`]).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of unidirectional links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Endpoints `(from, to)` of a link.
    ///
    /// # Panics
    /// Panics if `link` is out of range.
    pub fn endpoints(&self, link: LinkId) -> (usize, usize) {
        self.links[link.0]
    }

    /// Hops on a shortest path from `a` to `b`.
    ///
    /// # Panics
    /// Panics if either node is out of range or unreachable.
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        let d = self.dist[a][b];
        assert_ne!(d, u32::MAX, "nodes {a} and {b} are disconnected");
        d
    }

    /// The maximum shortest-path distance between any node pair.
    pub fn diameter(&self) -> u32 {
        (0..self.n)
            .flat_map(|a| (0..self.n).map(move |b| (a, b)))
            .map(|(a, b)| self.dist[a][b])
            .max()
            .unwrap_or(0)
    }

    /// The links of the deterministic shortest route from `src` to `dst`
    /// (empty when `src == dst`).
    ///
    /// # Panics
    /// Panics if the nodes are out of range or disconnected.
    pub fn route(&self, src: usize, dst: usize) -> &[LinkId] {
        assert!(src < self.n && dst < self.n, "node out of range");
        assert_ne!(
            self.dist[src][dst],
            u32::MAX,
            "nodes {src} and {dst} are disconnected"
        );
        let at = src * self.n + dst;
        &self.routes[self.route_at[at]..self.route_at[at + 1]]
    }

    /// A broadcast tree rooted at `src`: `(parent, child, link)` triples in
    /// BFS order, covering every other node exactly once.
    pub fn broadcast_tree(&self, src: usize) -> Vec<(usize, usize, LinkId)> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.n];
        for &(a, b) in &self.links {
            adj[a].push(b);
        }
        for nbrs in &mut adj {
            nbrs.sort_unstable();
        }
        let mut seen = vec![false; self.n];
        seen[src] = true;
        let mut queue = std::collections::VecDeque::from([src]);
        let mut tree = Vec::with_capacity(self.n - 1);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    tree.push((u, v, self.link_of[&(u, v)]));
                    queue.push_back(v);
                }
            }
        }
        tree
    }

    /// Whether `link` is a wrap-around link — the ring's closing edge, or a
    /// torus row/column wrap. These are the links that close channel
    /// dependency cycles, so wormhole routers switch virtual channels when
    /// crossing them (the classical dateline rule). Always `false` for
    /// chain and mesh.
    ///
    /// # Panics
    /// Panics if `link` is out of range.
    pub fn is_wrap_link(&self, link: LinkId) -> bool {
        let (a, b) = self.links[link.0];
        match self.kind {
            TopologyKind::Chain | TopologyKind::Mesh => false,
            TopologyKind::Ring => self.n > 2 && a.abs_diff(b) == self.n - 1,
            TopologyKind::Torus => {
                let (_, cols) = grid_dims(self.n);
                let (ra, ca) = (a / cols, a % cols);
                let (rb, cb) = (b / cols, b % cols);
                // Adjacent grid cells differ by 1 in exactly one coordinate;
                // a wrap link jumps across the whole row or column.
                (ra == rb && ca.abs_diff(cb) > 1) || (ca == cb && ra.abs_diff(rb) > 1)
            }
        }
    }

    /// Iterates all `(from, to)` link endpoint pairs in link-id order.
    pub fn iter_links(&self) -> impl Iterator<Item = (LinkId, usize, usize)> + '_ {
        self.links
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| (LinkId(i), a, b))
    }
}

/// Near-square grid dimensions `(rows, cols)` with `rows <= cols` and
/// `rows * cols == n`.
fn grid_dims(n: usize) -> (usize, usize) {
    let mut rows = 1;
    let mut r = 1;
    while r * r <= n {
        if n.is_multiple_of(r) {
            rows = r;
        }
        r += 1;
    }
    (rows, n / rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_links_and_diameter() {
        let t = Topology::new(TopologyKind::Chain, 8);
        // 2 * (N - 1) unidirectional links, as in the paper's Fig. 2.
        assert_eq!(t.link_count(), 2 * 7);
        assert_eq!(t.diameter(), 7);
        assert_eq!(t.distance(0, 7), 7);
        assert_eq!(t.distance(3, 3), 0);
    }

    #[test]
    fn ring_halves_worst_case() {
        let t = Topology::new(TopologyKind::Ring, 8);
        assert_eq!(t.link_count(), 2 * 8);
        assert_eq!(t.diameter(), 4);
        assert_eq!(t.distance(0, 7), 1);
    }

    #[test]
    fn mesh_and_torus_grids() {
        let m = Topology::new(TopologyKind::Mesh, 8); // 2 x 4
        assert_eq!(m.diameter(), 4); // (2-1)+(4-1)
        let t = Topology::new(TopologyKind::Torus, 8); // 2 x 4 with col wrap
        assert!(t.diameter() < m.diameter());
    }

    #[test]
    fn grid_dims_near_square() {
        assert_eq!(grid_dims(8), (2, 4));
        assert_eq!(grid_dims(16), (4, 4));
        assert_eq!(grid_dims(12), (3, 4));
        assert_eq!(grid_dims(7), (1, 7)); // prime: degenerates to a line
        assert_eq!(grid_dims(1), (1, 1));
    }

    #[test]
    fn routes_follow_shortest_paths() {
        for kind in [
            TopologyKind::Chain,
            TopologyKind::Ring,
            TopologyKind::Mesh,
            TopologyKind::Torus,
        ] {
            let t = Topology::new(kind, 8);
            for a in 0..8 {
                for b in 0..8 {
                    let route = t.route(a, b);
                    assert_eq!(route.len() as u32, t.distance(a, b), "{kind} {a}->{b}");
                    // Route is connected and ends at b.
                    let mut cur = a;
                    for l in route {
                        let (from, to) = t.endpoints(*l);
                        assert_eq!(from, cur);
                        cur = to;
                    }
                    assert_eq!(cur, b);
                }
            }
        }
    }

    #[test]
    fn routes_are_deterministic() {
        let t1 = Topology::new(TopologyKind::Torus, 16);
        let t2 = Topology::new(TopologyKind::Torus, 16);
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(t1.route(a, b), t2.route(a, b));
            }
        }
    }

    #[test]
    fn broadcast_tree_covers_all_nodes_once() {
        for kind in [
            TopologyKind::Chain,
            TopologyKind::Ring,
            TopologyKind::Mesh,
            TopologyKind::Torus,
        ] {
            let t = Topology::new(kind, 12);
            for src in 0..12 {
                let tree = t.broadcast_tree(src);
                assert_eq!(tree.len(), 11, "{kind} from {src}");
                let mut seen = std::collections::BTreeSet::from([src]);
                for (parent, child, link) in tree {
                    assert!(seen.contains(&parent), "parent {parent} before child");
                    assert!(seen.insert(child), "child {child} reached twice");
                    assert_eq!(t.endpoints(link), (parent, child));
                }
            }
        }
    }

    #[test]
    fn wrap_links_identified_per_topology() {
        for kind in [TopologyKind::Chain, TopologyKind::Mesh] {
            let t = Topology::new(kind, 8);
            assert!(
                t.iter_links().all(|(l, _, _)| !t.is_wrap_link(l)),
                "{kind} has no wrap links"
            );
        }
        let r = Topology::new(TopologyKind::Ring, 8);
        let ring_wraps: Vec<_> = r
            .iter_links()
            .filter(|&(l, _, _)| r.is_wrap_link(l))
            .collect();
        assert_eq!(ring_wraps.len(), 2); // 7->0 and 0->7
        for (_, a, b) in ring_wraps {
            assert_eq!(a.abs_diff(b), 7);
        }
        // 2 x 4 torus: 2 row wraps (rows of 4 > 2 cols apart), no column
        // wraps (only 2 rows) — 4 unidirectional wrap links.
        let t = Topology::new(TopologyKind::Torus, 8);
        let torus_wraps = t.iter_links().filter(|&(l, _, _)| t.is_wrap_link(l));
        assert_eq!(torus_wraps.count(), 4);
        // 4 x 4 torus wraps both dimensions: 4 per row + 4 per column,
        // bidirectional.
        let t16 = Topology::new(TopologyKind::Torus, 16);
        let w16 = t16.iter_links().filter(|&(l, _, _)| t16.is_wrap_link(l));
        assert_eq!(w16.count(), 16);
    }

    #[test]
    fn single_node_topologies() {
        for kind in [TopologyKind::Chain, TopologyKind::Ring, TopologyKind::Mesh] {
            let t = Topology::new(kind, 1);
            assert_eq!(t.link_count(), 0);
            assert_eq!(t.diameter(), 0);
            assert!(t.route(0, 0).is_empty());
            assert!(t.broadcast_tree(0).is_empty());
        }
    }

    #[test]
    fn two_node_ring_is_chain() {
        let t = Topology::new(TopologyKind::Ring, 2);
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.diameter(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = Topology::new(TopologyKind::Chain, 0);
    }
}
