//! Compressed sparse row (CSR) representation of an undirected weighted
//! graph.
//!
//! GP-SSN workloads are read-heavy: networks are built once and then
//! traversed millions of times during index construction and query
//! answering. CSR gives contiguous, index-addressed adjacency storage with
//! no per-node allocation, following the flat-storage idiom for database
//! engines.

/// Identifier of a graph vertex (index into the CSR arrays).
pub type NodeId = u32;

/// Identifier of an undirected edge (index into the original edge list).
pub type EdgeId = u32;

/// `2³²`: lengths live on the grid of its reciprocal (see [`grid_up`]).
const GRID_SCALE: f64 = 4_294_967_296.0;

/// Exclusive bound on a road network's total edge length (`2²¹`). Every
/// grid value below it fits in the 53-bit f64 significand with its
/// `2⁻³²` digit, so each sum of shortest-path lengths and on-edge offsets
/// is exact and therefore independent of summation order.
pub const GRID_HEADROOM: f64 = 2_097_152.0;

/// Rounds `x` **up** to the next multiple of `2⁻³²`. Edge weights enter
/// the system through this, so a road length never drops below its
/// Euclidean length. Values at or beyond [`GRID_HEADROOM`] (and
/// non-finite ones) are already multiples of `2⁻³²` or invalid, and pass
/// through unchanged.
#[inline]
pub fn grid_up(x: f64) -> f64 {
    if x.abs() < GRID_HEADROOM {
        (x * GRID_SCALE).ceil() / GRID_SCALE
    } else {
        x
    }
}

/// Rounds `x` to the nearest multiple of `2⁻³²` (on-edge offsets and
/// seed distances); passes values beyond [`GRID_HEADROOM`] through like
/// [`grid_up`].
#[inline]
pub fn grid_nearest(x: f64) -> f64 {
    if x.abs() < GRID_HEADROOM {
        (x * GRID_SCALE).round() / GRID_SCALE
    } else {
        x
    }
}

/// A neighbor entry: the adjacent node, the weight of the connecting edge,
/// and the id of the undirected edge it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Adjacent vertex.
    pub node: NodeId,
    /// Edge weight (length for road networks, `1.0` for social networks).
    pub weight: f64,
    /// Undirected edge id shared by both directions.
    pub edge: EdgeId,
}

/// An undirected weighted graph in CSR form.
///
/// Construct with [`CsrGraph::from_edges`]; the graph is immutable
/// afterwards. Self-loops are rejected and duplicate edges are kept (both
/// are traversed; shortest-path algorithms naturally use the lighter one).
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<u32>,
    neighbors: Vec<Neighbor>,
    /// Original undirected edge list `(u, v, w)`.
    edges: Vec<(NodeId, NodeId, f64)>,
}

impl CsrGraph {
    /// Builds a CSR graph with `n` vertices from an undirected edge list.
    /// Each weight is rounded up onto the `2⁻³²` grid ([`grid_up`]).
    ///
    /// # Panics
    ///
    /// Panics if an edge references a vertex `>= n`, has a negative or
    /// non-finite weight, or is a self-loop.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId, f64)]) -> Self {
        let mut degree = vec![0u32; n];
        for &(u, v, w) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge endpoint out of range"
            );
            assert!(u != v, "self-loops are not supported");
            assert!(
                w.is_finite() && w >= 0.0,
                "edge weights must be finite and non-negative"
            );
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let edges: Vec<(NodeId, NodeId, f64)> =
            edges.iter().map(|&(u, v, w)| (u, v, grid_up(w))).collect();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut acc = 0u32;
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![
            Neighbor {
                node: 0,
                weight: 0.0,
                edge: 0
            };
            edges.len() * 2
        ];
        for (i, &(u, v, w)) in edges.iter().enumerate() {
            let e = i as EdgeId;
            neighbors[cursor[u as usize] as usize] = Neighbor {
                node: v,
                weight: w,
                edge: e,
            };
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize] as usize] = Neighbor {
                node: u,
                weight: w,
                edge: e,
            };
            cursor[v as usize] += 1;
        }
        CsrGraph {
            offsets,
            neighbors,
            edges,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Neighbors of `v` (each undirected edge appears once per endpoint).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[Neighbor] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Average vertex degree (`2|E| / |V|`); `0.0` for an empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            2.0 * self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Endpoints and weight of undirected edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (NodeId, NodeId, f64) {
        self.edges[e as usize]
    }

    /// Iterator over all undirected edges as `(u, v, w)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.edges.iter().copied()
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|&(_, _, w)| w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        CsrGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)])
    }

    #[test]
    fn builds_counts() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.average_degree(), 2.0);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let g = triangle();
        for (u, v, w) in g.edges() {
            assert!(g
                .neighbors(u)
                .iter()
                .any(|nb| nb.node == v && nb.weight == w));
            assert!(g
                .neighbors(v)
                .iter()
                .any(|nb| nb.node == u && nb.weight == w));
        }
    }

    #[test]
    fn isolated_vertices_have_empty_neighbors() {
        let g = CsrGraph::from_edges(5, &[(0, 1, 1.0)]);
        assert_eq!(g.degree(2), 0);
        assert!(g.neighbors(4).is_empty());
    }

    #[test]
    fn edge_lookup_round_trips() {
        let g = triangle();
        assert_eq!(g.edge(1), (1, 2, 2.0));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        CsrGraph::from_edges(2, &[(1, 1, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        CsrGraph::from_edges(2, &[(0, 2, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_negative_weight() {
        CsrGraph::from_edges(2, &[(0, 1, -1.0)]);
    }

    #[test]
    fn total_weight_sums_edges() {
        assert_eq!(triangle().total_weight(), 7.0);
    }

    #[test]
    fn weights_round_up_onto_the_grid() {
        let g = CsrGraph::from_edges(2, &[(0, 1, 0.1)]);
        let w = g.edge(0).2;
        assert!(w >= 0.1 && w - 0.1 < 1.0 / GRID_SCALE);
        assert_eq!((w * GRID_SCALE).fract(), 0.0);
        assert_eq!(g.neighbors(0)[0].weight.to_bits(), w.to_bits());
        assert_eq!(grid_up(w), w);
        assert_eq!(grid_nearest(w), w);
        assert_eq!(grid_up(GRID_HEADROOM * 4.0), GRID_HEADROOM * 4.0);
        assert!(grid_up(f64::INFINITY).is_infinite());
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }
}
