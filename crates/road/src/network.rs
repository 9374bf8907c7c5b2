//! The road network `G_r` (Definition 1): intersections with coordinates,
//! road segments as weighted edges.

use gpssn_graph::{CsrGraph, EdgeId, NodeId, GRID_HEADROOM};
use gpssn_spatial::Point;

/// A spatial road network: a weighted undirected graph whose vertices
/// carry 2-D coordinates. Edge weights are road lengths.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    graph: CsrGraph,
    locations: Vec<Point>,
}

impl RoadNetwork {
    /// Builds a road network where each edge's length is the Euclidean
    /// distance between its endpoints (the usual model for road segments).
    pub fn from_euclidean_edges(locations: Vec<Point>, edges: &[(NodeId, NodeId)]) -> Self {
        let weighted: Vec<(NodeId, NodeId, f64)> = edges
            .iter()
            .map(|&(u, v)| {
                let w = locations[u as usize].distance(&locations[v as usize]);
                (u, v, w)
            })
            .collect();
        Self::from_weighted_edges(locations, &weighted)
    }

    /// Builds a road network with explicit edge lengths (lengths must be
    /// at least the Euclidean endpoint distance for the Euclidean-prefilter
    /// optimizations to stay exact; this is asserted in debug builds, and
    /// a length up to 1e-9 short is lifted to it). Lengths are rounded up
    /// onto the `2⁻³²` grid.
    ///
    /// # Panics
    ///
    /// Panics if the total length reaches [`GRID_HEADROOM`] (`2²¹`),
    /// beyond which sums of lengths stop being exact; see
    /// [`RoadNetwork::try_from_weighted_edges`].
    pub fn from_weighted_edges(locations: Vec<Point>, edges: &[(NodeId, NodeId, f64)]) -> Self {
        match Self::try_from_weighted_edges(locations, edges) {
            Some(net) => net,
            None => panic!("total road length must stay below 2^21 (GRID_HEADROOM)"),
        }
    }

    /// [`RoadNetwork::from_weighted_edges`], returning `None` instead of
    /// panicking when the total length reaches [`GRID_HEADROOM`].
    pub fn try_from_weighted_edges(
        locations: Vec<Point>,
        edges: &[(NodeId, NodeId, f64)],
    ) -> Option<Self> {
        // A length within the tolerance below its Euclidean distance is
        // lifted to it, so the Euclidean prefilters stay exact.
        let edges: Vec<(NodeId, NodeId, f64)> = edges
            .iter()
            .map(|&(u, v, w)| {
                let euclid = locations[u as usize].distance(&locations[v as usize]);
                debug_assert!(
                    w + 1e-9 >= euclid,
                    "edge ({u},{v}) shorter ({w}) than Euclidean distance ({euclid})"
                );
                (u, v, w.max(euclid))
            })
            .collect();
        let graph = CsrGraph::from_edges(locations.len(), &edges);
        // Grid values add exactly, so a total that rounds is already
        // past the bound.
        (graph.total_weight() < GRID_HEADROOM).then_some(RoadNetwork { graph, locations })
    }

    /// Underlying graph.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Coordinates of vertex `v`.
    #[inline]
    pub fn location(&self, v: NodeId) -> Point {
        self.locations[v as usize]
    }

    /// All vertex coordinates.
    #[inline]
    pub fn locations(&self) -> &[Point] {
        &self.locations
    }

    /// Number of intersections `|V(G_r)|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of road segments `|E(G_r)|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Endpoints and length of road segment `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (NodeId, NodeId, f64) {
        self.graph.edge(e)
    }

    /// Length of road segment `e`.
    #[inline]
    pub fn edge_length(&self, e: EdgeId) -> f64 {
        self.graph.edge(e).2
    }

    /// Average intersection degree (Table 2's `deg(G_r)`).
    pub fn average_degree(&self) -> f64 {
        self.graph.average_degree()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn square_network() -> RoadNetwork {
        // Unit square: 0-(0,0), 1-(1,0), 2-(1,1), 3-(0,1), ring edges.
        let locs = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        RoadNetwork::from_euclidean_edges(locs, &[(0, 1), (1, 2), (2, 3), (3, 0)])
    }

    #[test]
    fn euclidean_lengths() {
        let net = square_network();
        assert_eq!(net.num_vertices(), 4);
        assert_eq!(net.num_edges(), 4);
        for e in 0..4 {
            assert!((net.edge_length(e) - 1.0).abs() < 1e-12);
        }
        assert_eq!(net.average_degree(), 2.0);
    }

    #[test]
    fn explicit_lengths_allowed_when_at_least_euclidean() {
        let locs = vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
        let net = RoadNetwork::from_weighted_edges(locs, &[(0, 1, 7.5)]);
        assert_eq!(net.edge_length(0), 7.5);
        // Within the 1e-9 tolerance below Euclidean: lifted to it.
        let unit = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let net = RoadNetwork::from_weighted_edges(unit, &[(0, 1, 0.9999999995)]);
        assert_eq!(net.edge_length(0), 1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "shorter")]
    fn rejects_sub_euclidean_lengths() {
        let locs = vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
        RoadNetwork::from_weighted_edges(locs, &[(0, 1, 4.9)]);
    }

    #[test]
    fn rejects_totals_beyond_the_grid_headroom() {
        let locs = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        assert!(RoadNetwork::try_from_weighted_edges(locs.clone(), &[(0, 1, 1e12)]).is_none());
        let half = GRID_HEADROOM / 2.0;
        assert!(
            RoadNetwork::try_from_weighted_edges(locs.clone(), &[(0, 1, half), (1, 0, half)])
                .is_none()
        );
        assert!(RoadNetwork::try_from_weighted_edges(locs, &[(0, 1, half)]).is_some());
    }

    #[test]
    fn location_accessors() {
        let net = square_network();
        assert_eq!(net.location(2), Point::new(1.0, 1.0));
        assert_eq!(net.locations().len(), 4);
    }
}
