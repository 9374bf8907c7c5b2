//! POIs on road networks (Definition 2) and positions on edges.

use crate::distance::{self, dist_rn};
use crate::network::RoadNetwork;
use gpssn_graph::{grid_nearest, DijkstraWorkspace, EdgeId, NodeId};
use gpssn_spatial::{Point, RStarTree};

/// Identifier of a POI within a [`PoiSet`].
pub type PoiId = u32;

/// A point on a road network: a position `offset` along edge `edge`,
/// measured from the edge's first endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkPoint {
    /// The road segment the point lies on.
    pub edge: EdgeId,
    /// Distance from the edge's first endpoint, in `[0, edge_length]`,
    /// on the `2⁻³²` grid ([`NetworkPoint::new`] puts it there; exact,
    /// symmetric `dist_RN` relies on it).
    pub offset: f64,
}

impl NetworkPoint {
    /// Creates a network point: `offset` is rounded to the nearest
    /// multiple of `2⁻³²` (the grid edge lengths live on, so every
    /// along-edge sum stays exact) and clamped into the edge.
    pub fn new(net: &RoadNetwork, edge: EdgeId, offset: f64) -> Self {
        let len = net.edge_length(edge);
        NetworkPoint {
            edge,
            offset: grid_nearest(offset).clamp(0.0, len),
        }
    }

    /// A network point sitting exactly on a vertex: uses any incident
    /// edge. Panics if the vertex is isolated.
    // Audited expect: the panic on isolated vertices is part of the
    // documented contract above.
    #[allow(clippy::expect_used)]
    pub fn at_vertex(net: &RoadNetwork, v: NodeId) -> Self {
        let nb = net
            .graph()
            .neighbors(v)
            .first()
            .copied()
            .expect("cannot place a network point on an isolated vertex");
        let (a, _, len) = net.edge(nb.edge);
        let offset = if a == v { 0.0 } else { len };
        NetworkPoint {
            edge: nb.edge,
            offset,
        }
    }

    /// 2-D location of the point (linear interpolation along the edge,
    /// which is exact for straight road segments and a close approximation
    /// otherwise).
    pub fn location(&self, net: &RoadNetwork) -> Point {
        let (u, v, len) = net.edge(self.edge);
        let t = if len == 0.0 { 0.0 } else { self.offset / len };
        net.location(u).lerp(&net.location(v), t)
    }

    /// Dijkstra seeds for this point: both endpoints of its edge with the
    /// corresponding along-edge initial distances.
    pub fn seeds(&self, net: &RoadNetwork) -> [(NodeId, f64); 2] {
        let (u, v, len) = net.edge(self.edge);
        [(u, self.offset), (v, len - self.offset)]
    }
}

/// A point of interest (Definition 2): a location on an edge plus a set of
/// keywords describing the facility.
#[derive(Debug, Clone)]
pub struct Poi {
    /// Where the POI sits on the road network.
    pub position: NetworkPoint,
    /// Keyword/topic ids (`o_i.K`), sorted and deduplicated.
    pub keywords: Vec<u32>,
}

impl Poi {
    /// Creates a POI, normalizing the keyword set.
    pub fn new(position: NetworkPoint, mut keywords: Vec<u32>) -> Self {
        keywords.sort_unstable();
        keywords.dedup();
        Poi { position, keywords }
    }
}

/// The set `O` of POIs over a road network, with an R\*-tree over their
/// 2-D locations for Euclidean prefiltering of road-network ball queries
/// (Euclidean distance never exceeds road-network distance, so the
/// prefilter is a superset and the final check is exact).
#[derive(Debug, Clone)]
pub struct PoiSet {
    pois: Vec<Poi>,
    locations: Vec<Point>,
    tree: RStarTree,
}

impl PoiSet {
    /// Builds a POI set (and its Euclidean R\*-tree) over `net`.
    pub fn new(net: &RoadNetwork, pois: Vec<Poi>) -> Self {
        let locations: Vec<Point> = pois.iter().map(|p| p.position.location(net)).collect();
        // STR bulk load: this tree is our internal Euclidean prefilter
        // (the paper's I_R is built with repeated insertion — see
        // gpssn-index), so the faster packing is fair game here.
        let tree = RStarTree::str_bulk_load(
            32,
            locations.iter().enumerate().map(|(i, &p)| (i as u32, p)),
        );
        PoiSet {
            pois,
            locations,
            tree,
        }
    }

    /// Number of POIs (`n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.pois.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pois.is_empty()
    }

    /// POI accessor.
    #[inline]
    pub fn get(&self, id: PoiId) -> &Poi {
        &self.pois[id as usize]
    }

    /// All POIs.
    #[inline]
    pub fn pois(&self) -> &[Poi] {
        &self.pois
    }

    /// 2-D location of POI `id`.
    #[inline]
    pub fn location(&self, id: PoiId) -> Point {
        self.locations[id as usize]
    }

    /// The Euclidean R\*-tree over POI locations (shared with `I_R`).
    #[inline]
    pub fn tree(&self) -> &RStarTree {
        &self.tree
    }

    /// POIs within *Euclidean* distance `radius` of `center` — a superset
    /// of any road-network ball of the same radius.
    pub fn euclidean_ball(&self, center: Point, radius: f64) -> Vec<PoiId> {
        self.tree
            .within_radius(&center, radius)
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// Exact road-network ball `⊙(center, radius)`: ids of POIs whose
    /// road-network distance from `center` is at most `radius`, paired
    /// with those distances. Sorted by distance (ties by POI id).
    pub fn network_ball(
        &self,
        net: &RoadNetwork,
        center: &NetworkPoint,
        radius: f64,
    ) -> Vec<(PoiId, f64)> {
        let mut ws = DijkstraWorkspace::new();
        self.network_ball_with(net, &mut ws, center, radius)
    }

    /// [`PoiSet::network_ball`] running inside a caller-provided
    /// [`DijkstraWorkspace`], so repeated ball computations (index build,
    /// refinement) are allocation-free. Results are identical to the
    /// one-shot variant.
    pub fn network_ball_with(
        &self,
        net: &RoadNetwork,
        ws: &mut DijkstraWorkspace,
        center: &NetworkPoint,
        radius: f64,
    ) -> Vec<(PoiId, f64)> {
        let center_loc = center.location(net);
        let candidates = self.euclidean_ball(center_loc, radius);
        if candidates.is_empty() {
            return Vec::new();
        }
        ws.run_bounded(net.graph(), &center.seeds(net), radius);
        let dist = ws.dist();
        let mut out = Vec::new();
        for id in candidates {
            let pos = self.pois[id as usize].position;
            let d = distance::point_dist_from_map(net, dist, center, &pos);
            if d <= radius {
                out.push((id, d));
            }
        }
        // Total order: NaN-free by construction, but `total_cmp` makes
        // the sort panic-proof and fully deterministic; ties break by id
        // (euclidean_ball emits candidates in R*-tree order, not id
        // order).
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Exact road-network distance between two POIs.
    pub fn poi_distance(&self, net: &RoadNetwork, a: PoiId, b: PoiId) -> f64 {
        dist_rn(
            net,
            &self.pois[a as usize].position,
            &self.pois[b as usize].position,
        )
    }

    /// The `k` POIs nearest to `from` by road-network distance, sorted
    /// ascending — incremental network expansion (INE, Papadias et al.,
    /// reference \[34\] of the paper): grow a Euclidean candidate ring,
    /// verify with exact network distances, and stop once `k` verified
    /// results beat the ring radius (Euclidean ≤ network distance makes
    /// the cut safe).
    pub fn network_knn(
        &self,
        net: &RoadNetwork,
        from: &NetworkPoint,
        k: usize,
    ) -> Vec<(PoiId, f64)> {
        if k == 0 || self.pois.is_empty() {
            return Vec::new();
        }
        let k = k.min(self.pois.len());
        let origin = from.location(net);
        let mut radius = {
            // Seed the ring with the Euclidean k-NN distance.
            let seeds = self.tree.nearest_k(&origin, k);
            seeds.last().map_or(1.0, |&(_, _, d)| d.max(1e-6))
        };
        loop {
            let candidates = self.euclidean_ball(origin, radius);
            let positions: Vec<NetworkPoint> = candidates
                .iter()
                .map(|&id| self.pois[id as usize].position)
                .collect();
            let dists = crate::distance::dist_rn_many(net, from, &positions);
            let mut verified: Vec<(PoiId, f64)> = candidates.into_iter().zip(dists).collect();
            verified.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            // Safe stop: the k-th verified network distance fits inside
            // the Euclidean ring (nothing outside can be closer).
            if verified.len() >= k && verified[k - 1].1 <= radius {
                verified.truncate(k);
                return verified;
            }
            if verified.len() == self.pois.len() {
                verified.truncate(k);
                return verified;
            }
            radius *= 2.0;
        }
    }

    /// Union of the keyword sets of `ids` (sorted, deduplicated) — the
    /// `∪_{o_i∈R} o_i.K` term of the matching score (Eq. 2).
    pub fn keyword_union(&self, ids: &[PoiId]) -> Vec<u32> {
        let mut out: Vec<u32> = ids
            .iter()
            .flat_map(|&id| self.pois[id as usize].keywords.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_network() -> RoadNetwork {
        // 0 --(2.0)-- 1 --(2.0)-- 2 on a straight line.
        let locs = vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(4.0, 0.0),
        ];
        RoadNetwork::from_euclidean_edges(locs, &[(0, 1), (1, 2)])
    }

    #[test]
    fn network_point_location_interpolates() {
        let net = line_network();
        let p = NetworkPoint::new(&net, 0, 0.5);
        assert_eq!(p.location(&net), Point::new(0.5, 0.0));
    }

    #[test]
    fn network_point_clamps_offset() {
        let net = line_network();
        let p = NetworkPoint::new(&net, 0, 99.0);
        assert_eq!(p.offset, 2.0);
        let q = NetworkPoint::new(&net, 0, -1.0);
        assert_eq!(q.offset, 0.0);
    }

    #[test]
    fn at_vertex_places_on_incident_edge() {
        let net = line_network();
        let p = NetworkPoint::at_vertex(&net, 1);
        assert_eq!(p.location(&net), Point::new(2.0, 0.0));
        let q = NetworkPoint::at_vertex(&net, 0);
        assert_eq!(q.location(&net), Point::new(0.0, 0.0));
    }

    #[test]
    fn seeds_cover_both_endpoints() {
        let net = line_network();
        let p = NetworkPoint::new(&net, 1, 0.5); // between vertices 1 and 2
        let seeds = p.seeds(&net);
        assert!(seeds.contains(&(1, 0.5)));
        assert!(seeds.contains(&(2, 1.5)));
    }

    #[test]
    fn poi_normalizes_keywords() {
        let net = line_network();
        let p = Poi::new(NetworkPoint::new(&net, 0, 1.0), vec![3, 1, 3, 2]);
        assert_eq!(p.keywords, vec![1, 2, 3]);
    }

    fn sample_set(net: &RoadNetwork) -> PoiSet {
        let pois = vec![
            Poi::new(NetworkPoint::new(net, 0, 0.5), vec![0]), // at x=0.5
            Poi::new(NetworkPoint::new(net, 0, 1.5), vec![1]), // at x=1.5
            Poi::new(NetworkPoint::new(net, 1, 1.0), vec![2]), // at x=3.0
        ];
        PoiSet::new(net, pois)
    }

    #[test]
    fn euclidean_ball_prefilters() {
        let net = line_network();
        let set = sample_set(&net);
        let mut ids = set.euclidean_ball(Point::new(0.0, 0.0), 1.6);
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn network_ball_is_exact_and_sorted() {
        let net = line_network();
        let set = sample_set(&net);
        let center = set.get(0).position; // x = 0.5
        let ball = set.network_ball(&net, &center, 2.6);
        let ids: Vec<PoiId> = ball.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!((ball[0].1 - 0.0).abs() < 1e-9);
        assert!((ball[1].1 - 1.0).abs() < 1e-9);
        assert!((ball[2].1 - 2.5).abs() < 1e-9);
        let tight = set.network_ball(&net, &center, 1.0);
        assert_eq!(tight.len(), 2);
    }

    #[test]
    fn poi_distance_same_edge() {
        let net = line_network();
        let set = sample_set(&net);
        assert!((set.poi_distance(&net, 0, 1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn network_knn_matches_brute_force() {
        let net = line_network();
        let set = sample_set(&net);
        let from = NetworkPoint::new(&net, 0, 0.0); // x = 0
        for k in 1..=3 {
            let got = set.network_knn(&net, &from, k);
            assert_eq!(got.len(), k);
            let mut expected: Vec<(PoiId, f64)> = (0..set.len() as PoiId)
                .map(|id| (id, dist_rn(&net, &from, &set.get(id).position)))
                .collect();
            expected.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            for i in 0..k {
                assert!((got[i].1 - expected[i].1).abs() < 1e-9, "k={k} rank {i}");
            }
        }
    }

    #[test]
    fn network_knn_edge_cases() {
        let net = line_network();
        let set = sample_set(&net);
        let from = NetworkPoint::new(&net, 0, 0.0);
        assert!(set.network_knn(&net, &from, 0).is_empty());
        // k larger than the POI count returns everything.
        assert_eq!(set.network_knn(&net, &from, 99).len(), set.len());
    }

    #[test]
    fn keyword_union_dedups() {
        let net = line_network();
        let pois = vec![
            Poi::new(NetworkPoint::new(&net, 0, 0.1), vec![0, 1]),
            Poi::new(NetworkPoint::new(&net, 0, 0.2), vec![1, 2]),
        ];
        let set = PoiSet::new(&net, pois);
        assert_eq!(set.keyword_union(&[0, 1]), vec![0, 1, 2]);
        assert!(set.keyword_union(&[]).is_empty());
    }
}
