//! Exact road-network distances `dist_RN` between points on edges.
//!
//! Any path between points on *different* edges passes through an endpoint
//! of each edge, so distances decompose into along-edge offsets plus
//! vertex-to-vertex shortest paths. Points on the *same* edge additionally
//! admit the direct along-edge path. All functions here are exact (no
//! bounds); the pruning machinery's bounds live in [`crate::pivots`].

use crate::network::RoadNetwork;
use crate::poi::NetworkPoint;
use gpssn_graph::{ChOracle, ChSearch, DijkstraWorkspace, NodeId};

/// Exact road-network distance between two on-edge points.
pub fn dist_rn(net: &RoadNetwork, a: &NetworkPoint, b: &NetworkPoint) -> f64 {
    let mut ws = DijkstraWorkspace::new();
    let (bu, bv, _) = net.edge(b.edge);
    ws.run_targets(net.graph(), &a.seeds(net), &[bu, bv]);
    point_dist_from_map(net, ws.dist(), a, b)
}

/// Exact distances from `a` to each point in `targets` with a single
/// Dijkstra run (early-terminating once every target edge endpoint is
/// settled).
pub fn dist_rn_many(net: &RoadNetwork, a: &NetworkPoint, targets: &[NetworkPoint]) -> Vec<f64> {
    dist_rn_many_counted(net, a, targets).0
}

/// [`dist_rn_many`] plus the number of vertices the underlying Dijkstra
/// settled, so callers can charge the work against a resource budget.
pub fn dist_rn_many_counted(
    net: &RoadNetwork,
    a: &NetworkPoint,
    targets: &[NetworkPoint],
) -> (Vec<f64>, u64) {
    let mut ws = DijkstraWorkspace::new();
    dist_rn_many_counted_with(net, &mut ws, a, targets)
}

/// [`dist_rn_many_counted`] running inside a caller-provided
/// [`DijkstraWorkspace`], so repeated refinement-time calls are
/// allocation-free. Results are identical to the one-shot variant.
pub fn dist_rn_many_counted_with(
    net: &RoadNetwork,
    ws: &mut DijkstraWorkspace,
    a: &NetworkPoint,
    targets: &[NetworkPoint],
) -> (Vec<f64>, u64) {
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(targets.len() * 2);
    for t in targets {
        let (u, v, _) = net.edge(t.edge);
        endpoints.push(u);
        endpoints.push(v);
    }
    // The workspace deduplicates endpoints shared between targets, so
    // early termination fires on the distinct set and the settle count
    // charged to budgets is not inflated.
    let settled = ws.run_targets(net.graph(), &a.seeds(net), &endpoints);
    (
        targets
            .iter()
            .map(|t| point_dist_from_map(net, ws.dist(), a, t))
            .collect(),
        settled,
    )
}

/// Combines a vertex distance map seeded at `a` into the exact distance to
/// on-edge point `b`, handling the shared-edge shortcut.
///
/// `dist` must come from a Dijkstra seeded with `a.seeds(net)` whose
/// exploration covered `b`'s edge endpoints (or was radius-bounded — then
/// the result is exact whenever it is `<=` that radius, which is all the
/// ball queries need).
pub fn point_dist_from_map(
    net: &RoadNetwork,
    dist: &[f64],
    a: &NetworkPoint,
    b: &NetworkPoint,
) -> f64 {
    let (bu, bv, blen) = net.edge(b.edge);
    compose_point_dist(a, b, blen, dist[bu as usize], dist[bv as usize])
}

/// The shared endpoint-to-point composition: given the vertex distances
/// `d_bu` / `d_bv` to `b`'s edge endpoints (from any exact backend), adds
/// the along-edge offsets and the same-edge shortcut *in a fixed
/// operation order*, so the Dijkstra and CH backends produce bit-identical
/// results from bit-identical endpoint distances.
#[inline]
fn compose_point_dist(a: &NetworkPoint, b: &NetworkPoint, blen: f64, d_bu: f64, d_bv: f64) -> f64 {
    // The along-edge shortcut is evaluated first so it wins even when
    // both endpoints sit at `INFINITY` in a radius-bounded (or
    // disconnected-component) map: two points on the same edge are always
    // mutually reachable along it, whatever the vertex map says.
    let mut d = if a.edge == b.edge {
        (a.offset - b.offset).abs()
    } else {
        f64::INFINITY
    };
    let via_u = d_bu + b.offset;
    let via_v = d_bv + (blen - b.offset);
    d = d.min(via_u).min(via_v);
    d
}

/// Label-based many-to-many `dist_RN`: the full `sources × targets`
/// distance matrix (row-major) in one oracle call — one forward sweep
/// per source, one precomputed-label scan per distinct target-edge
/// endpoint.
/// Values are bit-identical to calling the Dijkstra backend
/// ([`dist_rn_many_counted_with`]) per source, in either direction:
/// lengths and offsets sit on the `2⁻³²` grid, so every sum is exact
/// (property-tested below). The returned count is the number of vertices
/// the forward upward sweeps settled — the budget unit charged for CH
/// batches (see [`ChOracle::batch_dists`]).
pub fn dist_rn_matrix_ch(
    net: &RoadNetwork,
    ch: &ChOracle,
    cs: &mut ChSearch,
    sources: &[NetworkPoint],
    targets: &[NetworkPoint],
) -> (Vec<f64>, u64) {
    let seed_arrays: Vec<[(NodeId, f64); 2]> = sources.iter().map(|s| s.seeds(net)).collect();
    let seed_refs: Vec<&[(NodeId, f64)]> = seed_arrays.iter().map(|s| &s[..]).collect();
    let (d, settles) = ch.batch_dists(cs, &seed_refs, &endpoints(net, targets));
    (compose_rows(net, sources, targets, &d), settles)
}

/// [`dist_rn_matrix_ch`] for one source, served from the workspace's
/// pinned sweep ([`ChOracle::pinned_dists`]): the first call from
/// `source` sweeps and keeps the sweep, later ones only scan the new
/// targets' labels and settle nothing. Same bits as
/// [`dist_rn_matrix_ch`]; the count is the settles of the sweep run (0
/// when none ran, see [`ChSearch::is_pinned`]).
pub fn dist_rn_pinned_ch(
    net: &RoadNetwork,
    ch: &ChOracle,
    cs: &mut ChSearch,
    source: &NetworkPoint,
    targets: &[NetworkPoint],
) -> (Vec<f64>, u64) {
    let (d, settles) = ch.pinned_dists(cs, &source.seeds(net), &endpoints(net, targets));
    (
        compose_rows(net, std::slice::from_ref(source), targets, &d),
        settles,
    )
}

/// Both edge endpoints of every target, in target order.
fn endpoints(net: &RoadNetwork, targets: &[NetworkPoint]) -> Vec<NodeId> {
    let mut endpoints = Vec::with_capacity(targets.len() * 2);
    for t in targets {
        let (u, v, _) = net.edge(t.edge);
        endpoints.push(u);
        endpoints.push(v);
    }
    endpoints
}

/// Composes the row-major endpoint distances `d` (two columns per
/// target) into the `sources × targets` point-distance matrix.
fn compose_rows(
    net: &RoadNetwork,
    sources: &[NetworkPoint],
    targets: &[NetworkPoint],
    d: &[f64],
) -> Vec<f64> {
    let cols = targets.len() * 2;
    let mut out = Vec::with_capacity(sources.len() * targets.len());
    for (i, a) in sources.iter().enumerate() {
        for (j, t) in targets.iter().enumerate() {
            let (_, _, blen) = net.edge(t.edge);
            out.push(compose_point_dist(
                a,
                t,
                blen,
                d[i * cols + 2 * j],
                d[i * cols + 2 * j + 1],
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpssn_spatial::Point;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Square ring of side 1: vertices 0..4 at the corners.
    fn ring() -> RoadNetwork {
        let locs = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        RoadNetwork::from_euclidean_edges(locs, &[(0, 1), (1, 2), (2, 3), (3, 0)])
    }

    #[test]
    fn same_edge_uses_direct_path() {
        let net = ring();
        let a = NetworkPoint::new(&net, 0, 0.2);
        let b = NetworkPoint::new(&net, 0, 0.9);
        assert!((dist_rn(&net, &a, &b) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn same_edge_can_go_around_when_shorter() {
        // Long chord edge vs short detour: make edge (0,1) long.
        let locs = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(5.0, 0.5),
        ];
        let net = RoadNetwork::from_weighted_edges(locs, &[(0, 1, 10.0), (0, 2, 5.1), (2, 1, 5.1)]);
        // Points near the two ends of the long edge: direct = 9.0,
        // around = 0.5 + 5.1 + 5.1 + 0.5 = 11.2 -> direct wins.
        let a = NetworkPoint::new(&net, 0, 0.5);
        let b = NetworkPoint::new(&net, 0, 9.5);
        assert!((dist_rn(&net, &a, &b) - 9.0).abs() < 1e-9);
        // Points straddling an endpoint: going through vertex 0 wins.
        let c = NetworkPoint::new(&net, 0, 0.2); // 0.2 from vertex 0
        let d = NetworkPoint::new(&net, 1, 0.3); // 0.3 from vertex 0 on edge (0,2)
        assert!((dist_rn(&net, &c, &d) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cross_edge_distance_on_ring() {
        let net = ring();
        // Midpoint of bottom edge to midpoint of top edge: 0.5+1+0.5 = 2.
        let a = NetworkPoint::new(&net, 0, 0.5);
        let b = NetworkPoint::new(&net, 2, 0.5);
        assert!((dist_rn(&net, &a, &b) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn distance_is_zero_to_self() {
        let net = ring();
        let a = NetworkPoint::new(&net, 1, 0.25);
        assert_eq!(dist_rn(&net, &a, &a), 0.0);
    }

    #[test]
    fn many_matches_single() {
        let net = ring();
        let a = NetworkPoint::new(&net, 0, 0.3);
        let targets = vec![
            NetworkPoint::new(&net, 1, 0.4),
            NetworkPoint::new(&net, 2, 0.9),
            NetworkPoint::new(&net, 3, 0.1),
            a,
        ];
        let batch = dist_rn_many(&net, &a, &targets);
        for (t, &d) in targets.iter().zip(batch.iter()) {
            assert!((d - dist_rn(&net, &a, t)).abs() < 1e-9);
        }
    }

    #[test]
    fn same_edge_wins_when_endpoints_unreachable_in_bounded_map() {
        // Two components: edge (0,1) and edge (2,3). Points a, b both sit
        // on edge (2,3), but the distance map is seeded at a point on
        // edge (0,1) *and* radius-bounded, so b's endpoints are at
        // INFINITY. A same-edge query must still take the along-edge
        // path; only then is the cross-component distance INFINITY.
        let locs = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(8.0, 0.0),
        ];
        let net = RoadNetwork::from_euclidean_edges(locs, &[(0, 1), (2, 3)]);
        let a = NetworkPoint::new(&net, 1, 0.5);
        let b = NetworkPoint::new(&net, 1, 2.25);
        // Bounded map from a: only a's own endpoints are finite.
        let (map, _) = gpssn_graph::dijkstra_bounded(net.graph(), &a.seeds(&net), 0.75);
        assert_eq!(map[0], f64::INFINITY);
        assert_eq!(map[1], f64::INFINITY);
        assert!((point_dist_from_map(&net, &map, &a, &b) - 1.75).abs() < 1e-9);
        // Cross-component distance from a seed on the other edge is
        // INFINITY even though a and b share an edge with each other.
        let c = NetworkPoint::new(&net, 0, 0.5);
        let (map_c, _) = gpssn_graph::dijkstra_bounded(net.graph(), &c.seeds(&net), 100.0);
        assert_eq!(point_dist_from_map(&net, &map_c, &c, &b), f64::INFINITY);
        // And dist_rn agrees end to end.
        assert!((dist_rn(&net, &a, &b) - 1.75).abs() < 1e-9);
        assert_eq!(dist_rn(&net, &c, &b), f64::INFINITY);
    }

    #[test]
    fn shared_endpoint_targets_do_not_inflate_settles() {
        // A path 0-1-2-3-4; targets on edges (0,1) and (1,2) share
        // endpoint 1. The distinct endpoint set {0, 1, 2} settles after
        // 3 pops; the duplicate must neither stall termination nor
        // inflate the settle count charged to budgets.
        let locs: Vec<Point> = (0..5).map(|i| Point::new(i as f64, 0.0)).collect();
        let net = RoadNetwork::from_euclidean_edges(locs, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let a = NetworkPoint::new(&net, 0, 0.0);
        let targets = [
            NetworkPoint::new(&net, 0, 0.5),
            NetworkPoint::new(&net, 1, 0.5),
        ];
        let (dists, settled) = dist_rn_many_counted(&net, &a, &targets);
        assert!((dists[0] - 0.5).abs() < 1e-9);
        assert!((dists[1] - 1.5).abs() < 1e-9);
        assert_eq!(settled, 3, "duplicate endpoint 1 must count once");
    }

    #[test]
    fn workspace_reuse_matches_one_shot() {
        let net = ring();
        let mut ws = gpssn_graph::DijkstraWorkspace::new();
        let pts: Vec<NetworkPoint> = (0..4)
            .map(|e| NetworkPoint::new(&net, e, 0.25 + 0.1 * e as f64))
            .collect();
        for a in &pts {
            let (fresh, n_fresh) = dist_rn_many_counted(&net, a, &pts);
            let (reused, n_reused) = dist_rn_many_counted_with(&net, &mut ws, a, &pts);
            assert_eq!(fresh, reused);
            assert_eq!(n_fresh, n_reused);
        }
    }

    fn random_connected_net(rng: &mut StdRng, n: usize) -> RoadNetwork {
        let locs: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect();
        let mut edges: Vec<(u32, u32)> = (1..n)
            .map(|v| (rng.gen_range(0..v) as u32, v as u32))
            .collect();
        for _ in 0..n {
            let u = rng.gen_range(0..n) as u32;
            let v = rng.gen_range(0..n) as u32;
            if u != v && !edges.contains(&(u, v)) && !edges.contains(&(v, u)) {
                edges.push((u, v));
            }
        }
        RoadNetwork::from_euclidean_edges(locs, &edges)
    }

    /// Random network with two disconnected clusters (unreachable pairs),
    /// occasional coincident vertices joined by zero-weight edges, and
    /// enough extra edges for alternative routes.
    fn random_ch_net(rng: &mut StdRng, n: usize) -> RoadNetwork {
        let mut locs: Vec<Point> = Vec::with_capacity(n);
        for i in 0..n {
            // Two clusters far apart; later vertices occasionally
            // duplicate an earlier location exactly.
            if i > 2 && rng.gen_bool(0.15) {
                let j = rng.gen_range(0..i);
                locs.push(locs[j]);
            } else {
                let base = if i % 2 == 0 { 0.0 } else { 1000.0 };
                locs.push(Point::new(
                    base + rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                ));
            }
        }
        let mut edges: Vec<(u32, u32, f64)> = Vec::new();
        let cluster = |i: usize| -> bool { locs[i].x >= 500.0 };
        for v in 2..n {
            // Span within the vertex's own cluster only.
            let candidates: Vec<usize> = (0..v).filter(|&u| cluster(u) == cluster(v)).collect();
            if let Some(&u) = candidates.get(rng.gen_range(0..candidates.len().max(1))) {
                let euclid = locs[u].distance(&locs[v]);
                let w = if euclid == 0.0 && rng.gen_bool(0.5) {
                    0.0
                } else {
                    euclid + rng.gen_range(0.0..3.0)
                };
                edges.push((u as u32, v as u32, w));
            }
        }
        for _ in 0..n {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v && cluster(u) == cluster(v) {
                let euclid = locs[u].distance(&locs[v]);
                edges.push((u as u32, v as u32, euclid + rng.gen_range(0.0..5.0)));
            }
        }
        if edges.is_empty() {
            edges.push((0, 2, locs[0].distance(&locs[2]) + 1.0));
        }
        RoadNetwork::from_weighted_edges(locs, &edges)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The CH backend is bitwise-identical to the Dijkstra backend on
        /// random networks with unreachable pairs, same-edge shortcut
        /// pairs, and zero-weight edges — single rows and full matrices.
        #[test]
        fn ch_backend_is_bitwise_identical(seed in 0u64..1500, n in 4usize..28) {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = random_ch_net(&mut rng, n);
            let ch = gpssn_graph::ChOracle::build_with_threads(
                net.graph(),
                if seed % 3 == 0 { 2 } else { 1 },
            );
            let mut cs = gpssn_graph::ChSearch::new();
            let mut ws = DijkstraWorkspace::new();
            let m = net.num_edges();
            let mut pts: Vec<NetworkPoint> = (0..6)
                .map(|_| {
                    let e = rng.gen_range(0..m) as u32;
                    let len = net.edge_length(e);
                    NetworkPoint::new(&net, e, rng.gen_range(0.0..=1.0) * len)
                })
                .collect();
            // Force a same-edge pair.
            let twin_edge = pts[0].edge;
            let twin_len = net.edge_length(twin_edge);
            pts.push(NetworkPoint::new(
                &net,
                twin_edge,
                rng.gen_range(0.0..=1.0) * twin_len,
            ));
            // One source alone, then several in one call: each matrix
            // row matches that source's Dijkstra row.
            for sources in [&pts[..1], &pts[..3]] {
                let (matrix, _) = dist_rn_matrix_ch(&net, &ch, &mut cs, sources, &pts);
                for (i, a) in sources.iter().enumerate() {
                    let (want, _) = dist_rn_many_counted_with(&net, &mut ws, a, &pts);
                    for (j, w) in want.iter().enumerate() {
                        let g = matrix[i * pts.len() + j];
                        prop_assert_eq!(
                            g.to_bits(), w.to_bits(),
                            "seed {} source {} target {}: ch={:?} dijkstra={:?}", seed, i, j, g, w
                        );
                    }
                }
            }
            // The pinned row, served target by target from one sweep.
            let (want, _) = dist_rn_many_counted_with(&net, &mut ws, &pts[0], &pts);
            for (j, w) in want.iter().enumerate() {
                let (row, _) = dist_rn_pinned_ch(&net, &ch, &mut cs, &pts[0], &pts[j..=j]);
                prop_assert_eq!(row[0].to_bits(), w.to_bits(), "seed {} pinned target {}", seed, j);
                prop_assert!(cs.is_pinned(&pts[0].seeds(&net)));
            }
        }

        /// dist_RN is symmetric, nonnegative, >= Euclidean distance, and
        /// satisfies the triangle inequality on random networks.
        #[test]
        fn metric_properties(seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = random_connected_net(&mut rng, 12);
            let m = net.num_edges();
            let pts: Vec<NetworkPoint> = (0..3)
                .map(|_| {
                    let e = rng.gen_range(0..m) as u32;
                    let len = net.edge_length(e);
                    NetworkPoint::new(&net, e, rng.gen_range(0.0..=1.0) * len)
                })
                .collect();
            let d01 = dist_rn(&net, &pts[0], &pts[1]);
            let d10 = dist_rn(&net, &pts[1], &pts[0]);
            let d02 = dist_rn(&net, &pts[0], &pts[2]);
            let d12 = dist_rn(&net, &pts[1], &pts[2]);
            prop_assert_eq!(d01.to_bits(), d10.to_bits(), "symmetry");
            prop_assert!(d01 >= 0.0);
            let euclid = pts[0].location(&net).distance(&pts[1].location(&net));
            prop_assert!(d01 + 1e-9 >= euclid, "network >= euclidean: {d01} vs {euclid}");
            prop_assert!(d02 <= d01 + d12 + 1e-9, "triangle inequality");
        }

        /// `dist_RN(a, b)` and `dist_RN(b, a)` are the same bits on both
        /// backends, for random points, same-edge pairs and points at
        /// vertices, and the two backends agree.
        #[test]
        fn dist_rn_is_bitwise_symmetric(seed in 0u64..1500, n in 4usize..28) {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = random_ch_net(&mut rng, n);
            let ch = gpssn_graph::ChOracle::build(net.graph());
            let mut cs = gpssn_graph::ChSearch::new();
            let mut ws = DijkstraWorkspace::new();
            let m = net.num_edges();
            let mut pts: Vec<NetworkPoint> = (0..5)
                .map(|_| {
                    let e = rng.gen_range(0..m) as u32;
                    NetworkPoint::new(&net, e, rng.gen_range(0.0..=1.0) * net.edge_length(e))
                })
                .collect();
            let twin_edge = pts[0].edge;
            pts.push(NetworkPoint::new(
                &net,
                twin_edge,
                rng.gen_range(0.0..=1.0) * net.edge_length(twin_edge),
            ));
            for _ in 0..2 {
                let (u, _, _) = net.edge(rng.gen_range(0..m) as u32);
                pts.push(NetworkPoint::at_vertex(&net, u));
            }
            let k = pts.len();
            let (matrix, _) = dist_rn_matrix_ch(&net, &ch, &mut cs, &pts, &pts);
            let rows: Vec<Vec<f64>> = pts
                .iter()
                .map(|a| dist_rn_many_counted_with(&net, &mut ws, a, &pts).0)
                .collect();
            for i in 0..k {
                for j in 0..k {
                    let (dij, dji) = (rows[i][j], rows[j][i]);
                    prop_assert_eq!(
                        dij.to_bits(), dji.to_bits(),
                        "seed {} dijkstra {}<->{}: {:?} vs {:?}", seed, i, j, dij, dji
                    );
                    prop_assert_eq!(
                        matrix[i * k + j].to_bits(), matrix[j * k + i].to_bits(),
                        "seed {} ch {}<->{}", seed, i, j
                    );
                    prop_assert_eq!(matrix[i * k + j].to_bits(), dij.to_bits());
                }
            }
        }

        /// The Euclidean distance between two points' locations never
        /// exceeds their road distance on generated networks — the
        /// Euclidean prefilters rely on it, and it holds because edge
        /// lengths round up onto the grid.
        #[test]
        fn euclidean_never_exceeds_dist_rn(seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = crate::generate_road_network(
                &crate::RoadGenConfig {
                    num_vertices: 40,
                    space_size: 10.0,
                    neighbors_per_vertex: 2,
                },
                &mut rng,
            );
            let m = net.num_edges();
            let mut pts: Vec<NetworkPoint> = (0..6)
                .map(|_| {
                    let e = rng.gen_range(0..m) as u32;
                    NetworkPoint::new(&net, e, rng.gen_range(0.0..=1.0) * net.edge_length(e))
                })
                .collect();
            pts.push(NetworkPoint::new(&net, pts[0].edge, rng.gen_range(0.0..=1.0) * net.edge_length(pts[0].edge)));
            pts.push(NetworkPoint::at_vertex(&net, rng.gen_range(0..net.num_vertices()) as u32));
            let mut ws = DijkstraWorkspace::new();
            for a in &pts {
                let (row, _) = dist_rn_many_counted_with(&net, &mut ws, a, &pts);
                for (b, d) in pts.iter().zip(row) {
                    let euclid = a.location(&net).distance(&b.location(&net));
                    prop_assert!(euclid <= d, "seed {}: euclid {:?} > dist_RN {:?}", seed, euclid, d);
                }
            }
        }
    }
}
