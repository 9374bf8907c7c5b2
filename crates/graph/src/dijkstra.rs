//! Exact shortest-path distances over [`CsrGraph`]s.
//!
//! Three variants cover every GP-SSN access pattern:
//!
//! * [`dijkstra_all`] — full single-source distances, used offline when
//!   precomputing pivot (landmark) distance tables (one run per pivot).
//! * [`dijkstra_bounded`] — radius-bounded exploration, used to materialize
//!   road-network balls `⊙(o_i, r)` / `⊙(o_i, 2r)` around POIs.
//! * [`dijkstra_targets`] — early-terminating multi-target search, used
//!   during refinement when exact `dist_RN(u_j, o_i)` values are needed for
//!   a handful of candidate POIs only.
//!
//! Sources may be *virtual*: a point on an edge is expressed as a set of
//! `(vertex, initial_distance)` seeds (the two endpoints of its edge), so
//! the same machinery serves vertices, POIs, and user home locations.

use crate::csr::{CsrGraph, NodeId};
use crate::workspace::DijkstraWorkspace;

/// Sentinel distance for unreachable vertices.
pub const INFINITY: f64 = f64::INFINITY;

/// Dense distance map produced by Dijkstra runs. `dist[v] == INFINITY`
/// means `v` is unreachable (or outside the explored radius).
pub type DistanceMap = Vec<f64>;

/// Full single-source (or multi-seed) Dijkstra.
///
/// `seeds` is a list of `(vertex, initial distance)` pairs; for an ordinary
/// single-source run pass `&[(s, 0.0)]`.
pub fn dijkstra_all(graph: &CsrGraph, seeds: &[(NodeId, f64)]) -> DistanceMap {
    run(graph, seeds, INFINITY, None).0
}

/// Dijkstra restricted to vertices within `radius` of the seeds.
///
/// Returns `(dist, settled)` where `settled` lists every vertex with
/// `dist[v] <= radius`, in non-decreasing distance order. Vertices beyond
/// the radius keep `INFINITY`.
pub fn dijkstra_bounded(
    graph: &CsrGraph,
    seeds: &[(NodeId, f64)],
    radius: f64,
) -> (DistanceMap, Vec<NodeId>) {
    run(graph, seeds, radius, None)
}

/// Dijkstra that stops as soon as all `targets` are settled (or the queue
/// drains). Returns the distance map; untouched vertices keep `INFINITY`.
pub fn dijkstra_targets(
    graph: &CsrGraph,
    seeds: &[(NodeId, f64)],
    targets: &[NodeId],
) -> DistanceMap {
    run(graph, seeds, INFINITY, Some(targets)).0
}

/// One-shot wrapper around [`DijkstraWorkspace`]: the workspace owns the
/// single Dijkstra implementation; these free functions merely run a
/// throwaway one (so reused and fresh runs cannot diverge).
fn run(
    graph: &CsrGraph,
    seeds: &[(NodeId, f64)],
    radius: f64,
    targets: Option<&[NodeId]>,
) -> (DistanceMap, Vec<NodeId>) {
    let mut ws = DijkstraWorkspace::new();
    match targets {
        None => ws.run_bounded(graph, seeds, radius),
        Some(ts) => ws.run_targets(graph, seeds, ts),
    };
    ws.into_parts()
}

/// Reference all-pairs shortest paths (Floyd–Warshall), used only in tests
/// and property checks as the oracle for Dijkstra. The O(n³) path is
/// compiled out of release builds: enable the `testutil` feature to use
/// it from another crate's tests.
#[cfg(any(test, feature = "testutil"))]
pub fn floyd_warshall(graph: &CsrGraph) -> Vec<Vec<f64>> {
    let n = graph.num_nodes();
    let mut d = vec![vec![INFINITY; n]; n];
    #[allow(clippy::needless_range_loop)]
    for v in 0..n {
        d[v][v] = 0.0;
    }
    for (u, v, w) in graph.edges() {
        let (u, v) = (u as usize, v as usize);
        if w < d[u][v] {
            d[u][v] = w;
            d[v][u] = w;
        }
    }
    for k in 0..n {
        for i in 0..n {
            if d[i][k] == INFINITY {
                continue;
            }
            for j in 0..n {
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn diamond() -> CsrGraph {
        // 0 -1- 1 -1- 3,  0 -3- 2 -0.5- 3
        CsrGraph::from_edges(4, &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 3.0), (2, 3, 0.5)])
    }

    #[test]
    fn single_source_distances() {
        let g = diamond();
        let d = dijkstra_all(&g, &[(0, 0.0)]);
        assert_eq!(d, vec![0.0, 1.0, 2.5, 2.0]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 1.0)]);
        let d = dijkstra_all(&g, &[(0, 0.0)]);
        assert_eq!(d[2], INFINITY);
    }

    #[test]
    fn multi_seed_takes_minimum() {
        let g = diamond();
        // Virtual point in the middle of edge (0,2): seeds at both endpoints.
        let d = dijkstra_all(&g, &[(0, 1.5), (2, 1.5)]);
        assert_eq!(d[3], 2.0); // via vertex 2
        assert_eq!(d[1], 2.5); // via vertex 0
    }

    #[test]
    fn bounded_respects_radius() {
        let g = diamond();
        let (d, settled) = dijkstra_bounded(&g, &[(0, 0.0)], 1.0);
        assert_eq!(settled, vec![0, 1]);
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 1.0);
        assert_eq!(d[2], INFINITY);
    }

    #[test]
    fn bounded_settled_is_sorted_by_distance() {
        let g = diamond();
        let (d, settled) = dijkstra_bounded(&g, &[(0, 0.0)], 10.0);
        let dists: Vec<f64> = settled.iter().map(|&v| d[v as usize]).collect();
        let mut sorted = dists.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(dists, sorted);
        assert_eq!(settled.len(), 4);
    }

    #[test]
    fn targets_terminates_with_exact_values() {
        let g = diamond();
        let d = dijkstra_targets(&g, &[(0, 0.0)], &[3]);
        assert_eq!(d[3], 2.0);
    }

    #[test]
    fn targets_empty_returns_immediately() {
        let g = diamond();
        let d = dijkstra_targets(&g, &[(0, 0.0)], &[]);
        assert!(d.iter().skip(1).all(|&x| x == INFINITY));
    }

    fn random_graph(rng: &mut StdRng, n: usize, extra: usize) -> CsrGraph {
        // Random spanning tree plus `extra` random edges; always connected.
        let mut edges = Vec::new();
        for v in 1..n {
            let u = rng.gen_range(0..v);
            edges.push((u as NodeId, v as NodeId, rng.gen_range(0.1..10.0)));
        }
        for _ in 0..extra {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                edges.push((u as NodeId, v as NodeId, rng.gen_range(0.1..10.0)));
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Dijkstra distances match the Floyd–Warshall oracle.
        #[test]
        fn matches_floyd_warshall(seed in 0u64..1000, n in 2usize..24, extra in 0usize..30) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_graph(&mut rng, n, extra);
            let oracle = floyd_warshall(&g);
            #[allow(clippy::needless_range_loop)]
            for s in 0..n {
                let d = dijkstra_all(&g, &[(s as NodeId, 0.0)]);
                for v in 0..n {
                    prop_assert!((d[v] - oracle[s][v]).abs() < 1e-9,
                        "s={s} v={v} dijkstra={} fw={}", d[v], oracle[s][v]);
                }
            }
        }

        /// Bounded Dijkstra agrees with the full run inside the radius and
        /// settles exactly the in-radius vertices.
        #[test]
        fn bounded_agrees_with_full(seed in 0u64..1000, n in 2usize..24, radius in 0.5f64..20.0) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_graph(&mut rng, n, n);
            let full = dijkstra_all(&g, &[(0, 0.0)]);
            let (bounded, settled) = dijkstra_bounded(&g, &[(0, 0.0)], radius);
            for v in 0..n {
                if full[v] <= radius {
                    prop_assert!((bounded[v] - full[v]).abs() < 1e-9);
                    prop_assert!(settled.contains(&(v as NodeId)));
                } else {
                    prop_assert!(!settled.contains(&(v as NodeId)));
                }
            }
        }

        /// Triangle inequality holds for Dijkstra distances via any pivot.
        #[test]
        fn triangle_inequality(seed in 0u64..1000, n in 3usize..20) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_graph(&mut rng, n, n);
            let d0 = dijkstra_all(&g, &[(0, 0.0)]);
            let d1 = dijkstra_all(&g, &[(1, 0.0)]);
            for v in 0..n {
                // |d(0,v) - d(1,v)| <= d(0,1) <= d(0,v) + d(1,v)
                prop_assert!((d0[v] - d1[v]).abs() <= d0[1] + 1e-9);
            }
        }
    }
}
