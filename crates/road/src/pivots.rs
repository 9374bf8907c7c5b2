//! Road-network pivots and triangle-inequality distance bounds.
//!
//! The paper selects `h` road-network vertices as pivots `rp_1..rp_h`
//! (Section 4.1) and stores, for every POI and user home location, the
//! exact road distances to each pivot. Lower/upper bounds between any two
//! on-network points `a, b` then follow from the triangle inequality:
//!
//! ```text
//! max_k |d(a, rp_k) - d(rp_k, b)|  <=  d(a,b)  <=  min_k (d(a, rp_k) + d(rp_k, b))
//! ```
//!
//! These bounds feed Eqs. (16)–(17) of the road-network distance pruning.

use crate::network::RoadNetwork;
use crate::poi::NetworkPoint;
use gpssn_graph::{dijkstra_all, par_map, workers, NodeId};

/// A set of road-network pivots with full distance tables.
#[derive(Debug, Clone)]
pub struct RoadPivots {
    pivots: Vec<NodeId>,
    /// `table[k][v]` = exact road distance from pivot `k` to vertex `v`.
    table: Vec<Vec<f64>>,
}

impl RoadPivots {
    /// Precomputes distance tables for the given pivot vertices (one
    /// Dijkstra per pivot), sequentially.
    pub fn new(net: &RoadNetwork, pivots: Vec<NodeId>) -> Self {
        Self::new_with_threads(net, pivots, 1)
    }

    /// [`RoadPivots::new`] with the columns computed over `threads`
    /// workers (`0` = all cores). Each column is an independent
    /// single-source Dijkstra merged back in pivot order, so the table
    /// is bit-identical for every thread count.
    pub fn new_with_threads(net: &RoadNetwork, pivots: Vec<NodeId>, threads: usize) -> Self {
        assert!(!pivots.is_empty(), "at least one pivot is required");
        let table = par_map(&mut vec![(); workers(threads)], pivots.len(), 1, |_, k| {
            dijkstra_all(net.graph(), &[(pivots[k], 0.0)])
        });
        RoadPivots { pivots, table }
    }

    /// Number of pivots `h`.
    #[inline]
    pub fn len(&self) -> usize {
        self.pivots.len()
    }

    /// Whether there are no pivots (never true for a constructed value).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pivots.is_empty()
    }

    /// The pivot vertices.
    #[inline]
    pub fn pivots(&self) -> &[NodeId] {
        &self.pivots
    }

    /// Exact distance from pivot `k` to vertex `v`.
    #[inline]
    pub fn vertex_dist(&self, k: usize, v: NodeId) -> f64 {
        self.table[k][v as usize]
    }

    /// Exact distances from an on-edge point to every pivot
    /// (`dist_RN(o_i, rp_k)` stored in `I_R` leaves).
    pub fn point_dists(&self, net: &RoadNetwork, p: &NetworkPoint) -> Vec<f64> {
        let [(u, du), (v, dv)] = p.seeds(net);
        (0..self.pivots.len())
            .map(|k| {
                let via_u = self.table[k][u as usize] + du;
                let via_v = self.table[k][v as usize] + dv;
                via_u.min(via_v)
            })
            .collect()
    }
}

/// Triangle-inequality lower bound on `d(a,b)` from per-pivot distance
/// vectors (the `max` over pivots — the tightest valid bound).
pub fn lb_dist_via_pivots(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Triangle-inequality upper bound on `d(a,b)` from per-pivot distance
/// vectors (the `min` over pivots).
pub fn ub_dist_via_pivots(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| x + y)
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::dist_rn;
    use gpssn_spatial::Point;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn grid(nx: usize, ny: usize) -> RoadNetwork {
        let mut locs = Vec::new();
        let mut edges = Vec::new();
        for y in 0..ny {
            for x in 0..nx {
                locs.push(Point::new(x as f64, y as f64));
                let id = (y * nx + x) as u32;
                if x + 1 < nx {
                    edges.push((id, id + 1));
                }
                if y + 1 < ny {
                    edges.push((id, id + nx as u32));
                }
            }
        }
        RoadNetwork::from_euclidean_edges(locs, &edges)
    }

    #[test]
    fn vertex_dist_matches_dijkstra() {
        let net = grid(4, 4);
        let pv = RoadPivots::new(&net, vec![0, 15]);
        assert_eq!(pv.len(), 2);
        // Manhattan distances on the grid.
        assert_eq!(pv.vertex_dist(0, 5), 2.0);
        assert_eq!(pv.vertex_dist(1, 0), 6.0);
    }

    #[test]
    fn point_dists_account_for_offsets() {
        let net = grid(2, 1); // single edge 0-1 of length 1
        let pv = RoadPivots::new(&net, vec![0]);
        let p = NetworkPoint::new(&net, 0, 0.25);
        let d = pv.point_dists(&net, &p);
        assert!((d[0] - 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one pivot")]
    fn rejects_empty_pivot_set() {
        let net = grid(2, 2);
        RoadPivots::new(&net, vec![]);
    }

    #[test]
    fn parallel_tables_match_sequential_bitwise() {
        let net = grid(6, 6);
        let pivots = vec![0u32, 7, 20, 35, 14];
        let base = RoadPivots::new(&net, pivots.clone());
        for threads in [2, 3, 8, 0] {
            let par = RoadPivots::new_with_threads(&net, pivots.clone(), threads);
            assert_eq!(par.pivots(), base.pivots());
            for k in 0..pivots.len() {
                for v in 0..net.num_vertices() as u32 {
                    assert_eq!(
                        par.vertex_dist(k, v).to_bits(),
                        base.vertex_dist(k, v).to_bits(),
                        "threads={threads} k={k} v={v}"
                    );
                }
            }
        }
    }

    #[test]
    fn bound_helpers() {
        let a = vec![3.0, 1.0];
        let b = vec![1.0, 4.0];
        assert_eq!(lb_dist_via_pivots(&a, &b), 3.0);
        assert_eq!(ub_dist_via_pivots(&a, &b), 4.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Pivot bounds sandwich the exact distance for random point pairs
        /// on a grid network.
        #[test]
        fn bounds_sandwich_exact(seed in 0u64..500, h in 1usize..5) {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = grid(5, 5);
            let n = net.num_vertices();
            let pivots: Vec<u32> = (0..h).map(|_| rng.gen_range(0..n) as u32).collect();
            let pv = RoadPivots::new(&net, pivots);
            let m = net.num_edges();
            let a = NetworkPoint::new(&net, rng.gen_range(0..m) as u32, rng.gen_range(0.0..1.0));
            let b = NetworkPoint::new(&net, rng.gen_range(0..m) as u32, rng.gen_range(0.0..1.0));
            let exact = dist_rn(&net, &a, &b);
            let da = pv.point_dists(&net, &a);
            let db = pv.point_dists(&net, &b);
            let lb = lb_dist_via_pivots(&da, &db);
            let ub = ub_dist_via_pivots(&da, &db);
            prop_assert!(lb <= exact + 1e-9, "lb {lb} > exact {exact}");
            prop_assert!(ub + 1e-9 >= exact, "ub {ub} < exact {exact}");
        }
    }
}
