//! Pivot selection — the paper's Algorithm 1.
//!
//! Random-restart local search: start from a random pivot set, repeatedly
//! swap a pivot with a random non-pivot, keep the swap when the cost
//! improves, and take the best result over several restarts.
//!
//! **Cost model.** The paper defers `Cost_RN` / `Cost_SN` to appendices
//! that are not part of the extended abstract, so we re-derive the natural
//! objective: pivots exist to make the triangle-inequality *lower bound*
//! tight, so we maximize the expected bound over a fixed random sample of
//! vertex pairs:
//!
//! ```text
//! Cost(P) = Σ_{(a,b) ∈ sample} max_{p ∈ P} |d(a,p) − d(p,b)|
//! ```
//!
//! Distance columns (one single-source run per candidate pivot) are cached
//! across swap iterations, so the whole search costs `O(global_iter ·
//! swap_iter)` single-source traversals in the worst case. Columns missing
//! from the cache are independent single-source runs, so each evaluation
//! fans them out over the build threads ([`gpssn_graph::par_map`]);
//! results are merged back in candidate order, keeping the selection
//! bit-deterministic given the seed regardless of thread count.

use gpssn_graph::{bfs, dijkstra_all, par_map, workers, NodeId};
use gpssn_road::RoadNetwork;
use gpssn_social::SocialNetwork;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;

/// Tuning knobs for Algorithm 1.
#[derive(Debug, Clone)]
pub struct PivotSelectConfig {
    /// Number of pivots to select (`h` or `l`).
    pub count: usize,
    /// Random restarts (`global_iter` in Algorithm 1).
    pub global_iter: usize,
    /// Swap attempts per restart (`swap_iter`).
    pub swap_iter: usize,
    /// Number of sampled vertex pairs the cost model evaluates.
    pub sample_pairs: usize,
    /// RNG seed (pivot selection is deterministic given the seed).
    pub seed: u64,
}

impl Default for PivotSelectConfig {
    fn default() -> Self {
        PivotSelectConfig {
            count: 5,
            global_iter: 3,
            swap_iter: 24,
            sample_pairs: 64,
            seed: 0x9d17,
        }
    }
}

/// Selects road-network pivots (vertices of `G_r`) via Algorithm 1 with
/// Dijkstra distance columns, computed over `threads` build workers
/// (`0` = all cores). The selection is identical for every thread count.
pub fn select_road_pivots(
    net: &RoadNetwork,
    cfg: &PivotSelectConfig,
    threads: usize,
) -> Vec<NodeId> {
    let n = net.num_vertices();
    select_pivots(n, cfg, threads, |p| dijkstra_all(net.graph(), &[(p, 0.0)]))
}

/// Selects social-network pivots (users of `G_s`) via Algorithm 1 with
/// BFS hop columns (unreachable mapped to a large finite sentinel so the
/// cost stays comparable), computed over `threads` build workers (`0` =
/// all cores). The selection is identical for every thread count.
pub fn select_social_pivots(
    net: &SocialNetwork,
    cfg: &PivotSelectConfig,
    threads: usize,
) -> Vec<NodeId> {
    let n = net.num_users();
    let far = (n + 1) as f64;
    select_pivots(n, cfg, threads, |p| {
        bfs::hop_distances(net.graph(), p)
            .into_iter()
            .map(|h| if h == bfs::UNREACHABLE { far } else { h as f64 })
            .collect()
    })
}

/// Generic Algorithm 1 over any single-source distance oracle. A graph
/// with fewer than `cfg.count` vertices gets every vertex as a pivot.
fn select_pivots<F>(n: usize, cfg: &PivotSelectConfig, threads: usize, column: F) -> Vec<NodeId>
where
    F: Fn(NodeId) -> Vec<f64> + Sync,
{
    assert!(cfg.count >= 1, "need at least one pivot");
    let count = cfg.count.min(n);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Fixed evaluation sample.
    let pairs: Vec<(usize, usize)> = (0..cfg.sample_pairs)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let mut columns: HashMap<NodeId, Vec<f64>> = HashMap::new();
    let mut pool = vec![(); workers(threads)];
    let mut cost_of = |pivots: &[NodeId], columns: &mut HashMap<NodeId, Vec<f64>>| -> f64 {
        // Uncached columns are independent single-source runs: fan out
        // over the build threads, merge in candidate order (the cost below
        // is order-insensitive anyway — max over pivots — but the merge
        // keeps the cache contents deterministic too).
        let missing: Vec<NodeId> = {
            let mut missing = Vec::new();
            for &p in pivots {
                if !columns.contains_key(&p) && !missing.contains(&p) {
                    missing.push(p);
                }
            }
            missing
        };
        let computed = par_map(&mut pool, missing.len(), 1, |_, i| column(missing[i]));
        columns.extend(missing.into_iter().zip(computed));
        pairs
            .iter()
            .map(|&(a, b)| {
                pivots
                    .iter()
                    .map(|p| {
                        let col = &columns[p];
                        (col[a] - col[b]).abs()
                    })
                    .fold(0.0, f64::max)
            })
            .sum()
    };

    let mut global_cost = f64::NEG_INFINITY;
    let mut global_best: Vec<NodeId> = Vec::new();
    for _ in 0..cfg.global_iter.max(1) {
        // Random initial pivot set (distinct).
        let mut pivots: Vec<NodeId> = Vec::with_capacity(count);
        while pivots.len() < count {
            let cand = rng.gen_range(0..n) as NodeId;
            if !pivots.contains(&cand) {
                pivots.push(cand);
            }
        }
        let mut local_cost = cost_of(&pivots, &mut columns);
        for _ in 0..cfg.swap_iter {
            let slot = rng.gen_range(0..count);
            let replacement = rng.gen_range(0..n) as NodeId;
            if pivots.contains(&replacement) {
                continue;
            }
            let old = pivots[slot];
            pivots[slot] = replacement;
            let new_cost = cost_of(&pivots, &mut columns);
            if new_cost > local_cost {
                local_cost = new_cost;
            } else {
                pivots[slot] = old;
            }
        }
        if local_cost > global_cost {
            global_cost = local_cost;
            global_best = pivots;
        }
    }
    global_best.sort_unstable();
    global_best
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpssn_social::{generate_social_network, SocialGenConfig};
    use gpssn_spatial::Point;

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
    fn selects_requested_number_distinct() {
        let net = grid(6, 6);
        let cfg = PivotSelectConfig {
            count: 4,
            ..Default::default()
        };
        let pivots = select_road_pivots(&net, &cfg, 1);
        assert_eq!(pivots.len(), 4);
        let mut dedup = pivots.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
        assert!(pivots.iter().all(|&p| (p as usize) < 36));
    }

    #[test]
    fn count_beyond_vertices_takes_every_vertex() {
        let cfg = PivotSelectConfig {
            count: 10,
            ..Default::default()
        };
        assert_eq!(select_road_pivots(&grid(2, 2), &cfg, 1), vec![0, 1, 2, 3]);
    }

    #[test]
    fn deterministic_under_seed() {
        let net = grid(5, 5);
        let cfg = PivotSelectConfig {
            count: 3,
            ..Default::default()
        };
        assert_eq!(
            select_road_pivots(&net, &cfg, 1),
            select_road_pivots(&net, &cfg, 4)
        );
    }

    #[test]
    fn optimized_beats_single_restart_without_swaps() {
        // With swaps disabled the result is a random set; the cost model
        // must make the optimized set at least as good on its own sample.
        let net = grid(8, 8);
        let base_cfg = PivotSelectConfig {
            count: 3,
            global_iter: 1,
            swap_iter: 0,
            ..Default::default()
        };
        let opt_cfg = PivotSelectConfig {
            count: 3,
            global_iter: 4,
            swap_iter: 40,
            ..Default::default()
        };
        // Evaluate both sets on a common fresh sample of pairs.
        let eval = |pivots: &[NodeId]| -> f64 {
            let cols: Vec<Vec<f64>> = pivots
                .iter()
                .map(|&p| dijkstra_all(net.graph(), &[(p, 0.0)]))
                .collect();
            let mut total = 0.0;
            let n = net.num_vertices();
            for a in (0..n).step_by(5) {
                for b in (0..n).step_by(7) {
                    total += cols.iter().map(|c| (c[a] - c[b]).abs()).fold(0.0, f64::max);
                }
            }
            total
        };
        let random = select_road_pivots(&net, &base_cfg, 1);
        let optimized = select_road_pivots(&net, &opt_cfg, 1);
        assert!(
            eval(&optimized) >= eval(&random) * 0.95,
            "optimization made bounds much worse"
        );
    }

    #[test]
    fn social_pivots_work_on_disconnected_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let cfg = SocialGenConfig {
            num_users: 200,
            ..Default::default()
        };
        let net = generate_social_network(&cfg, &mut rng);
        let pivots = select_social_pivots(
            &net,
            &PivotSelectConfig {
                count: 3,
                ..Default::default()
            },
            1,
        );
        assert_eq!(pivots.len(), 3);
    }
}
