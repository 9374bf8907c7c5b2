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
//! **Cost of the search.** Algorithm 1's random draws never depend on
//! which swaps it keeps: the sample pairs come first, each restart's
//! start set depends only on its own draws, and each swap draws its slot
//! and replacement before checking whether the replacement is already a
//! pivot. So the RNG stream is replayed up front to list every candidate
//! pivot (at most `global_iter · (count + swap_iter)` of them), and all
//! of them are priced in one batch call, as a candidates × sample-endpoints
//! distance matrix: one [`ChOracle::batch_dists`] over the road network's
//! contraction hierarchy (bit-identical to Dijkstra on the weight grid),
//! or one 64-wide bit-parallel BFS ([`bfs::multi_source_hops`]) per 64
//! candidates on the social network. The swap loop then runs over each
//! candidate's pair gaps `|d(p,a) − d(p,b)|` in the same order as a
//! column-at-a-time search would, so the cost bits, the kept swaps and
//! the selection are the same, and the selection is a pure function of
//! the graph, the seed and the config.

use gpssn_graph::{bfs, ChOracle, ChSearch, NodeId};
use gpssn_road::RoadNetwork;
use gpssn_social::SocialNetwork;
use rand::{rngs::StdRng, Rng, SeedableRng};

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

/// Selects road-network pivots (vertices of `G_r`) via Algorithm 1,
/// pricing the candidates with `ch`, the contraction hierarchy of
/// `net`'s graph.
pub fn select_road_pivots(
    net: &RoadNetwork,
    ch: &ChOracle,
    cfg: &PivotSelectConfig,
) -> Vec<NodeId> {
    assert_eq!(ch.num_nodes(), net.num_vertices(), "CH of another graph");
    select_pivots(net.num_vertices(), cfg, |candidates, ends| {
        let seeds: Vec<[(NodeId, f64); 1]> = candidates.iter().map(|&p| [(p, 0.0)]).collect();
        let sources: Vec<&[(NodeId, f64)]> = seeds.iter().map(|s| &s[..]).collect();
        ch.batch_dists(&mut ChSearch::new(), &sources, ends).0
    })
}

/// Selects social-network pivots (users of `G_s`) via Algorithm 1 with
/// BFS hop distances (unreachable mapped to a large finite sentinel so
/// the cost stays comparable).
pub fn select_social_pivots(net: &SocialNetwork, cfg: &PivotSelectConfig) -> Vec<NodeId> {
    let n = net.num_users();
    let far = (n + 1) as f64;
    select_pivots(n, cfg, |candidates, ends| {
        bfs::multi_source_hops(net.graph(), candidates, ends)
            .into_iter()
            .map(|h| if h == bfs::UNREACHABLE { far } else { h as f64 })
            .collect()
    })
}

/// Generic Algorithm 1 over a batch distance oracle: `dists(candidates,
/// ends)` returns the row-major `candidates × ends` matrix of
/// `d(candidate, end)`. A graph with fewer than `cfg.count` vertices gets
/// every vertex as a pivot.
fn select_pivots<F>(n: usize, cfg: &PivotSelectConfig, dists: F) -> Vec<NodeId>
where
    F: FnOnce(&[NodeId], &[NodeId]) -> Vec<f64>,
{
    assert!(cfg.count >= 1, "need at least one pivot");
    let count = cfg.count.min(n);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Replay the whole RNG stream: the fixed evaluation sample (pair k is
    // `ends[2k]`, `ends[2k + 1]`), then per restart its distinct start
    // set and its `(slot, replacement)` swap draws.
    let ends: Vec<NodeId> = (0..2 * cfg.sample_pairs)
        .map(|_| rng.gen_range(0..n) as NodeId)
        .collect();
    let restarts: Vec<_> = (0..cfg.global_iter.max(1))
        .map(|_| {
            let mut start: Vec<NodeId> = Vec::with_capacity(count);
            while start.len() < count {
                let cand = rng.gen_range(0..n) as NodeId;
                if !start.contains(&cand) {
                    start.push(cand);
                }
            }
            let swaps: Vec<(usize, NodeId)> = (0..cfg.swap_iter)
                .map(|_| (rng.gen_range(0..count), rng.gen_range(0..n) as NodeId))
                .collect();
            (start, swaps)
        })
        .collect();
    let mut candidates: Vec<NodeId> = restarts
        .iter()
        .flat_map(|(start, swaps)| start.iter().copied().chain(swaps.iter().map(|s| s.1)))
        .collect();
    candidates.sort_unstable();
    candidates.dedup();

    // Price every candidate at once; keep its gap per sample pair.
    let matrix = dists(&candidates, &ends);
    let gaps: Vec<f64> = matrix
        .chunks_exact(ends.len().max(1))
        .flat_map(|row| row.chunks_exact(2).map(|ab| (ab[0] - ab[1]).abs()))
        .collect();
    let pairs = cfg.sample_pairs;
    let cost_of = |pivots: &[NodeId]| -> f64 {
        let rows: Vec<&[f64]> = pivots
            .iter()
            .map(|&p| {
                let r = candidates.partition_point(|&c| c < p);
                &gaps[r * pairs..(r + 1) * pairs]
            })
            .collect();
        (0..pairs)
            .map(|k| rows.iter().map(|row| row[k]).fold(0.0, f64::max))
            .sum()
    };

    let mut global_cost = f64::NEG_INFINITY;
    let mut global_best: Vec<NodeId> = Vec::new();
    for (mut pivots, swaps) in restarts {
        let mut local_cost = cost_of(&pivots);
        for (slot, replacement) in swaps {
            if pivots.contains(&replacement) {
                continue;
            }
            let old = pivots[slot];
            pivots[slot] = replacement;
            let new_cost = cost_of(&pivots);
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
    use gpssn_graph::{dijkstra_all, CsrGraph};
    use gpssn_social::{generate_social_network, InterestVector, SocialGenConfig};
    use gpssn_spatial::Point;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Reference Algorithm 1: the column-at-a-time search, one
    /// single-source column per new pivot, cached across swaps.
    fn reference_select(
        n: usize,
        cfg: &PivotSelectConfig,
        column: impl Fn(NodeId) -> Vec<f64>,
    ) -> Vec<NodeId> {
        let count = cfg.count.min(n);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let pairs: Vec<(usize, usize)> = (0..cfg.sample_pairs)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        let mut columns: HashMap<NodeId, Vec<f64>> = HashMap::new();
        let mut cost_of = |pivots: &[NodeId]| -> f64 {
            for &p in pivots {
                columns.entry(p).or_insert_with(|| column(p));
            }
            pairs
                .iter()
                .map(|&(a, b)| {
                    pivots
                        .iter()
                        .map(|p| (columns[p][a] - columns[p][b]).abs())
                        .fold(0.0, f64::max)
                })
                .sum()
        };
        let mut global_cost = f64::NEG_INFINITY;
        let mut global_best: Vec<NodeId> = Vec::new();
        for _ in 0..cfg.global_iter.max(1) {
            let mut pivots: Vec<NodeId> = Vec::with_capacity(count);
            while pivots.len() < count {
                let cand = rng.gen_range(0..n) as NodeId;
                if !pivots.contains(&cand) {
                    pivots.push(cand);
                }
            }
            let mut local_cost = cost_of(&pivots);
            for _ in 0..cfg.swap_iter {
                let slot = rng.gen_range(0..count);
                let replacement = rng.gen_range(0..n) as NodeId;
                if pivots.contains(&replacement) {
                    continue;
                }
                let old = pivots[slot];
                pivots[slot] = replacement;
                let new_cost = cost_of(&pivots);
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

    /// A random config: pivot counts up to and past `n`, no swaps or a
    /// single restart, sample sizes past 64, and enough swaps that the
    /// candidates overflow one 64-wide BFS word.
    fn random_config(rng: &mut StdRng, n: usize) -> PivotSelectConfig {
        PivotSelectConfig {
            count: rng.gen_range(1..n + 3),
            global_iter: rng.gen_range(0..5),
            swap_iter: rng.gen_range(0..50),
            sample_pairs: rng.gen_range(0..100),
            seed: rng.gen(),
        }
    }

    /// A jittered `nx × ny` grid with a random share of its edges dropped
    /// (so it is often disconnected), plus its CH.
    fn random_grid(rng: &mut StdRng) -> (RoadNetwork, ChOracle) {
        let (nx, ny) = (rng.gen_range(1..12usize), rng.gen_range(1..12usize));
        let locs: Vec<Point> = (0..nx * ny)
            .map(|i| {
                let (x, y) = ((i % nx) as f64, (i / nx) as f64);
                Point::new(x + rng.gen_range(-0.3..0.3), y + rng.gen_range(-0.3..0.3))
            })
            .collect();
        let keep = rng.gen_range(0.5..1.0);
        let mut edges = Vec::new();
        for i in 0..nx * ny {
            let id = i as NodeId;
            if i % nx + 1 < nx && rng.gen_bool(keep) {
                edges.push((id, id + 1));
            }
            if i / nx + 1 < ny && rng.gen_bool(keep) {
                edges.push((id, id + nx as NodeId));
            }
        }
        let net = RoadNetwork::from_euclidean_edges(locs, &edges);
        let ch = ChOracle::build_with_threads(net.graph(), 1);
        (net, ch)
    }

    /// A random friendship graph with isolated users and components.
    fn random_social(rng: &mut StdRng) -> SocialNetwork {
        let n = rng.gen_range(1..200usize);
        let friendships: Vec<(NodeId, NodeId)> = (0..rng.gen_range(0..2 * n))
            .map(|_| (rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId)))
            .filter(|(a, b)| a != b)
            .collect();
        SocialNetwork::new(vec![InterestVector::new(vec![1.0]); n], &friendships)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn road_selection_matches_reference(seed in 0u64..1 << 40) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (net, ch) = random_grid(&mut rng);
            let cfg = random_config(&mut rng, net.num_vertices());
            let want = reference_select(net.num_vertices(), &cfg, |p| {
                dijkstra_all(net.graph(), &[(p, 0.0)])
            });
            prop_assert_eq!(select_road_pivots(&net, &ch, &cfg), want);
        }

        #[test]
        fn social_selection_matches_reference(seed in 0u64..1 << 40) {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = random_social(&mut rng);
            let cfg = random_config(&mut rng, net.num_users());
            let far = (net.num_users() + 1) as f64;
            let graph: &CsrGraph = net.graph();
            let want = reference_select(net.num_users(), &cfg, |p| {
                bfs::hop_distances(graph, p)
                    .into_iter()
                    .map(|h| if h == bfs::UNREACHABLE { far } else { h as f64 })
                    .collect()
            });
            prop_assert_eq!(select_social_pivots(&net, &cfg), want);
        }
    }

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

    /// `net`'s CH, contracted on one thread.
    fn ch(net: &RoadNetwork) -> ChOracle {
        ChOracle::build_with_threads(net.graph(), 1)
    }

    #[test]
    fn selects_requested_number_distinct() {
        let net = grid(6, 6);
        let cfg = PivotSelectConfig {
            count: 4,
            ..Default::default()
        };
        let pivots = select_road_pivots(&net, &ch(&net), &cfg);
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
        assert_eq!(
            select_road_pivots(&grid(2, 2), &ch(&grid(2, 2)), &cfg),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let net = grid(5, 5);
        let cfg = PivotSelectConfig {
            count: 3,
            ..Default::default()
        };
        // The CH's contraction thread count never moves the selection.
        assert_eq!(
            select_road_pivots(&net, &ch(&net), &cfg),
            select_road_pivots(&net, &ChOracle::build_with_threads(net.graph(), 4), &cfg)
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
        let random = select_road_pivots(&net, &ch(&net), &base_cfg);
        let optimized = select_road_pivots(&net, &ch(&net), &opt_cfg);
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
        );
        assert_eq!(pivots.len(), 3);
    }
}
