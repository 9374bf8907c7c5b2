//! Breadth-first hop distances.
//!
//! Social-network distance `dist_SN` in the paper is the number of hops
//! between users, so BFS (not Dijkstra) is the exact oracle. The bounded
//! variant implements the paper's social-network distance pruning support:
//! GP-SSN only ever needs users within `τ - 1` hops of the query user
//! (Lemma 4). The multi-source variant prices many sources at once for
//! the offline pivot selection (Algorithm 1).

use crate::csr::{CsrGraph, NodeId};
use std::collections::VecDeque;

/// Sentinel for unreachable vertices in hop-distance maps.
pub const UNREACHABLE: u32 = u32::MAX;

/// Full single-source hop distances. `result[v] == UNREACHABLE` if `v` is
/// not connected to `source`.
pub fn hop_distances(graph: &CsrGraph, source: NodeId) -> Vec<u32> {
    bounded_hops(graph, source, u32::MAX)
}

/// Hop distances truncated at `max_hops`: vertices farther than `max_hops`
/// keep [`UNREACHABLE`]. Runs in time proportional to the explored ball.
pub fn bounded_hops(graph: &CsrGraph, source: NodeId, max_hops: u32) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; graph.num_nodes()];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize];
        if d >= max_hops {
            continue;
        }
        for nb in graph.neighbors(v) {
            if dist[nb.node as usize] == UNREACHABLE {
                dist[nb.node as usize] = d + 1;
                queue.push_back(nb.node);
            }
        }
    }
    dist
}

/// Hop distances from every entry of `sources` to every entry of
/// `targets`, row-major `sources.len() × targets.len()`: entry
/// `i · targets.len() + j` equals `hop_distances(graph, sources[i])
/// [targets[j]]`, [`UNREACHABLE`] included.
///
/// A multi-source bit-parallel BFS (Then et al., "The More the Merrier",
/// VLDB 2015): sources go 64 to a pass, each vertex carries a `u64` of
/// the pass's sources that have reached it, and each level pushes all 64
/// frontiers along an edge at once. A vertex is expanded only in levels
/// where it gained a bit, at most 64 times a pass, so a pass never costs
/// more than 64 single-source BFS runs; on a small-world graph, where a
/// vertex's hop distances to the 64 sources span a few levels, it costs
/// a few.
pub fn multi_source_hops(graph: &CsrGraph, sources: &[NodeId], targets: &[NodeId]) -> Vec<u32> {
    let n = graph.num_nodes();
    let mut out = vec![UNREACHABLE; sources.len() * targets.len()];
    // Each distinct target vertex gets a slot; `at[slot · 64 + b]` is the
    // level at which the pass's source `b` reached it.
    let mut slot = vec![u32::MAX; n];
    let mut num_slots = 0;
    for &t in targets {
        if slot[t as usize] == u32::MAX {
            slot[t as usize] = num_slots;
            num_slots += 1;
        }
    }
    let mut at = vec![UNREACHABLE; num_slots as usize * 64];
    let (mut seen, mut frontier, mut next) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
    for (pass, chunk) in sources.chunks(64).enumerate() {
        seen.fill(0);
        at.fill(UNREACHABLE);
        let mut record = |v: usize, mut bits: u64, level: u32| {
            if slot[v] != u32::MAX {
                while bits != 0 {
                    at[slot[v] as usize * 64 + bits.trailing_zeros() as usize] = level;
                    bits &= bits - 1;
                }
            }
        };
        let mut active: Vec<usize> = Vec::new();
        for (b, &s) in chunk.iter().enumerate() {
            let s = s as usize;
            if frontier[s] == 0 {
                active.push(s);
            }
            frontier[s] |= 1 << b;
            seen[s] |= 1 << b;
            record(s, 1 << b, 0);
        }
        let mut level = 0;
        while !active.is_empty() {
            level += 1;
            let mut reached = Vec::new();
            for &v in &active {
                let bits = frontier[v];
                for nb in graph.neighbors(v as NodeId) {
                    let w = nb.node as usize;
                    let new = bits & !seen[w];
                    if new != 0 {
                        if next[w] == 0 {
                            reached.push(w);
                        }
                        next[w] |= new;
                        seen[w] |= new;
                    }
                }
            }
            for &v in &active {
                frontier[v] = 0;
            }
            for &w in &reached {
                frontier[w] = std::mem::take(&mut next[w]);
                record(w, frontier[w], level);
            }
            active = reached;
        }
        for (b, i) in (pass * 64..pass * 64 + chunk.len()).enumerate() {
            let row = &mut out[i * targets.len()..(i + 1) * targets.len()];
            for (cell, &t) in row.iter_mut().zip(targets) {
                *cell = at[slot[t as usize] as usize * 64 + b];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path5() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    }

    #[test]
    fn hop_distances_on_path() {
        let d = hop_distances(&path5(), 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn hops_ignore_weights() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 100.0), (1, 2, 100.0), (0, 2, 0.1)]);
        let d = hop_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 1]);
    }

    #[test]
    fn bounded_truncates() {
        let d = bounded_hops(&path5(), 0, 2);
        assert_eq!(d, vec![0, 1, 2, UNREACHABLE, UNREACHABLE]);
    }

    #[test]
    fn bounded_zero_is_source_only() {
        let d = bounded_hops(&path5(), 2, 0);
        assert_eq!(
            d,
            vec![UNREACHABLE, UNREACHABLE, 0, UNREACHABLE, UNREACHABLE]
        );
    }

    #[test]
    fn disconnected_component_unreachable() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let d = hop_distances(&g, 0);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn bounded_matches_full_within_radius() {
        let g = path5();
        let full = hop_distances(&g, 1);
        let bounded = bounded_hops(&g, 1, 2);
        for v in 0..5 {
            if full[v] <= 2 {
                assert_eq!(bounded[v], full[v]);
            } else {
                assert_eq!(bounded[v], UNREACHABLE);
            }
        }
    }

    #[test]
    fn multi_source_matches_single_source_on_path() {
        let g = path5();
        let d = multi_source_hops(&g, &[0, 4, 2, 0], &[4, 0, 2]);
        assert_eq!(d, vec![4, 0, 2, 0, 4, 2, 2, 2, 0, 4, 0, 2]);
    }

    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random sparse graphs (isolated vertices, several components)
        /// with up to 150 sources (so passes cross a 64-bit word),
        /// duplicate sources, and sources among the targets.
        #[test]
        fn multi_source_matches_hop_distances(seed in 0u64..1 << 40) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..120usize);
            let edges: Vec<(NodeId, NodeId, f64)> = (0..rng.gen_range(0..2 * n))
                .map(|_| (rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId)))
                .filter(|(a, b)| a != b)
                .map(|(a, b)| (a, b, 1.0))
                .collect();
            let g = CsrGraph::from_edges(n, &edges);
            let sources: Vec<NodeId> =
                (0..rng.gen_range(0..150)).map(|_| rng.gen_range(0..n as NodeId)).collect();
            let mut targets: Vec<NodeId> =
                (0..rng.gen_range(0..40)).map(|_| rng.gen_range(0..n as NodeId)).collect();
            targets.extend(sources.iter().take(3));
            let got = multi_source_hops(&g, &sources, &targets);
            prop_assert_eq!(got.len(), sources.len() * targets.len());
            for (i, &s) in sources.iter().enumerate() {
                let want = hop_distances(&g, s);
                for (j, &t) in targets.iter().enumerate() {
                    prop_assert_eq!(got[i * targets.len() + j], want[t as usize]);
                }
            }
        }
    }
}
