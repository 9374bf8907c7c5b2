//! Breadth-first hop distances.
//!
//! Social-network distance `dist_SN` in the paper is the number of hops
//! between users, so BFS (not Dijkstra) is the exact oracle. The bounded
//! variant implements the paper's social-network distance pruning support:
//! GP-SSN only ever needs users within `τ - 1` hops of the query user
//! (Lemma 4).

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
}
