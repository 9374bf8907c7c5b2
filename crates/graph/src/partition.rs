//! Balanced, connectivity-aware graph partitioning.
//!
//! The social-network index `I_S` (paper Section 4.1) partitions `G_s`
//! into subgraphs that become leaf nodes, "via standard graph partitioning
//! methods such as \[28\]" (METIS). We implement a self-contained stand-in:
//! BFS-seeded greedy growth producing connected parts of bounded size,
//! followed by a boundary-refinement pass that reduces the edge cut while
//! preserving balance. Partition quality only affects index constants, not
//! the correctness of any pruning rule.

use crate::csr::{CsrGraph, NodeId};
use std::collections::VecDeque;

/// Result of partitioning: a part id per vertex plus the member list of
/// each part.
#[derive(Debug, Clone)]
pub struct Partitioning {
    /// `assignment[v]` = part id of vertex `v`.
    pub assignment: Vec<u32>,
    /// `parts[p]` = vertices of part `p`, each non-empty.
    pub parts: Vec<Vec<NodeId>>,
}

impl Partitioning {
    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }
}

/// Partitions `graph` into parts of at most `max_part_size` vertices.
///
/// Parts are grown by BFS from unassigned seeds, so each part is connected
/// within the subgraph it was grown in (isolated vertices form singleton
/// parts). A single refinement sweep then relocates boundary vertices whose
/// move strictly reduces the edge cut without overflowing the target part.
///
/// # Panics
///
/// Panics if `max_part_size == 0`.
pub fn partition_graph(graph: &CsrGraph, max_part_size: usize) -> Partitioning {
    assert!(max_part_size > 0, "max_part_size must be positive");
    let n = graph.num_nodes();
    const UNASSIGNED: u32 = u32::MAX;
    let mut assignment = vec![UNASSIGNED; n];
    let mut parts: Vec<Vec<NodeId>> = Vec::new();

    // Greedy BFS growth.
    let mut queue = VecDeque::new();
    for seed in 0..n {
        if assignment[seed] != UNASSIGNED {
            continue;
        }
        let part_id = parts.len() as u32;
        let mut members = Vec::new();
        queue.clear();
        queue.push_back(seed as NodeId);
        assignment[seed] = part_id;
        while let Some(v) = queue.pop_front() {
            members.push(v);
            for nb in graph.neighbors(v) {
                // Never assign past the cap: everything queued is already
                // committed to this part.
                if members.len() + queue.len() >= max_part_size {
                    break;
                }
                if assignment[nb.node as usize] == UNASSIGNED {
                    assignment[nb.node as usize] = part_id;
                    queue.push_back(nb.node);
                }
            }
        }
        parts.push(members);
    }

    let mut partitioning = Partitioning { assignment, parts };
    refine(graph, &mut partitioning, max_part_size);
    partitioning
}

/// One greedy boundary-refinement sweep: move a vertex to the neighboring
/// part where it has the most neighbors, when that strictly reduces the cut
/// and respects `max_part_size` (and does not empty the source part).
fn refine(graph: &CsrGraph, p: &mut Partitioning, max_part_size: usize) {
    let n = graph.num_nodes();
    for v in 0..n as u32 {
        let from = p.assignment[v as usize];
        if p.parts[from as usize].len() <= 1 {
            continue;
        }
        // Count neighbors per adjacent part.
        let mut best_part = from;
        let mut home_links = 0usize;
        let mut best_links = 0usize;
        let neighbors = graph.neighbors(v);
        for nb in neighbors {
            let q = p.assignment[nb.node as usize];
            if q == from {
                home_links += 1;
            }
        }
        for nb in neighbors {
            let q = p.assignment[nb.node as usize];
            if q == from || q == best_part {
                continue;
            }
            let links = neighbors
                .iter()
                .filter(|m| p.assignment[m.node as usize] == q)
                .count();
            if links > best_links {
                best_links = links;
                best_part = q;
            }
        }
        if best_part != from
            && best_links > home_links
            && p.parts[best_part as usize].len() < max_part_size
        {
            p.parts[from as usize].retain(|&u| u != v);
            p.parts[best_part as usize].push(v);
            p.assignment[v as usize] = best_part;
        }
    }
    p.parts.retain(|m| !m.is_empty());
    // Reindex assignments after possible part removal.
    for (id, members) in p.parts.iter().enumerate() {
        for &v in members {
            p.assignment[v as usize] = id as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn check_invariants(g: &CsrGraph, p: &Partitioning, max_size: usize) {
        // Every vertex in exactly one part, matching its assignment.
        let mut seen = vec![false; g.num_nodes()];
        for (id, members) in p.parts.iter().enumerate() {
            assert!(!members.is_empty());
            for &v in members {
                assert!(!seen[v as usize], "vertex {v} in two parts");
                seen[v as usize] = true;
                assert_eq!(p.assignment[v as usize], id as u32);
            }
        }
        assert!(seen.iter().all(|&s| s), "some vertex unassigned");
        for members in &p.parts {
            assert!(members.len() <= max_size, "part overflows max size");
        }
    }

    #[test]
    fn partitions_path_graph() {
        let edges: Vec<_> = (0..9)
            .map(|i| (i as NodeId, i as NodeId + 1, 1.0))
            .collect();
        let g = CsrGraph::from_edges(10, &edges);
        let p = partition_graph(&g, 3);
        check_invariants(&g, &p, 3);
        assert!(p.num_parts() >= 4); // ceil(10/3)
    }

    #[test]
    fn singleton_parts_for_isolated_vertices() {
        let g = CsrGraph::from_edges(3, &[]);
        let p = partition_graph(&g, 5);
        check_invariants(&g, &p, 5);
        assert_eq!(p.num_parts(), 3);
    }

    #[test]
    fn whole_graph_in_one_part_when_cap_is_large() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let p = partition_graph(&g, 100);
        check_invariants(&g, &p, 100);
        assert_eq!(p.num_parts(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_cap() {
        let g = CsrGraph::from_edges(1, &[]);
        partition_graph(&g, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Invariants hold on random graphs across part-size caps.
        #[test]
        fn invariants_on_random_graphs(seed in 0u64..500, n in 1usize..60, cap in 1usize..20) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut edges = Vec::new();
            for v in 1..n {
                if rng.gen_bool(0.8) {
                    let u = rng.gen_range(0..v);
                    edges.push((u as NodeId, v as NodeId, 1.0));
                }
            }
            let g = CsrGraph::from_edges(n, &edges);
            let p = partition_graph(&g, cap);
            check_invariants(&g, &p, cap);
        }
    }
}
