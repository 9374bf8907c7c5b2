//! Connected components and subset connectivity.
//!
//! GP-SSN requires the returned user group `S` to be *connected* in the
//! social network (Definition 5, condition 2). [`is_connected_subset`]
//! checks exactly that predicate for a candidate group.

use crate::csr::{CsrGraph, NodeId};

/// Labels each vertex with a component id in `0..k` and returns
/// `(labels, k)`.
pub fn connected_components(graph: &CsrGraph) -> (Vec<u32>, usize) {
    let n = graph.num_nodes();
    const UNSET: u32 = u32::MAX;
    let mut label = vec![UNSET; n];
    let mut next = 0u32;
    let mut stack = Vec::new();
    for start in 0..n {
        if label[start] != UNSET {
            continue;
        }
        label[start] = next;
        stack.push(start as NodeId);
        while let Some(v) = stack.pop() {
            for nb in graph.neighbors(v) {
                if label[nb.node as usize] == UNSET {
                    label[nb.node as usize] = next;
                    stack.push(nb.node);
                }
            }
        }
        next += 1;
    }
    (label, next as usize)
}

/// Whether the induced subgraph on `subset` is connected.
///
/// An empty subset is vacuously connected; a singleton is connected.
/// Runs a DFS restricted to `subset` membership.
pub fn is_connected_subset(graph: &CsrGraph, subset: &[NodeId]) -> bool {
    match subset.len() {
        0 | 1 => return true,
        _ => {}
    }
    let mut member = vec![false; graph.num_nodes()];
    for &v in subset {
        member[v as usize] = true;
    }
    let mut seen = vec![false; graph.num_nodes()];
    let mut stack = vec![subset[0]];
    seen[subset[0] as usize] = true;
    let mut count = 1usize;
    while let Some(v) = stack.pop() {
        for nb in graph.neighbors(v) {
            let u = nb.node as usize;
            if member[u] && !seen[u] {
                seen[u] = true;
                count += 1;
                stack.push(nb.node);
            }
        }
    }
    count == subset.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_components() {
        let g = CsrGraph::from_edges(5, &[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]);
        let (labels, k) = connected_components(&g);
        assert_eq!(k, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn isolated_vertices_are_their_own_components() {
        let g = CsrGraph::from_edges(3, &[]);
        let (_, k) = connected_components(&g);
        assert_eq!(k, 3);
    }

    #[test]
    fn subset_connectivity() {
        // Path 0-1-2-3 plus isolated 4.
        let g = CsrGraph::from_edges(5, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        assert!(is_connected_subset(&g, &[0, 1, 2]));
        assert!(is_connected_subset(&g, &[1, 2, 3]));
        assert!(!is_connected_subset(&g, &[0, 2])); // 1 missing breaks the path
        assert!(!is_connected_subset(&g, &[0, 4]));
        assert!(is_connected_subset(&g, &[4]));
        assert!(is_connected_subset(&g, &[]));
    }

    #[test]
    fn subset_connectivity_uses_only_subset_edges() {
        // Star: 0 is the hub. {1,2} are only connected *through* 0.
        let g = CsrGraph::from_edges(3, &[(0, 1, 1.0), (0, 2, 1.0)]);
        assert!(!is_connected_subset(&g, &[1, 2]));
        assert!(is_connected_subset(&g, &[0, 1, 2]));
    }
}
